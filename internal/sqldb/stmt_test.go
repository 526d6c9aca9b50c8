package sqldb

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"ritree/internal/obs"
)

// stmtEngine is a table iv of 50 intervals under the fake domain index
// iv_f, on an engine publishing its metrics into reg.
func stmtEngine(t *testing.T) (*Engine, *obs.Registry) {
	t.Helper()
	e := newEngine(t)
	reg := obs.NewRegistry()
	e.SetMetricsRegistry(reg)
	registerFake(e, nil)
	mustExec(t, e, "CREATE TABLE iv (lo int, hi int, id int)", nil)
	mustExec(t, e, "CREATE INDEX iv_f ON iv (lo, hi) INDEXTYPE IS fake", nil)
	for i := int64(0); i < 50; i++ {
		mustExec(t, e, "INSERT INTO iv VALUES (:lo, :hi, :id)",
			map[string]interface{}{"lo": i * 10, "hi": i*10 + 25, "id": i})
	}
	return e, reg
}

// drain runs a prepared SELECT and returns its rows.
func drain(t *testing.T, st *Stmt, args ...int64) ([][]int64, error) {
	t.Helper()
	rows, err := st.Query(context.Background(), args)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out [][]int64
	for rows.Next() {
		out = append(out, append([]int64(nil), rows.Row()...))
	}
	return out, rows.Err()
}

// TestPreparedStmtParsesOnce: a Stmt parses at Prepare and never again —
// 100 executions through Query and Exec add nothing to sql.parses — and
// answers what the text path answers, with positional arguments in
// bind-name order.
func TestPreparedStmtParsesOnce(t *testing.T) {
	e, reg := stmtEngine(t)
	parses := func() int64 { return reg.Snapshot().Counters["sql.parses"] }
	const text = "SELECT id, lo FROM iv WHERE intersects(lo, hi, :b, :a) ORDER BY id"
	s := e.NewSession()
	defer s.Close()
	p0 := parses()
	st, err := s.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	if p := parses() - p0; p != 1 {
		t.Fatalf("Prepare parsed %d times, want 1", p)
	}
	if names := st.BindNames(); !reflect.DeepEqual(names, []string{"b", "a"}) {
		t.Fatalf("BindNames = %v, want [b a]", names)
	}
	p0 = parses()
	for i := int64(0); i < 100; i++ {
		lo, hi := i*5, i*5+30
		got, err := drain(t, st, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Exec([]int64{lo, hi})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, res.Rows) {
			t.Fatalf("Query %v != Exec %v", got, res.Rows)
		}
		if i%25 == 0 { // the text path parses, so compare it outside the count
			p := parses()
			want := mustExec(t, e, text, map[string]interface{}{"b": lo, "a": hi})
			if !reflect.DeepEqual(got, want.Rows) || len(got) == 0 {
				t.Fatalf("[%d, %d]: prepared %v, text %v", lo, hi, got, want.Rows)
			}
			p0 += parses() - p
		}
	}
	if p := parses() - p0; p != 0 {
		t.Fatalf("100 executions of a prepared statement parsed %d times", p)
	}
	if _, err := st.Query(context.Background(), []int64{1}); err == nil ||
		!strings.Contains(err.Error(), "2 bind variables, got 1") {
		t.Fatalf("one argument for two binds: err = %v", err)
	}
}

// TestStmtReplansAfterDDL: a Stmt keeps its parse, not its plan. After
// DROP INDEX it re-plans as a table scan with the same rows; after CREATE
// INDEX its EXPLAIN shows the domain index again; after DROP TABLE it
// fails.
func TestStmtReplansAfterDDL(t *testing.T) {
	e, _ := stmtEngine(t)
	const text = "SELECT id FROM iv WHERE intersects(lo, hi, :a, :b) ORDER BY id"
	s := e.NewSession()
	defer s.Close()
	st, err := s.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	explain, err := s.Prepare("EXPLAIN " + text)
	if err != nil {
		t.Fatal(err)
	}
	if !explain.Explain() || st.Explain() {
		t.Fatalf("Explain() = %v for EXPLAIN, %v for SELECT", explain.Explain(), st.Explain())
	}
	plan := func() string {
		t.Helper()
		res, err := explain.Exec([]int64{100, 180})
		if err != nil {
			t.Fatal(err)
		}
		return res.Plan
	}
	want, err := drain(t, st, 100, 180)
	if err != nil || len(want) == 0 {
		t.Fatalf("rows %v, err %v", want, err)
	}
	if p := plan(); !strings.Contains(p, "DOMAIN INDEX IV_F") {
		t.Fatalf("plan before DROP INDEX:\n%s", p)
	}
	mustExec(t, e, "DROP INDEX iv_f", nil)
	if got, err := drain(t, st, 100, 180); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after DROP INDEX: rows %v, err %v; want %v", got, err, want)
	}
	if p := plan(); !strings.Contains(p, "TABLE ACCESS FULL") || strings.Contains(p, "DOMAIN INDEX") {
		t.Fatalf("plan after DROP INDEX:\n%s", p)
	}
	mustExec(t, e, "CREATE INDEX iv_f ON iv (lo, hi) INDEXTYPE IS fake", nil)
	if p := plan(); !strings.Contains(p, "DOMAIN INDEX IV_F") {
		t.Fatalf("plan after CREATE INDEX:\n%s", p)
	}
	if got, err := drain(t, st, 100, 180); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after CREATE INDEX: rows %v, err %v; want %v", got, err, want)
	}
	mustExec(t, e, "DROP TABLE iv", nil)
	if got, err := drain(t, st, 100, 180); err == nil {
		t.Fatalf("after DROP TABLE: rows %v with no error", got)
	}
}
