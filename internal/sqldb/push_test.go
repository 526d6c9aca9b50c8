package sqldb_test

import (
	"context"
	"strings"
	"testing"

	"ritree/internal/hint"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	"ritree/internal/sqldb"
)

// nestedProbeEngine holds two hint collections: a with n points (a
// zero-length interval at 10·i) and b with five intervals that tile
// [0, 4999], so every row of a stabs exactly one row of b.
func nestedProbeEngine(t *testing.T, n int) *sqldb.Engine {
	t.Helper()
	db, err := rel.CreateDB(pagestore.NewMem(pagestore.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	e := sqldb.NewEngine(db)
	hint.RegisterIndexType(e)
	e.MustExec("CREATE COLLECTION a USING hint", nil)
	e.MustExec("CREATE COLLECTION b USING hint", nil)
	var as, bs [][]int64
	for i := 0; i < n; i++ {
		as = append(as, []int64{int64(10 * i), int64(10 * i), int64(i)})
	}
	for k := 0; k < 5; k++ {
		bs = append(bs, []int64{int64(1000 * k), int64(1000*k + 999), int64(100 + k)})
	}
	if _, err := e.BulkInsert("a", as); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BulkInsert("b", bs); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestNestedLoopsProbeAllocs: the inner side of a nested-loops join is
// one domain-index scan per outer row, run in place by the outer scan's
// row callback. Each outer row costs at most 9 allocations: the probe's
// own, with no coroutine or per-probe adapter around it.
func TestNestedLoopsProbeAllocs(t *testing.T) {
	const sql = "SELECT a.id FROM a, b WHERE contains_point(b.lower, b.upper, a.lower)"
	allocs := func(n int) float64 {
		e := nestedProbeEngine(t, n)
		plan := e.MustExec("EXPLAIN "+sql, nil).Plan
		for _, want := range []string{"NESTED LOOPS", "TABLE ACCESS FULL A", "DOMAIN INDEX B$AM"} {
			if !strings.Contains(plan, want) {
				t.Fatalf("plan lacks %q:\n%s", want, plan)
			}
		}
		return testing.AllocsPerRun(20, func() {
			rows, err := e.Query(context.Background(), sql, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for rows.Next() {
				got++
			}
			if err := rows.Close(); err != nil || rows.Err() != nil || got != n {
				t.Fatalf("%d rows, want %d (close %v, err %v)", got, n, err, rows.Err())
			}
		})
	}
	a100, a200 := allocs(100), allocs(200)
	perRow := (a200 - a100) / 100
	t.Logf("allocations: %.0f at 100 outer rows, %.0f at 200: %.1f per outer row", a100, a200, perRow)
	if perRow > 9 {
		t.Fatalf("%.1f allocations per outer row, want <= 9", perRow)
	}
}

// TestRuntimeFaultInPushedRun: a division by zero raised below the
// cursor — in the projection an ORDER BY sink drains, in an aggregate a
// GROUP BY sink folds, in the query argument of a nested-loops inner
// probe — ends the statement with the fault as Rows.Err and as Exec's
// error, after the rows already produced, and leaves the session usable.
func TestRuntimeFaultInPushedRun(t *testing.T) {
	e := nestedProbeEngine(t, 100)
	s := e.NewSession()
	defer s.Close()
	const probe = "SELECT a.id FROM a, b WHERE contains_point(b.lower, b.upper, a.lower * (a.id - 50) / (a.id - 50))"
	plan := e.MustExec("EXPLAIN "+probe, nil).Plan
	if !strings.Contains(plan, "NESTED LOOPS") || !strings.Contains(plan, "DOMAIN INDEX B$AM") {
		t.Fatalf("the probe does not run as a nested-loops domain-index probe:\n%s", plan)
	}
	for _, c := range []struct {
		name, sql string
		rows      int // rows the cursor yields before the fault
	}{
		{"order by", "SELECT 1000 / (id - 50) AS q FROM a ORDER BY q", 0},
		{"group by", "SELECT upper, SUM(1000 / (id - 50)) FROM a GROUP BY upper", 0},
		{"inner probe", probe, 50},
	} {
		rows, err := s.Query(context.Background(), c.sql, nil)
		if err != nil {
			t.Fatalf("%s: Query: %v", c.name, err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err == nil || !strings.Contains(err.Error(), "division by zero") || n != c.rows {
			t.Fatalf("%s: %d rows, Err %v; want %d rows, then division by zero", c.name, n, err, c.rows)
		}
		rows.Close()
		if _, err := s.Exec(c.sql, nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("%s: Exec err = %v, want division by zero", c.name, err)
		}
		r, err := s.Exec("SELECT COUNT(*) FROM a", nil)
		if err != nil || r.Rows[0][0] != 100 {
			t.Fatalf("%s: the session is unusable after the fault: %v, %v", c.name, r, err)
		}
	}
}

// TestDeleteFaultDeletesNothing: a DELETE whose WHERE divides by zero
// partway through its victim scan fails and deletes no row, in auto-commit
// and inside a transaction.
func TestDeleteFaultDeletesNothing(t *testing.T) {
	e := nestedProbeEngine(t, 100)
	s := e.NewSession()
	defer s.Close()
	count := func() int64 {
		t.Helper()
		r, err := s.Exec("SELECT COUNT(*) FROM a WHERE intersects(lower, upper, 0, 100000)", nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.Rows[0][0]
	}
	const del = "DELETE FROM a WHERE 1000 / (id - 50) > -1000000"
	if _, err := s.Exec(del, nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("DELETE err = %v, want division by zero", err)
	}
	if n := count(); n != 100 {
		t.Fatalf("the failed DELETE left %d of 100 rows", n)
	}
	e.MustExec("BEGIN", nil) // the engine's default session, not s
	if _, err := e.Exec(del, nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("DELETE in a transaction: err = %v, want division by zero", err)
	}
	e.MustExec("COMMIT", nil)
	if n := count(); n != 100 {
		t.Fatalf("the failed DELETE in a transaction left %d of 100 rows", n)
	}
	if r := e.MustExec("DELETE FROM a WHERE id < 10", nil); r.Affected != 10 || count() != 90 {
		t.Fatalf("a later DELETE removed %d rows, leaving %d", r.Affected, count())
	}
}
