package sqldb

import (
	"context"
	"reflect"
	"testing"

	"ritree/internal/obs"
)

// TestExecSelectIsDrainedQuery pins the single SELECT path: Exec of a
// SELECT and a drained Query of the same text return the same rows, do
// the same work (ExecStats) and hit the plan cache alike, inside and
// outside BEGIN…COMMIT; an Exec SELECT right after a committed INSERT
// sees the row; and neither leaves a snapshot view pinned.
func TestExecSelectIsDrainedQuery(t *testing.T) {
	e := newEngine(t)
	reg := obs.NewRegistry()
	e.SetMetricsRegistry(reg)
	e.SetSlowQueryThreshold(1) // capture every statement's ExecStats
	registerFake(e, nil)
	mustExec(t, e, "CREATE TABLE iv (lo int, hi int, id int)", nil)
	mustExec(t, e, "CREATE INDEX iv_f ON iv (lo, hi) INDEXTYPE IS fake", nil)
	for i := int64(0); i < 50; i++ {
		mustExec(t, e, "INSERT INTO iv VALUES (:lo, :hi, :id)",
			map[string]interface{}{"lo": i * 10, "hi": i*10 + 25, "id": i})
	}
	binds := map[string]interface{}{"a": 100, "b": 180}
	texts := []string{
		"SELECT id, lo FROM iv WHERE intersects(lo, hi, :a, :b) ORDER BY id",
		"SELECT id FROM iv WHERE contains_point(lo, hi, :a) ORDER BY 1 LIMIT 2",
		"SELECT count(*), max(hi) FROM iv WHERE lo >= :a AND lo <= :b",
		"SELECT x.id, y.id FROM iv x, iv y WHERE allen_overlaps(x.lo, x.hi, y.lo, y.hi) AND x.id < :a ORDER BY 1, 2",
	}
	gauge := func() int64 { return reg.Snapshot().Gauges["sql.views.active"] }
	hits := func() int64 { return reg.Snapshot().Counters["sql.plancache.hits"] }
	// lastStats drains the slow-query ring and returns the newest entry.
	lastStats := func() ExecStats {
		sq := e.SlowQueries()
		if len(sq) == 0 {
			t.Fatal("statement not observed")
		}
		return sq[len(sq)-1].Stats
	}
	same := func(scope string) {
		t.Helper()
		for _, text := range texts {
			mustExec(t, e, text, binds) // warm the plan cache (where the text is cacheable)
			h0 := hits()
			res := mustExec(t, e, text, binds)
			execStats, execHits := lastStats(), hits()-h0

			h0 = hits()
			rows, err := e.Query(context.Background(), text, binds)
			if err != nil {
				t.Fatal(err)
			}
			var got [][]int64
			for rows.Next() {
				got = append(got, append([]int64(nil), rows.Row()...))
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			queryStats, queryHits := lastStats(), hits()-h0

			if len(got) == 0 || !reflect.DeepEqual(res.Rows, got) || !reflect.DeepEqual(res.Cols, rows.Columns()) {
				t.Fatalf("%s: %s\nExec  %v %v\nQuery %v %v", scope, text, res.Cols, res.Rows, rows.Columns(), got)
			}
			if execStats != queryStats {
				t.Fatalf("%s: %s\nExec stats  %+v\nQuery stats %+v", scope, text, execStats, queryStats)
			}
			if execHits != queryHits {
				t.Fatalf("%s: %s: plan-cache hits Exec %d, Query %d", scope, text, execHits, queryHits)
			}
		}
	}
	seen := func() int64 {
		return mustExec(t, e, "SELECT count(*) FROM iv WHERE id = 1000", nil).Rows[0][0]
	}

	same("auto-commit")
	// A committed write retires the cached view; nothing else may hold one.
	mustExec(t, e, "INSERT INTO iv VALUES (100, 125, 1000)", nil)
	if g := gauge(); g != 0 {
		t.Fatalf("sql.views.active = %d after auto-commit SELECTs and a commit, want 0", g)
	}
	if seen() != 1 {
		t.Fatal("Exec SELECT right after a committed INSERT does not see the row")
	}

	mustExec(t, e, "DELETE FROM iv WHERE id = 1000", nil)
	mustExec(t, e, "BEGIN", nil)
	mustExec(t, e, "INSERT INTO iv VALUES (100, 125, 1000)", nil)
	if seen() != 0 {
		t.Fatal("SELECT inside the transaction sees its buffered INSERT")
	}
	same("in transaction")
	mustExec(t, e, "COMMIT", nil)
	if g := gauge(); g != 0 {
		t.Fatalf("sql.views.active = %d after COMMIT, want 0", g)
	}
	if seen() != 1 {
		t.Fatal("Exec SELECT right after COMMIT does not see the row")
	}
}
