package sqldb

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func planCacheEngine(t *testing.T) *Engine {
	t.Helper()
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE t (k int, v int)", nil)
	mustExec(t, e, "CREATE INDEX tk ON t (k)", nil)
	for i := 0; i < 50; i++ {
		mustExec(t, e, "INSERT INTO t VALUES (:k, :v)",
			map[string]interface{}{"k": i % 10, "v": i})
	}
	return e
}

func TestPlanCacheHitMiss(t *testing.T) {
	e := planCacheEngine(t)
	h0, m0, _, _ := e.PlanCacheStats()

	q := "SELECT v FROM t WHERE k = :k"
	r1 := mustExec(t, e, q, map[string]interface{}{"k": 3})
	h1, m1, _, n1 := e.PlanCacheStats()
	if h1 != h0 || m1 != m0+1 || n1 == 0 {
		t.Fatalf("after first run: hits %d->%d misses %d->%d entries %d", h0, h1, m0, m1, n1)
	}

	// Same text, different bind: must hit and still honor the new bind.
	r2 := mustExec(t, e, q, map[string]interface{}{"k": 7})
	h2, m2, _, _ := e.PlanCacheStats()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("after second run: hits %d->%d misses %d->%d", h1, h2, m1, m2)
	}
	if len(r1.Rows) != 5 || len(r2.Rows) != 5 {
		t.Fatalf("row counts: %d, %d", len(r1.Rows), len(r2.Rows))
	}
	for _, row := range r2.Rows {
		if row[0]%10 != 7 {
			t.Fatalf("cached plan ignored new bind: v=%d", row[0])
		}
	}
}

func TestPlanCacheDDLInvalidation(t *testing.T) {
	e := planCacheEngine(t)
	q := "SELECT v FROM t WHERE k = 1"
	mustExec(t, e, q, nil)
	if _, _, _, n := e.PlanCacheStats(); n == 0 {
		t.Fatal("no entry cached")
	}
	mustExec(t, e, "CREATE TABLE u (a int)", nil)
	if _, _, _, n := e.PlanCacheStats(); n != 0 {
		t.Fatalf("DDL did not purge the cache: %d entries", n)
	}
	// Replan after the purge counts as a fresh miss and still answers.
	_, m0, _, _ := e.PlanCacheStats()
	r := mustExec(t, e, q, nil)
	if _, m1, _, _ := e.PlanCacheStats(); m1 != m0+1 {
		t.Fatalf("misses %d->%d", m0, m1)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows after replan: %d", len(r.Rows))
	}
}

func TestPlanCacheDisableAndResize(t *testing.T) {
	e := planCacheEngine(t)
	e.SetPlanCacheSize(0)
	mustExec(t, e, "SELECT v FROM t WHERE k = 1", nil)
	mustExec(t, e, "SELECT v FROM t WHERE k = 1", nil)
	h, m, _, n := e.PlanCacheStats()
	if h != 0 || m != 0 || n != 0 {
		t.Fatalf("disabled cache still active: hits=%d misses=%d entries=%d", h, m, n)
	}

	// Cap of 2: three distinct statements evict the oldest.
	e.SetPlanCacheSize(2)
	mustExec(t, e, "SELECT v FROM t WHERE k = 1", nil)
	mustExec(t, e, "SELECT v FROM t WHERE k = 2", nil)
	mustExec(t, e, "SELECT v FROM t WHERE k = 3", nil)
	_, _, ev, n := e.PlanCacheStats()
	if n != 2 || ev != 1 {
		t.Fatalf("entries=%d evictions=%d, want 2/1", n, ev)
	}
	// The evicted (oldest) statement misses again.
	_, m0, _, _ := e.PlanCacheStats()
	mustExec(t, e, "SELECT v FROM t WHERE k = 1", nil)
	if _, m1, _, _ := e.PlanCacheStats(); m1 != m0+1 {
		t.Fatalf("evicted entry did not miss: misses %d->%d", m0, m1)
	}
}

func TestPlanCacheIneligibleStatements(t *testing.T) {
	e := planCacheEngine(t)
	h0, m0, _, n0 := e.PlanCacheStats()
	// Transient sources are not cacheable and must not touch the counters
	// either.
	mustExec(t, e, "SELECT count(*) FROM TABLE(:ks) g, t WHERE t.k = g.k",
		map[string]interface{}{"ks": &Transient{Cols: []string{"k"}, Rows: [][]int64{{1}}}})
	h1, m1, _, n1 := e.PlanCacheStats()
	if h1 != h0 || m1 != m0 || n1 != n0 {
		t.Fatalf("ineligible statements moved cache stats: %d/%d/%d -> %d/%d/%d",
			h0, m0, n0, h1, m1, n1)
	}
}

func TestPlanCacheExplainAnalyzeAnnotation(t *testing.T) {
	e := planCacheEngine(t)
	q := "EXPLAIN ANALYZE SELECT v FROM t WHERE k = 2"
	r1 := mustExec(t, e, q, nil)
	if strings.Contains(r1.Plan, "(cached plan)") {
		t.Fatalf("first run claims cached plan:\n%s", r1.Plan)
	}
	r2 := mustExec(t, e, q, nil)
	if !strings.Contains(r2.Plan, "SELECT STATEMENT (ANALYZED) (cached plan)") {
		t.Fatalf("second run missing cached-plan annotation:\n%s", r2.Plan)
	}
}

func TestPlanCacheJoinAndUnion(t *testing.T) {
	e := planCacheEngine(t)
	mustExec(t, e, "CREATE TABLE s (k int, w int)", nil)
	for i := 0; i < 10; i++ {
		mustExec(t, e, "INSERT INTO s VALUES (:k, :w)",
			map[string]interface{}{"k": i, "w": i * 100})
	}
	join := "SELECT t.v, s.w FROM t, s WHERE t.k = s.k AND s.k = :k"
	r1 := mustExec(t, e, join, map[string]interface{}{"k": 4})
	r2 := mustExec(t, e, join, map[string]interface{}{"k": 4})
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("join rows differ: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	union := "SELECT v FROM t WHERE k = :a UNION ALL SELECT v FROM t WHERE k = :b"
	binds := map[string]interface{}{"a": 1, "b": 2}
	u1 := mustExec(t, e, union, binds)
	u2 := mustExec(t, e, union, binds)
	if len(u1.Rows) != 10 || len(u2.Rows) != 10 {
		t.Fatalf("union rows: %d, %d (want 10)", len(u1.Rows), len(u2.Rows))
	}
}

func TestPlanCacheMissingBindOnHit(t *testing.T) {
	e := planCacheEngine(t)
	q := "SELECT v FROM t WHERE k = :k"
	mustExec(t, e, q, map[string]interface{}{"k": 1})
	// A cached plan instantiated without its bind must still error.
	if _, err := e.Exec(q, nil); err == nil {
		t.Fatal("missing bind on cache hit did not error")
	}
}

func TestPlanCacheUngroupedAggregate(t *testing.T) {
	// An ungrouped aggregate is cacheable: the plan keeps the compiled
	// items and the plan-time counting decision, and each execution counts
	// afresh — a row inserted between runs shows in the cached run.
	e := mergeEngine(t, 30, 25)
	q := "SELECT count(*) FROM a x, b y WHERE intersects(x.alo, x.ahi, y.blo, y.bhi)"
	run := func() (int64, bool) {
		t.Helper()
		rows, err := e.Query(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("no count row: %v", rows.Err())
		}
		return rows.Row()[0], rows.CachedPlan()
	}
	n1, cached1 := run()
	if cached1 {
		t.Fatal("first run claims a cached plan")
	}
	na := mustExec(t, e, "SELECT count(*) FROM a", nil).Rows[0][0]
	// Intersects every row of a: the count grows by exactly |a|.
	mustExec(t, e, "INSERT INTO b VALUES (0, 1000, 9999)", nil)
	n2, cached2 := run()
	if !cached2 {
		t.Fatal("second COUNT(*) join did not reuse the cached plan")
	}
	if n2 != n1+na {
		t.Fatalf("cached count after INSERT = %d, want %d + %d", n2, n1, na)
	}
	mustExec(t, e, "EXPLAIN ANALYZE "+q, nil)
	r := mustExec(t, e, "EXPLAIN ANALYZE "+q, nil)
	if !strings.Contains(r.Plan, "(cached plan)") || !strings.Contains(r.Plan, "INTERVAL MERGE JOIN COUNT (INTERSECTS)") {
		t.Fatalf("cached counting plan not shown:\n%s", r.Plan)
	}
}

func TestPlanCacheGroupBy(t *testing.T) {
	// A GROUP BY plan holds only key and item templates, so it is cached:
	// the second run is a hit with identical groups, and DDL purges it.
	e := planCacheEngine(t)
	q := "SELECT k, count(*), sum(v), min(v) FROM t WHERE v >= :min GROUP BY k ORDER BY 1"
	binds := map[string]interface{}{"min": 12}
	r1 := mustExec(t, e, q, binds)
	h1, m1, _, _ := e.PlanCacheStats()
	r2 := mustExec(t, e, q, binds)
	h2, m2, _, _ := e.PlanCacheStats()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("second GROUP BY run: hits %d->%d misses %d->%d, want a hit", h1, h2, m1, m2)
	}
	if len(r1.Rows) != 10 || !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Fatalf("cached groups differ:\n%v\n%v", r1.Rows, r2.Rows)
	}
	mustExec(t, e, "CREATE TABLE u (a int)", nil)
	if _, _, _, n := e.PlanCacheStats(); n != 0 {
		t.Fatalf("DDL did not purge the cache: %d entries", n)
	}
	r3 := mustExec(t, e, q, binds)
	if _, m3, _, _ := e.PlanCacheStats(); m3 != m2+1 {
		t.Fatalf("run after DDL: misses %d->%d, want a re-plan", m2, m3)
	}
	if !reflect.DeepEqual(r1.Rows, r3.Rows) {
		t.Fatalf("re-planned groups differ:\n%v\n%v", r1.Rows, r3.Rows)
	}
}
