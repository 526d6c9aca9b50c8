package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ritree/internal/interval"
	"ritree/internal/obs"
)

// mergeEngine builds two plain (un-indexed) interval tables a and b with
// adversarial bound patterns: duplicates, shared lowers, shared uppers,
// touching intervals, zero-length points, and containment chains — every
// boundary case the 13 Allen relations discriminate on.
func mergeEngine(t *testing.T, na, nb int) *Engine {
	t.Helper()
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE a (alo int, ahi int, aid int)", nil)
	mustExec(t, e, "CREATE TABLE b (blo int, bhi int, bid int)", nil)
	rng := rand.New(rand.NewSource(42))
	ins := func(tb string, lo, hi, id int64) {
		mustExec(t, e, fmt.Sprintf("INSERT INTO %s VALUES (:l, :h, :i)", tb),
			map[string]interface{}{"l": lo, "h": hi, "i": id})
	}
	for i := 0; i < na; i++ {
		lo := rng.Int63n(60)
		ins("a", lo, lo+rng.Int63n(25), int64(i))
	}
	for i := 0; i < nb; i++ {
		lo := rng.Int63n(60)
		ins("b", lo, lo+rng.Int63n(25), int64(1000+i))
	}
	// Hand-placed boundary rows (both tables share the shapes).
	for i, iv := range [][2]int64{{10, 20}, {10, 20}, {20, 20}, {20, 30}, {10, 30}, {12, 20}, {10, 15}, {0, 100}} {
		ins("a", iv[0], iv[1], int64(500+i))
		ins("b", iv[0], iv[1], int64(1500+i))
	}
	return e
}

// runJoin executes the two-table join under the given strategy and
// returns the ordered id pairs.
func runJoin(t *testing.T, e *Engine, merge bool, pred string) [][]int64 {
	t.Helper()
	e.SetMergeJoinEnabled(merge)
	defer e.SetMergeJoinEnabled(true)
	r := mustExec(t, e, "SELECT x.aid, y.bid FROM a x, b y WHERE "+pred+" ORDER BY 1, 2", nil)
	return r.Rows
}

func pairsEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			return false
		}
	}
	return true
}

func TestMergeJoinCrosscheckAllAllenRelations(t *testing.T) {
	e := mergeEngine(t, 45, 40)
	for _, op := range AllenOperatorNames() {
		pred := op + "(x.alo, x.ahi, y.blo, y.bhi)"
		plan := mustExec(t, e, "EXPLAIN SELECT x.aid FROM a x, b y WHERE "+pred, nil)
		if !strings.Contains(plan.Plan, "INTERVAL MERGE JOIN ("+strings.ToUpper(op)+")") {
			t.Fatalf("%s: plan is not a merge join:\n%s", op, plan.Plan)
		}
		got := runJoin(t, e, true, pred)
		want := runJoin(t, e, false, pred)
		if len(want) == 0 {
			t.Fatalf("%s: empty baseline result — the dataset exercises nothing", op)
		}
		if !pairsEqual(got, want) {
			t.Fatalf("%s: merge join disagrees with nested loops: %d vs %d pairs\nmerge: %v\nnested: %v",
				op, len(got), len(want), got, want)
		}
	}
}

func TestMergeJoinIntersectsBruteForce(t *testing.T) {
	// INTERSECTS over two un-indexed tables: the merge join and the
	// nested loops' residual form both agree with brute force.
	e := mergeEngine(t, 30, 25)
	type iv struct{ lo, hi, id int64 }
	read := func(tb string) []iv {
		r := mustExec(t, e, fmt.Sprintf("SELECT * FROM %s", tb), nil)
		out := make([]iv, 0, len(r.Rows))
		for _, row := range r.Rows {
			out = append(out, iv{row[0], row[1], row[2]})
		}
		return out
	}
	as, bs := read("a"), read("b")
	var want [][]int64
	for _, x := range as {
		for _, y := range bs {
			if x.lo <= y.hi && y.lo <= x.hi {
				want = append(want, []int64{x.id, y.id})
			}
		}
	}
	sortPairs := func(p [][]int64) {
		for i := 1; i < len(p); i++ {
			for j := i; j > 0 && (p[j][0] < p[j-1][0] || (p[j][0] == p[j-1][0] && p[j][1] < p[j-1][1])); j-- {
				p[j], p[j-1] = p[j-1], p[j]
			}
		}
	}
	sortPairs(want)
	for _, merge := range []bool{true, false} {
		if got := runJoin(t, e, merge, "intersects(x.alo, x.ahi, y.blo, y.bhi)"); !pairsEqual(got, want) {
			t.Fatalf("INTERSECTS merge=%v: %d pairs, brute force %d", merge, len(got), len(want))
		}
	}
}

func TestMergeJoinOverTransientCollections(t *testing.T) {
	// Both feeds may be transient collections: no tables, no indexes —
	// pure sort-fallback sweep, crosschecked against the residual runner.
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE dummy (x int)", nil)
	rng := rand.New(rand.NewSource(7))
	mk := func(n int, base int64) *Transient {
		tr := &Transient{Cols: []string{"lo", "hi", "id"}}
		for i := 0; i < n; i++ {
			lo := rng.Int63n(40)
			tr.Rows = append(tr.Rows, []int64{lo, lo + rng.Int63n(15), base + int64(i)})
		}
		return tr
	}
	binds := map[string]interface{}{"as": mk(25, 0), "bs": mk(20, 100)}
	q := func(merge bool) *Result {
		e.SetMergeJoinEnabled(merge)
		defer e.SetMergeJoinEnabled(true)
		r, err := e.Exec("SELECT x.id, y.id FROM TABLE(:as) x, TABLE(:bs) y "+
			"WHERE allen_overlaps(x.lo, x.hi, y.lo, y.hi) ORDER BY 1, 2", binds)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	got, want := q(true), q(false)
	if len(want.Rows) == 0 {
		t.Fatal("empty baseline result")
	}
	if !pairsEqual(got.Rows, want.Rows) {
		t.Fatalf("transient merge join %d pairs, nested loops %d", len(got.Rows), len(want.Rows))
	}
	plan := mustExec(t, e, "EXPLAIN SELECT x.id FROM TABLE(:as) x, TABLE(:bs) y "+
		"WHERE allen_overlaps(x.lo, x.hi, y.lo, y.hi)", binds)
	for _, wantLine := range []string{"INTERVAL MERGE JOIN (ALLEN_OVERLAPS)", "SORT BY LOWER"} {
		if !strings.Contains(plan.Plan, wantLine) {
			t.Fatalf("plan missing %q:\n%s", wantLine, plan.Plan)
		}
	}
}

func TestMergeJoinExtraFiltersAndResiduals(t *testing.T) {
	// Side-local conjuncts become feed filters; cross-side conjuncts run
	// as post filters over emitted pairs. Both must agree with the
	// nested-loops plan.
	e := mergeEngine(t, 40, 35)
	pred := "allen_during(x.alo, x.ahi, y.blo, y.bhi) AND x.aid > 5 AND y.bhi - y.blo > 3 AND x.aid + y.bid < 1600"
	got := runJoin(t, e, true, pred)
	want := runJoin(t, e, false, pred)
	if len(want) == 0 {
		t.Fatal("empty baseline result")
	}
	if !pairsEqual(got, want) {
		t.Fatalf("filtered merge join %d pairs, nested loops %d", len(got), len(want))
	}
}

func TestMergeJoinSelfJoin(t *testing.T) {
	e := mergeEngine(t, 35, 0)
	pred := "intersects(x.alo, x.ahi, y.alo, y.ahi)"
	r := mustExec(t, e, "SELECT count(*) FROM a x, a y WHERE "+pred, nil)
	n := mustExec(t, e, "SELECT count(*) FROM a", nil).Rows[0][0]
	// Every row intersects itself, so the self-join emits at least one
	// pair per row, and the pair set is symmetric.
	if r.Rows[0][0] < n {
		t.Fatalf("self-join count %d < row count %d", r.Rows[0][0], n)
	}
	rows := mustExec(t, e, "SELECT x.aid, y.aid FROM a x, a y WHERE "+pred+" ORDER BY 1, 2", nil).Rows
	seen := make(map[[2]int64]bool, len(rows))
	for _, p := range rows {
		seen[[2]int64{p[0], p[1]}] = true
	}
	for _, p := range rows {
		if !seen[[2]int64{p[1], p[0]}] {
			t.Fatalf("pair (%d,%d) emitted without its mirror", p[0], p[1])
		}
	}
}

func TestMergeJoinInvertedQuerySideFaults(t *testing.T) {
	// An inverted interval on the query side of the predicate faults
	// identically under both strategies — the answer must not depend on
	// the join algorithm.
	e := mergeEngine(t, 5, 5)
	mustExec(t, e, "INSERT INTO b VALUES (30, 10, 9999)", nil)
	for _, merge := range []bool{true, false} {
		e.SetMergeJoinEnabled(merge)
		_, err := e.Exec("SELECT x.aid FROM a x, b y WHERE allen_before(x.alo, x.ahi, y.blo, y.bhi)", nil)
		if err == nil || !strings.Contains(err.Error(), "ALLEN_BEFORE got the inverted query interval [30, 10]") {
			t.Fatalf("merge=%v: err = %v, want inverted-query fault", merge, err)
		}
	}
	e.SetMergeJoinEnabled(true)
}

func TestMergeJoinStrategyAndSweepStats(t *testing.T) {
	e := mergeEngine(t, 40, 35)
	reg := obs.NewRegistry()
	e.SetMetricsRegistry(reg)
	rows, err := e.Query(context.Background(), "SELECT x.aid, y.bid FROM a x, b y WHERE allen_overlaps(x.alo, x.ahi, y.blo, y.bhi)", nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	st := rows.Stats()
	rows.Close()
	if st.JoinStrategy != "merge" {
		t.Fatalf("JoinStrategy = %q, want merge", st.JoinStrategy)
	}
	if st.SweepPairs < int64(n) || st.SweepActivePeak <= 0 || st.SweepSortRows == 0 {
		t.Fatalf("sweep stats = pairs %d (>= %d rows out?), peak %d, sortRows %d",
			st.SweepPairs, n, st.SweepActivePeak, st.SweepSortRows)
	}
	snap := reg.Snapshot()
	if snap.Counter("sql.join.merge") != 1 || snap.Counter("sql.join_sweep.pairs") != st.SweepPairs {
		t.Fatalf("registry: join.merge=%d join_sweep.pairs=%d (stats pairs %d)",
			snap.Counter("sql.join.merge"), snap.Counter("sql.join_sweep.pairs"), st.SweepPairs)
	}
	if h, ok := snap.Histograms["sql.latency.join"]; !ok || h.Count != 1 {
		t.Fatalf("sql.latency.join histogram = %+v", snap.Histograms["sql.latency.join"])
	}
	if h, ok := snap.Histograms["sql.join_sweep.active_peak"]; !ok || h.Count != 1 {
		t.Fatalf("sql.join_sweep.active_peak histogram = %+v", snap.Histograms["sql.join_sweep.active_peak"])
	}

	// The nested-loops strategy reports itself the same way.
	e.SetMergeJoinEnabled(false)
	rows, err = e.Query(context.Background(), "SELECT x.aid FROM a x, b y WHERE allen_overlaps(x.alo, x.ahi, y.blo, y.bhi)", nil)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if st := rows.Stats(); st.JoinStrategy != "nested_loops" {
		t.Fatalf("JoinStrategy = %q, want nested_loops", st.JoinStrategy)
	}
	rows.Close()
	e.SetMergeJoinEnabled(true)
	if snap := reg.Snapshot(); snap.Counter("sql.join.nested_loops") != 1 {
		t.Fatalf("sql.join.nested_loops = %d", snap.Counter("sql.join.nested_loops"))
	}
}

func TestMergeJoinExplainAnalyze(t *testing.T) {
	e := mergeEngine(t, 30, 25)
	r := mustExec(t, e, "EXPLAIN ANALYZE SELECT x.aid FROM a x, b y WHERE allen_overlaps(x.alo, x.ahi, y.blo, y.bhi)", nil)
	for _, want := range []string{"INTERVAL MERGE JOIN (ALLEN_OVERLAPS)", "SORT BY LOWER", " pairs=", " active=", " spill="} {
		if !strings.Contains(r.Plan, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, r.Plan)
		}
	}
}

func TestMergeJoinCtxCancelMidSweep(t *testing.T) {
	e := mergeEngine(t, 60, 55)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := e.Query(ctx, "SELECT x.aid, y.bid FROM a x, b y WHERE intersects(x.alo, x.ahi, y.blo, y.bhi)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); err != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	rows.Close()
	// The engine stays usable after the abandoned sweep.
	mustExec(t, e, "SELECT count(*) FROM a", nil)
}

func TestMergeJoinEarlyCloseReleasesView(t *testing.T) {
	e := mergeEngine(t, 30, 25)
	rows, err := e.Query(context.Background(), "SELECT x.aid FROM a x, b y WHERE intersects(x.alo, x.ahi, y.blo, y.bhi)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	e.viewLk.Lock()
	refsOpen := e.curView.refs
	e.viewLk.Unlock()
	if refsOpen < 2 { // cache reference + the open cursor
		t.Fatalf("refs while cursor open = %d, want >= 2", refsOpen)
	}
	rows.Close()
	e.viewLk.Lock()
	refsClosed := e.curView.refs
	e.viewLk.Unlock()
	if refsClosed != refsOpen-1 {
		t.Fatalf("refs after early Close = %d, want %d", refsClosed, refsOpen-1)
	}
}

func TestMergeJoinSnapshotIsolation(t *testing.T) {
	// A streaming merge-join cursor answers from the snapshot pinned at
	// Query time: rows inserted while it is open must not appear.
	e := mergeEngine(t, 20, 15)
	rows, err := e.Query(context.Background(), "SELECT x.aid, y.bid FROM a x, b y WHERE intersects(x.alo, x.ahi, y.blo, y.bhi) ORDER BY 1, 2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	// This interval intersects everything; id 777 must stay invisible.
	mustExec(t, e, "INSERT INTO b VALUES (0, 1000, 777)", nil)
	for rows.Next() {
		if rows.Row()[1] == 777 {
			t.Fatal("cursor saw a row committed after Query")
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
}

func TestMergeJoinDisabledFallsBackToNestedLoops(t *testing.T) {
	e := mergeEngine(t, 5, 5)
	e.SetMergeJoinEnabled(false)
	defer e.SetMergeJoinEnabled(true)
	plan := mustExec(t, e, "EXPLAIN SELECT x.aid FROM a x, b y WHERE allen_before(x.alo, x.ahi, y.blo, y.bhi)", nil)
	if strings.Contains(plan.Plan, "INTERVAL MERGE JOIN") || !strings.Contains(plan.Plan, "NESTED LOOPS") {
		t.Fatalf("disabled merge join still planned:\n%s", plan.Plan)
	}
}

// drainStats runs a SELECT to exhaustion and returns its cursor counters.
func drainStats(t *testing.T, e *Engine, sql string) ExecStats {
	t.Helper()
	rows, err := e.Query(context.Background(), sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return rows.Stats()
}

func TestTopKSink(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE t (a int, b int)", nil)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		mustExec(t, e, "INSERT INTO t VALUES (:a, :b)",
			map[string]interface{}{"a": rng.Int63n(500), "b": i})
	}
	full := mustExec(t, e, "SELECT a, b FROM t ORDER BY a DESC, b", nil)
	top := mustExec(t, e, "SELECT a, b FROM t ORDER BY a DESC, b LIMIT 7", nil)
	if !pairsEqual(top.Rows, full.Rows[:7]) {
		t.Fatalf("top-k = %v\nfull prefix = %v", top.Rows, full.Rows[:7])
	}
	if st := drainStats(t, e, "SELECT a, b FROM t ORDER BY a DESC, b LIMIT 7"); st.SpillRows != 7 {
		t.Fatalf("top-k spilled %d rows, want 7 (the retained heap)", st.SpillRows)
	}
	r := mustExec(t, e, "EXPLAIN ANALYZE SELECT a FROM t ORDER BY a LIMIT 3", nil)
	if !strings.Contains(r.Plan, "SORT TOP-K 3") {
		t.Fatalf("EXPLAIN ANALYZE missing SORT TOP-K:\n%s", r.Plan)
	}
	if zero := mustExec(t, e, "SELECT a FROM t ORDER BY a LIMIT 0", nil); len(zero.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(zero.Rows))
	}
	if _, err := e.Exec("SELECT a FROM t ORDER BY a LIMIT 0 - 1", nil); err == nil {
		t.Fatal("negative LIMIT accepted")
	}
}

func TestGroupByHashAggregate(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, "CREATE TABLE g (grp int, v int)", nil)
	for i := 0; i < 60; i++ {
		mustExec(t, e, "INSERT INTO g VALUES (:g, :v)",
			map[string]interface{}{"g": i % 5, "v": i})
	}
	r := mustExec(t, e, "SELECT grp, count(*), sum(v), min(v), max(v) FROM g GROUP BY grp ORDER BY 1", nil)
	if len(r.Rows) != 5 {
		t.Fatalf("groups = %d, want 5", len(r.Rows))
	}
	for gi, row := range r.Rows {
		g := int64(gi)
		// grp g holds v in {g, g+5, ..., g+55}: 12 values.
		wantSum := 12*g + 5*(0+11)*12/2
		if row[0] != g || row[1] != 12 || row[2] != wantSum || row[3] != g || row[4] != g+55 {
			t.Fatalf("group %d = %v, want [%d 12 %d %d %d]", g, row, g, wantSum, g, g+55)
		}
	}
	if st := drainStats(t, e, "SELECT grp, count(*), sum(v), min(v), max(v) FROM g GROUP BY grp ORDER BY 1"); st.GroupedRows != 5 {
		t.Fatalf("GroupedRows = %d, want 5", st.GroupedRows)
	}
	// Grouping by a computed expression, restated in the select list.
	r = mustExec(t, e, "SELECT v / 20, count(*) FROM g GROUP BY v / 20 ORDER BY 1", nil)
	if len(r.Rows) != 3 || r.Rows[0][1] != 20 || r.Rows[1][1] != 20 || r.Rows[2][1] != 20 {
		t.Fatalf("expression groups = %v", r.Rows)
	}
	// EXPLAIN renders the sink above the scan.
	plan := mustExec(t, e, "EXPLAIN SELECT grp, count(*) FROM g GROUP BY grp", nil)
	if !strings.Contains(plan.Plan, "HASH GROUP BY") {
		t.Fatalf("plan missing HASH GROUP BY:\n%s", plan.Plan)
	}
	// Error shapes.
	for _, bad := range []string{
		"SELECT grp, v FROM g GROUP BY grp",
		"SELECT * FROM g GROUP BY grp",
		"SELECT count(*) FROM g GROUP BY count(*)",
	} {
		if _, err := e.Exec(bad, nil); err == nil {
			t.Fatalf("%s: accepted", bad)
		}
	}
}

func TestGroupByOverMergeJoin(t *testing.T) {
	// The grouped block's FROM/WHERE still plan as a merge join; the
	// grouped counts must match nested loops exactly.
	e := mergeEngine(t, 35, 30)
	q := "SELECT x.aid, count(*) FROM a x, b y WHERE intersects(x.alo, x.ahi, y.blo, y.bhi) GROUP BY x.aid ORDER BY 1"
	got := mustExec(t, e, q, nil)
	if got.Cols[1] != "count" {
		t.Fatalf("cols = %v", got.Cols)
	}
	// Crosscheck per-subject counts against the flat merge-join pairs.
	flat := mustExec(t, e, "SELECT x.aid, y.bid FROM a x, b y WHERE intersects(x.alo, x.ahi, y.blo, y.bhi)", nil)
	counts := map[int64]int64{}
	for _, p := range flat.Rows {
		counts[p[0]]++
	}
	if len(got.Rows) != len(counts) {
		t.Fatalf("groups = %d, want %d", len(got.Rows), len(counts))
	}
	for _, row := range got.Rows {
		if counts[row[0]] != row[1] {
			t.Fatalf("group %d count %d, want %d", row[0], row[1], counts[row[0]])
		}
	}
	plan := mustExec(t, e, "EXPLAIN "+q, nil)
	for _, want := range []string{"HASH GROUP BY", "INTERVAL MERGE JOIN (INTERSECTS)"} {
		if !strings.Contains(plan.Plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan.Plan)
		}
	}
}

func TestMergeJoinNowRelativeSubjectWithoutKeeper(t *testing.T) {
	// On an un-indexed table there is no NowKeeper clock: a now-relative
	// subject row resolves against now = 0 — "born in the future", matching
	// nothing — under both strategies.
	e := mergeEngine(t, 10, 10)
	mustExec(t, e, "INSERT INTO a VALUES (:l, :h, :i)",
		map[string]interface{}{"l": int64(5), "h": interval.NowMarker, "i": int64(9000)})
	pred := "intersects(x.alo, x.ahi, y.blo, y.bhi)"
	for _, row := range runJoin(t, e, true, pred) {
		if row[0] == 9000 {
			t.Fatal("unresolvable now-relative subject row emitted")
		}
	}
}
