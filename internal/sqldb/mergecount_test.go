package sqldb_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"ritree/internal/hint"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	"ritree/internal/ritree"
	"ritree/internal/sqldb"
)

// countEngine builds tables a (alo, ahi, aid) and b (blo, bhi, bid) with
// adversarial bounds — duplicates, shared ends, touching and zero-length
// intervals, containment chains — indexed by method on (lower, upper)
// when method is not empty. Both tables hold a row whose upper lies
// beyond 2^59 (HINT stores it saturated), placed so that DURING holds
// between them and FINISHES would hold if the two saturated ends were
// taken at face value.
func countEngine(t *testing.T, method string, n int) *sqldb.Engine {
	t.Helper()
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 256})
	db, err := rel.CreateDB(st)
	if err != nil {
		t.Fatal(err)
	}
	e := sqldb.NewEngine(db)
	ritree.RegisterIndexType(e)
	hint.RegisterIndexType(e)
	hint.RegisterShardedIndexType(e, 3)
	e.RegisterIndexType("unordered", &sqldb.BruteType{Unordered: true})
	e.MustExec("CREATE TABLE a (alo int, ahi int, aid int)", nil)
	e.MustExec("CREATE TABLE b (blo int, bhi int, bid int)", nil)
	rng := rand.New(rand.NewSource(11))
	var as, bs [][]int64
	for i := 0; i < n; i++ {
		lo := rng.Int63n(60)
		as = append(as, []int64{lo, lo + rng.Int63n(25), int64(i)})
		lo = rng.Int63n(60)
		bs = append(bs, []int64{lo, lo + rng.Int63n(25), int64(1000 + i)})
	}
	for i, iv := range [][2]int64{{10, 20}, {10, 20}, {20, 20}, {20, 30}, {10, 30}, {12, 20}, {10, 15}, {0, 100}} {
		as = append(as, []int64{iv[0], iv[1], int64(500 + i)})
		bs = append(bs, []int64{iv[0], iv[1], int64(1500 + i)})
	}
	const far = int64(1) << 60
	as = append(as, []int64{7, far + 7, 900})
	bs = append(bs, []int64{6, far + 9, 1900})
	if _, err := e.BulkInsert("a", as); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BulkInsert("b", bs); err != nil {
		t.Fatal(err)
	}
	if method != "" {
		e.MustExec("CREATE INDEX a_iv ON a (alo, ahi) INDEXTYPE IS "+method, nil)
		e.MustExec("CREATE INDEX b_iv ON b (blo, bhi) INDEXTYPE IS "+method, nil)
	}
	return e
}

// queryCount runs a SELECT under ctx, returning the number of rows (or,
// for a count query, the counted value), the cursor counters and the
// executed plan.
func queryCount(t *testing.T, e *sqldb.Engine, ctx context.Context, sql string, binds map[string]interface{}, count bool) (int64, sqldb.ExecStats, string, error) {
	t.Helper()
	rows, err := e.Query(ctx, sql, binds)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var n int64
	for rows.Next() {
		if count {
			n = rows.Row()[0]
		} else {
			n++
		}
	}
	return n, rows.Stats(), rows.PlanStats().Render(), rows.Err()
}

// TestMergeJoinCountParity: an ungrouped COUNT(*) over an interval merge
// join counts the sweep instead of enumerating pairs. Over every Allen
// relation and INTERSECTS and every kind of feed, the count equals the
// drained pair count and the nested-loops count, and SweepPairs equals
// the count.
func TestMergeJoinCountParity(t *testing.T) {
	ops := append(sqldb.AllenOperatorNames(), "intersects")
	rng := rand.New(rand.NewSource(5))
	mk := func(n int, base int64) *sqldb.Transient {
		tr := &sqldb.Transient{Cols: []string{"lo", "hi", "id"}}
		for i := 0; i < n; i++ {
			lo := rng.Int63n(40)
			tr.Rows = append(tr.Rows, []int64{lo, lo + rng.Int63n(15), base + int64(i)})
		}
		return tr
	}
	transient := map[string]interface{}{"as": mk(40, 0), "bs": mk(35, 100)}
	cases := []struct {
		name, method, from, where string
		binds                     map[string]interface{}
		// wantPlan must appear in the count query's executed plan.
		wantPlan []string
		// enumerate: a post filter forces the pairs to be enumerated.
		enumerate bool
	}{
		{name: "ordered", method: hint.IndexTypeName, from: "a x, b y", where: "%s(x.alo, x.ahi, y.blo, y.bhi)",
			wantPlan: []string{"INTERVAL MERGE JOIN COUNT", "ORDERED DOMAIN INDEX SCAN A_IV (LOWER, BOUNDS ONLY)", "ORDERED DOMAIN INDEX SCAN B_IV (LOWER, BOUNDS ONLY)"}},
		{name: "ordered-sharded", method: hint.ShardedIndexTypeName, from: "a x, b y", where: "%s(x.alo, x.ahi, y.blo, y.bhi)",
			wantPlan: []string{"INTERVAL MERGE JOIN COUNT", "(LOWER, BOUNDS ONLY)"}},
		{name: "sort-fallback", method: ritree.IndexTypeName, from: "a x, b y", where: "%s(x.alo, x.ahi, y.blo, y.bhi)",
			wantPlan: []string{"INTERVAL MERGE JOIN COUNT", "SORT BY LOWER (TABLE ACCESS FULL A)"}},
		{name: "unordered-stream", method: "unordered", from: "a x, b y", where: "%s(x.alo, x.ahi, y.blo, y.bhi)",
			wantPlan: []string{"INTERVAL MERGE JOIN COUNT", "SORT BY LOWER (TABLE ACCESS FULL A)", "SORT BY LOWER (TABLE ACCESS FULL B)"}},
		{name: "transient", from: "TABLE(:as) x, TABLE(:bs) y", where: "%s(x.lo, x.hi, y.lo, y.hi)", binds: transient,
			wantPlan: []string{"INTERVAL MERGE JOIN COUNT", "SORT BY LOWER (COLLECTION ITERATOR :AS)"}},
		{name: "self-join", method: hint.IndexTypeName, from: "a x, a y", where: "%s(x.alo, x.ahi, y.alo, y.ahi)",
			wantPlan: []string{"INTERVAL MERGE JOIN COUNT", "(LOWER, BOUNDS ONLY)"}},
		{name: "side-filter", method: hint.IndexTypeName, from: "a x, b y", where: "%s(x.alo, x.ahi, y.blo, y.bhi) AND x.aid > 5",
			wantPlan: []string{"INTERVAL MERGE JOIN COUNT", "ORDERED DOMAIN INDEX SCAN A_IV (LOWER) (", "ORDERED DOMAIN INDEX SCAN B_IV (LOWER, BOUNDS ONLY)"}},
		{name: "post-filter", method: hint.IndexTypeName, from: "a x, b y", where: "%s(x.alo, x.ahi, y.blo, y.bhi) AND x.aid + y.bid < 1600",
			wantPlan: []string{"INTERVAL MERGE JOIN (", "ORDERED DOMAIN INDEX SCAN A_IV (LOWER) ("}, enumerate: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := countEngine(t, tc.method, 45)
			ctx := context.Background()
			for _, op := range ops {
				where := fmt.Sprintf(tc.where, op)
				countSQL := "SELECT count(*) FROM " + tc.from + " WHERE " + where
				pairSQL := "SELECT * FROM " + tc.from + " WHERE " + where
				count, st, plan, err := queryCount(t, e, ctx, countSQL, tc.binds, true)
				if err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				for _, want := range tc.wantPlan {
					if !strings.Contains(plan, want) {
						t.Fatalf("%s: executed plan misses %q:\n%s", op, want, plan)
					}
				}
				if st.JoinStrategy != "merge" {
					t.Fatalf("%s: JoinStrategy %q", op, st.JoinStrategy)
				}
				drained, dst, _, err := queryCount(t, e, ctx, pairSQL, tc.binds, false)
				if err != nil {
					t.Fatalf("%s: drained: %v", op, err)
				}
				if count != drained {
					t.Fatalf("%s: COUNT(*) = %d, drained pairs %d", op, count, drained)
				}
				if tc.enumerate {
					if st.SweepPairs < count {
						t.Fatalf("%s: SweepPairs %d < count %d", op, st.SweepPairs, count)
					}
				} else if st.SweepPairs != count || dst.SweepPairs != count {
					t.Fatalf("%s: SweepPairs %d (drained %d), count %d", op, st.SweepPairs, dst.SweepPairs, count)
				}
				if st.LeafRows != dst.LeafRows || st.SweepSortRows != dst.SweepSortRows || st.SweepActivePeak != dst.SweepActivePeak {
					t.Fatalf("%s: counting counters leaf/sort/peak %d/%d/%d, drained %d/%d/%d", op,
						st.LeafRows, st.SweepSortRows, st.SweepActivePeak, dst.LeafRows, dst.SweepSortRows, dst.SweepActivePeak)
				}
				e.SetMergeJoinEnabled(false)
				nested, nst, _, err := queryCount(t, e, ctx, countSQL, tc.binds, true)
				e.SetMergeJoinEnabled(true)
				if err != nil {
					t.Fatalf("%s: nested loops: %v", op, err)
				}
				if nst.JoinStrategy != "nested_loops" || nested != count {
					t.Fatalf("%s: COUNT(*) = %d, nested loops (%s) %d", op, count, nst.JoinStrategy, nested)
				}
			}
		})
	}
}

// TestMergeJoinCountFarTail: over the two far-tail rows alone, both
// feeds bounds only, the saturated HINT entries are refetched — DURING
// counts their pair, and FINISHES, which would hold between the two
// saturated ends, does not.
func TestMergeJoinCountFarTail(t *testing.T) {
	for _, method := range []string{hint.IndexTypeName, hint.ShardedIndexTypeName} {
		e := countEngine(t, method, 0)
		e.MustExec("DELETE FROM a WHERE aid < 900", nil)
		e.MustExec("DELETE FROM b WHERE bid < 1900", nil)
		for op, want := range map[string]int64{"allen_during": 1, "allen_finishes": 0} {
			sql := "SELECT count(*) FROM a x, b y WHERE " + op + "(x.alo, x.ahi, y.blo, y.bhi)"
			got, _, plan, err := queryCount(t, e, context.Background(), sql, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(plan, "(LOWER, BOUNDS ONLY)") != 2 {
				t.Fatalf("%s: feeds not bounds only:\n%s", method, plan)
			}
			if got != want {
				t.Fatalf("%s: %s over the far-tail rows = %d, want %d", method, op, got, want)
			}
		}
	}
}

// pollCancel is a context that reports cancellation from its (after+1)th
// poll on: a deterministic cancel at a chosen point of an execution.
type pollCancel struct {
	context.Context
	polls, after atomic.Int64
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *pollCancel) Done() <-chan struct{} {
	if c.polls.Add(1) > c.after.Load() {
		return closedDone
	}
	return nil
}

func (c *pollCancel) Err() error {
	if c.polls.Load() > c.after.Load() {
		return context.Canceled
	}
	return nil
}

// TestMergeJoinCountCancel cancels a counting join at its last context
// poll — inside Count, after both feeds drained — and expects the
// cancellation as the cursor's error, no count, and a usable engine.
func TestMergeJoinCountCancel(t *testing.T) {
	e := countEngine(t, hint.IndexTypeName, 3000)
	sql := "SELECT count(*) FROM a x, b y WHERE intersects(x.alo, x.ahi, y.blo, y.bhi)"
	ctx := &pollCancel{Context: context.Background()}
	ctx.after.Store(1 << 62)
	want, full, _, err := queryCount(t, e, ctx, sql, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	polls := ctx.polls.Load()
	// Three polls per 1024 feed rows or sweep scans at most: the run
	// polls far less often than once per row.
	if rows := full.LeafRows; polls > 3+3*rows/1024 {
		t.Fatalf("%d context polls over %d leaf rows", polls, rows)
	}
	ctx = &pollCancel{Context: context.Background()}
	ctx.after.Store(polls - 1)
	got, st, _, err := queryCount(t, e, ctx, sql, nil, true)
	if err != context.Canceled {
		t.Fatalf("err = %v (count %d of %d), want context.Canceled", err, got, want)
	}
	if st.LeafRows != full.LeafRows || st.SweepPairs != 0 {
		t.Fatalf("cancelled run: leaf %d (full %d), pairs %d; want the feeds drained and no count", st.LeafRows, full.LeafRows, st.SweepPairs)
	}
	if n, _, _, err := queryCount(t, e, context.Background(), sql, nil, true); err != nil || n != want {
		t.Fatalf("after the cancel: count %d, %v; want %d", n, err, want)
	}
}

// TestIndexOnlyCount: SELECT COUNT(*) over a single domain-index
// predicate and nothing else is answered by Reader.Count — no leaf row —
// and agrees with the drained scan on every access method. Any other
// conjunct falls back to the scan.
func TestIndexOnlyCount(t *testing.T) {
	for _, method := range []string{ritree.IndexTypeName, hint.IndexTypeName, hint.ShardedIndexTypeName} {
		t.Run(method, func(t *testing.T) {
			e := countEngine(t, method, 300)
			ctx := context.Background()
			for _, q := range []struct{ op, args string }{
				{"intersects", "20, 35"}, {"intersects", "0, 1000"}, {"intersects", "500, 600"},
				{"contains_point", "12"}, {"intersects", ":lo, :hi"},
			} {
				binds := map[string]interface{}{"lo": 30, "hi": 31}
				where := fmt.Sprintf("%s(alo, ahi, %s)", q.op, q.args)
				count, st, plan, err := queryCount(t, e, ctx, "SELECT COUNT(*) FROM a WHERE "+where, binds, true)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(plan, "DOMAIN INDEX COUNT A_IV ("+strings.ToUpper(q.op)+")") {
					t.Fatalf("%s: plan:\n%s", where, plan)
				}
				if st.LeafRows != 0 || st.IndexProbes != 1 {
					t.Fatalf("%s: LeafRows %d, IndexProbes %d; want 0, 1", where, st.LeafRows, st.IndexProbes)
				}
				drained, dst, _, err := queryCount(t, e, ctx, "SELECT aid FROM a WHERE "+where, binds, false)
				if err != nil {
					t.Fatal(err)
				}
				if count != drained || dst.LeafRows != drained {
					t.Fatalf("%s: COUNT(*) = %d, drained %d (leaf %d)", where, count, drained, dst.LeafRows)
				}
				other, ost, oplan, err := queryCount(t, e, ctx, "SELECT COUNT(*) FROM a WHERE "+where+" AND aid >= 0", binds, true)
				if err != nil {
					t.Fatal(err)
				}
				if other != count || ost.LeafRows != drained || strings.Contains(oplan, "DOMAIN INDEX COUNT") {
					t.Fatalf("%s AND aid >= 0: count %d, leaf %d, plan:\n%s", where, other, ost.LeafRows, oplan)
				}
			}
			plan := e.MustExec("EXPLAIN SELECT COUNT(*) FROM a WHERE intersects(alo, ahi, 1, 2)", nil).Plan
			if !strings.Contains(plan, "AGGREGATE\n    DOMAIN INDEX COUNT A_IV (INTERSECTS)") {
				t.Fatalf("EXPLAIN:\n%s", plan)
			}
		})
	}
}
