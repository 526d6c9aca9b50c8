package ritree

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ritree/internal/sqldb"
)

// mergeJoinDB builds two collections under the given access method, with
// bound patterns exercising every Allen relation: random spans plus
// hand-placed duplicates, shared endpoints, touching and zero-length
// intervals.
func mergeJoinDB(t *testing.T, method string, perSide int) (*DB, *Collection, *Collection) {
	t.Helper()
	db := openMemoryDB(t)
	lhs, err := db.CreateCollection("lhs", AccessMethod(method))
	if err != nil {
		t.Fatal(err)
	}
	rhs, err := db.CreateCollection("rhs", AccessMethod(method))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	id := int64(0)
	fill := func(c *Collection) {
		for i := 0; i < perSide; i++ {
			lo := rng.Int63n(200)
			if err := c.Insert(NewInterval(lo, lo+rng.Int63n(60)), id); err != nil {
				t.Fatal(err)
			}
			id++
		}
		for _, iv := range [][2]int64{{50, 80}, {50, 80}, {80, 80}, {80, 120}, {50, 120}, {60, 80}, {50, 65}, {0, 400}} {
			if err := c.Insert(NewInterval(iv[0], iv[1]), id); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	fill(lhs)
	fill(rhs)
	return db, lhs, rhs
}

// crosscheckJoin runs the predicate under both strategies and fails on
// any disagreement. It returns the merge-join EXPLAIN for feed checks.
func crosscheckJoin(t *testing.T, db *DB, pred string) string {
	t.Helper()
	q := "SELECT s.id, q.id FROM lhs q, rhs s WHERE " + pred + " ORDER BY 1, 2"
	plan, err := db.Exec("EXPLAIN "+q, nil)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if !strings.Contains(plan.Plan, "INTERVAL MERGE JOIN") {
		t.Fatalf("%s: not planned as a merge join:\n%s", pred, plan.Plan)
	}
	got, err := db.Exec(q, nil)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	db.eng.SetMergeJoinEnabled(false)
	want, err := db.Exec(q, nil)
	db.eng.SetMergeJoinEnabled(true)
	if err != nil {
		t.Fatalf("nested loops: %v", err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: merge %d pairs, nested loops %d", pred, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if got.Rows[i][0] != want.Rows[i][0] || got.Rows[i][1] != want.Rows[i][1] {
			t.Fatalf("%s: pair %d: merge %v, nested loops %v", pred, i, got.Rows[i], want.Rows[i])
		}
	}
	return plan.Plan
}

func TestMergeJoinAcrossAccessMethods(t *testing.T) {
	preds := make([]string, 0, 14)
	for _, op := range sqldb.AllenOperatorNames() {
		preds = append(preds, op+"(s.lower, s.upper, q.lower, q.upper)")
	}
	preds = append(preds, "intersects(s.lower, s.upper, q.lower, q.upper)")
	for _, method := range []string{AccessMethodRITree, AccessMethodHINT, AccessMethodHINTSharded} {
		t.Run(method, func(t *testing.T) {
			db, _, _ := mergeJoinDB(t, method, 120)
			ordered := method != AccessMethodRITree // HINT offers the ordered stream
			for _, pred := range preds {
				plan := crosscheckJoin(t, db, pred)
				if ordered && !strings.Contains(plan, "ORDERED DOMAIN INDEX SCAN") {
					t.Fatalf("%s: no ordered feed:\n%s", pred, plan)
				}
				if !ordered && !strings.Contains(plan, "SORT BY LOWER") {
					t.Fatalf("%s: expected sort-fallback feeds:\n%s", pred, plan)
				}
			}
		})
	}
}

func TestMergeJoinNowRelativeRows(t *testing.T) {
	// Now-relative intervals (§4.6) live only in ritree collections; both
	// strategies must resolve subject-side NOW rows against the same
	// frozen clock and treat query-side NOW uppers as plain magnitudes.
	db, lhs, rhs := mergeJoinDB(t, AccessMethodRITree, 60)
	for i := int64(0); i < 5; i++ {
		if err := lhs.InsertNow(40+10*i, 8000+i); err != nil {
			t.Fatal(err)
		}
		if err := rhs.InsertNow(45+10*i, 8100+i); err != nil {
			t.Fatal(err)
		}
	}
	if err := lhs.SetNow(70); err != nil {
		t.Fatal(err)
	}
	if err := rhs.SetNow(70); err != nil {
		t.Fatal(err)
	}
	sawNow := false
	for _, op := range []string{"intersects", "allen_overlaps", "allen_during", "allen_before", "allen_finishes"} {
		crosscheckJoin(t, db, op+"(s.lower, s.upper, q.lower, q.upper)")
		r, err := db.Exec("SELECT s.id FROM lhs q, rhs s WHERE "+op+"(s.lower, s.upper, q.lower, q.upper)", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.Rows {
			if row[0] >= 8100 {
				sawNow = true
			}
		}
	}
	if !sawNow {
		t.Fatal("no now-relative subject row ever joined — the clock path is untested")
	}
}

func TestMergeJoinOrderedFeedsSkipSorting(t *testing.T) {
	// HINT feeds stream pre-sorted off the flat layout: the whole join
	// must run with zero explicit sort rows, and EXPLAIN ANALYZE must
	// show the ordered scans with live sweep counters.
	db, _, _ := mergeJoinDB(t, AccessMethodHINT, 150)
	rows, err := db.Query(context.Background(),
		"SELECT s.id, q.id FROM lhs q, rhs s WHERE intersects(s.lower, s.upper, q.lower, q.upper)", nil)
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
	if n == 0 {
		t.Fatal("empty join")
	}
	if st.JoinStrategy != "merge" {
		t.Fatalf("JoinStrategy = %q", st.JoinStrategy)
	}
	if st.SweepSortRows != 0 {
		t.Fatalf("ordered feeds still sorted %d rows", st.SweepSortRows)
	}
	if st.SweepPairs < int64(n) || st.SweepActivePeak <= 0 {
		t.Fatalf("sweep counters: pairs=%d active=%d (rows out %d)", st.SweepPairs, st.SweepActivePeak, n)
	}
	r, err := db.Exec("EXPLAIN ANALYZE SELECT s.id FROM lhs q, rhs s WHERE intersects(s.lower, s.upper, q.lower, q.upper)", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"INTERVAL MERGE JOIN (INTERSECTS)", "ORDERED DOMAIN INDEX SCAN", " pairs=", " active="} {
		if !strings.Contains(r.Plan, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, r.Plan)
		}
	}
	// The ritree fallback on the same query sorts both feeds.
	db2, _, _ := mergeJoinDB(t, AccessMethodRITree, 40)
	rows2, err := db2.Query(context.Background(),
		"SELECT s.id FROM lhs q, rhs s WHERE intersects(s.lower, s.upper, q.lower, q.upper)", nil)
	if err != nil {
		t.Fatal(err)
	}
	for rows2.Next() {
	}
	if st := rows2.Stats(); st.SweepSortRows == 0 {
		t.Fatal("ritree feeds reported zero sort rows")
	}
	rows2.Close()
}

func TestMergeJoinMetricsFamilies(t *testing.T) {
	db, _, _ := mergeJoinDB(t, AccessMethodHINT, 50)
	before := db.Metrics()
	rows, err := db.Query(context.Background(),
		"SELECT s.id FROM lhs q, rhs s WHERE allen_during(s.lower, s.upper, q.lower, q.upper)", nil)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	d := db.Metrics().Sub(before)
	if d.Counter("sql.join.merge") != 1 {
		t.Fatalf("sql.join.merge delta = %d", d.Counter("sql.join.merge"))
	}
	if d.Counter("sql.join_sweep.pairs") <= 0 {
		t.Fatalf("sql.join_sweep.pairs delta = %d", d.Counter("sql.join_sweep.pairs"))
	}
	if h, ok := db.Metrics().Histograms["sql.latency.join"]; !ok || h.Count == 0 {
		t.Fatalf("sql.latency.join histogram missing or empty: %+v", h)
	}
}

func TestMergeJoinSnapshotCursorUnderWrites(t *testing.T) {
	// A streaming merge-join cursor over HINT's snapshot ordered scans
	// must not see rows committed after Query, and concurrent inserts
	// must not corrupt the sweep.
	db, _, rhs := mergeJoinDB(t, AccessMethodHINT, 80)
	rows, err := db.Query(context.Background(),
		"SELECT s.id, q.id FROM lhs q, rhs s WHERE intersects(s.lower, s.upper, q.lower, q.upper) ORDER BY 1, 2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	// Intersects everything; must stay invisible to the open cursor.
	if err := rhs.Insert(NewInterval(0, 1000), 424242); err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		if rows.Row()[0] == 424242 {
			t.Fatal("cursor saw a row committed after Query")
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	// A fresh statement sees it.
	r, err := db.Exec("SELECT count(*) FROM rhs WHERE id = 424242", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0] != 1 {
		t.Fatalf("new row invisible to a fresh statement: %v", r.Rows)
	}
}

func TestMergeJoinGroupByTopKEndToEnd(t *testing.T) {
	// The new sinks compose over the merge join through the public API:
	// per-subject intersection counts, top-k by count.
	db, _, _ := mergeJoinDB(t, AccessMethodHINT, 60)
	r, err := db.Exec("SELECT s.id, count(*) c FROM lhs q, rhs s "+
		"WHERE intersects(s.lower, s.upper, q.lower, q.upper) GROUP BY s.id ORDER BY c DESC, 1 LIMIT 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("top-5 groups = %d rows", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i][1] > r.Rows[i-1][1] {
			t.Fatalf("counts not descending: %v", r.Rows)
		}
	}
	plan, err := db.Exec(fmt.Sprintf("EXPLAIN SELECT s.id, count(*) c FROM lhs q, rhs s "+
		"WHERE intersects(s.lower, s.upper, q.lower, q.upper) GROUP BY s.id ORDER BY c DESC LIMIT %d", 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SORT TOP-K 5", "HASH GROUP BY", "INTERVAL MERGE JOIN (INTERSECTS)"} {
		if !strings.Contains(plan.Plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan.Plan)
		}
	}
}
