package ritree

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ritree/internal/interval"
)

// sqlAllenOp returns the SQL operator name of r (ALLEN_FINISHED_BY etc.).
func sqlAllenOp(r Relation) string {
	return "allen_" + strings.ReplaceAll(r.String(), "-", "_")
}

// TestAllenSQLCrosscheckMatrix verifies the acceptance matrix: all
// thirteen ALLEN_* SQL operators return exactly the ids a brute-force
// filter over the inserted rows returns, on every built-in access method.
// hint_sharded runs with one shard and with seven, so its parallel
// fan-out must answer like a single shard. Two inputs: a tiny data space
// where shared endpoints (meets, starts, finishes, equals) occur often,
// and 800 random rows over [0, 575] probed by five queries, points and a
// query past the data included.
func TestAllenSQLCrosscheckMatrix(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	type input struct{ ivs, queries []Interval }
	rng := rand.New(rand.NewSource(7))
	var small input
	for i := 0; i < 300; i++ {
		lo := int64(rng.Intn(60))
		small.ivs = append(small.ivs, NewInterval(lo, lo+int64(rng.Intn(20))))
	}
	// Edge shapes: duplicates of the query intervals, points, containers.
	small.ivs = append(small.ivs, NewInterval(20, 30), NewInterval(20, 30), Point(25), NewInterval(0, 90), NewInterval(30, 42))
	small.queries = []Interval{NewInterval(20, 30), Point(25), NewInterval(0, 5), NewInterval(55, 90)}
	rng = rand.New(rand.NewSource(12))
	var wide input
	for i := 0; i < 800; i++ {
		lo := rng.Int63n(512)
		wide.ivs = append(wide.ivs, NewInterval(lo, lo+rng.Int63n(64)))
	}
	wide.queries = []Interval{NewInterval(100, 150), Point(0), Point(200), NewInterval(50, 400), NewInterval(511, 575)}

	methods := []struct {
		name string
		opts []CollectionOption
	}{
		{"ritree", []CollectionOption{AccessMethod(AccessMethodRITree)}},
		{"hint", []CollectionOption{AccessMethod(AccessMethodHINT)}},
		{"hint_sharded1", []CollectionOption{AccessMethod(AccessMethodHINTSharded), WithMethodParam("shards", "1")}},
		{"hint_sharded7", []CollectionOption{AccessMethod(AccessMethodHINTSharded), WithMethodParam("shards", "7")}},
	}
	for in, data := range []input{small, wide} {
		ids := make([]int64, len(data.ivs))
		for i := range ids {
			ids[i] = int64(i + 1)
		}
		for _, m := range methods {
			name := fmt.Sprintf("m%d_%s", in, m.name)
			c, err := db.CreateCollection(name, m.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.BulkLoad(data.ivs, ids); err != nil {
				t.Fatal(err)
			}
			for r := Relation(0); int(r) < interval.NumRelations; r++ {
				for _, q := range data.queries {
					var want []int64
					for i, iv := range data.ivs {
						if r.Holds(iv, q) {
							want = append(want, ids[i])
						}
					}
					sql := fmt.Sprintf("SELECT id FROM %s WHERE %s(lower, upper, :a, :b)", name, sqlAllenOp(r))
					rows, err := db.Query(context.Background(), sql,
						map[string]interface{}{"a": q.Lower, "b": q.Upper})
					if err != nil {
						t.Fatalf("%s %s: %v", name, sqlAllenOp(r), err)
					}
					var got []int64
					for rows.Next() {
						got = append(got, rows.Row()[0])
					}
					if err := rows.Err(); err != nil {
						t.Fatalf("%s %s: %v", name, sqlAllenOp(r), err)
					}
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: %s(%v) via SQL = %v, brute force %v", name, sqlAllenOp(r), q, got, want)
					}
				}
			}
			// The plan must route through the domain index's generating-region
			// scan, not a full table scan.
			plan, err := db.Exec(fmt.Sprintf(
				"EXPLAIN SELECT id FROM %s WHERE allen_during(lower, upper, 20, 30)", name), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan.Plan, "VIA INTERSECTS REGION") {
				t.Fatalf("%s: ALLEN plan is not index-served:\n%s", name, plan.Plan)
			}
		}
	}
}

// TestAllenSQLNowRelative checks that the SQL residual maps now-relative
// rows (§4.6) through the access method's clock like Collection.Query.
func TestAllenSQLNowRelative(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := db.CreateCollection("nowc") // ritree: the NowKeeper method
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InsertNow(10, 1); err != nil { // effective [10, now]
		t.Fatal(err)
	}
	if err := c.SetNow(30); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rel  Relation
		q    Interval
		want int
	}{
		{FinishedBy, NewInterval(20, 30), 1}, // [10,30] finished-by [20,30]
		{Before, NewInterval(40, 50), 1},
		{During, NewInterval(0, 100), 1},
	} {
		want, err := c.Query(tc.rel, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != tc.want {
			t.Fatalf("baseline %s = %v, want %d ids", tc.rel, want, tc.want)
		}
		r, err := db.Exec(fmt.Sprintf("SELECT id FROM nowc WHERE %s(lower, upper, %d, %d)",
			sqlAllenOp(tc.rel), tc.q.Lower, tc.q.Upper), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != tc.want {
			t.Fatalf("SQL %s over now-relative row = %v, want %d rows", tc.rel, r.Rows, tc.want)
		}
	}

	// Two Allen conjuncts: the first drives the index scan, the second
	// compiles to the residual fallback — which must resolve the
	// NowMarker through the same clock, or the answer would depend on
	// conjunct order. Effective row is [10, 30].
	r, err := db.Exec(
		"SELECT id FROM nowc WHERE allen_during(lower, upper, 0, 100) AND allen_finished_by(lower, upper, 20, 30)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0] != 1 {
		t.Fatalf("residual Allen conjunct over now-relative row = %v, want [[1]]", r.Rows)
	}
}

// TestStreamingLimitMillionRows is the acceptance check for O(k) LIMIT
// work: over a million-row collection, SELECT ... LIMIT k pulls only k
// leaf rows from the access-method scan.
func TestStreamingLimitMillionRows(t *testing.T) {
	if testing.Short() {
		t.Skip("million-row load in -short mode")
	}
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := db.CreateCollection("big", AccessMethod(AccessMethodHINT))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1_000_000
	ivs := make([]Interval, n)
	ids := make([]int64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range ivs {
		lo := int64(rng.Intn(1 << 20))
		ivs[i] = NewInterval(lo, lo+int64(rng.Intn(2000)))
		ids[i] = int64(i)
	}
	if err := c.BulkLoad(ivs, ids); err != nil {
		t.Fatal(err)
	}
	const k = 5
	rows, err := db.Query(context.Background(),
		fmt.Sprintf("SELECT id FROM big WHERE intersects(lower, upper, :a, :b) LIMIT %d", k),
		map[string]interface{}{"a": 1000, "b": 600000})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	got := 0
	for rows.Next() {
		got++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Fatalf("LIMIT %d returned %d rows", k, got)
	}
	if st := rows.Stats(); st.LeafRows > k {
		t.Fatalf("LIMIT %d over %d rows pulled %d leaf rows — the scan did not stop early", k, n, st.LeafRows)
	}
}

// TestDBQueryCancelReachesScan cancels a DB.Query mid-iteration and
// checks the cursor surfaces the context error and releases the lock.
func TestDBQueryCancelReachesScan(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := db.CreateCollection("spans", AccessMethod(AccessMethodHINT))
	if err != nil {
		t.Fatal(err)
	}
	var rows []IntervalRow
	for i := 0; i < 5000; i++ {
		rows = append(rows, IntervalRow{NewInterval(int64(i), int64(i+10)), int64(i)})
	}
	if err := c.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cur, err := db.Query(ctx, "SELECT id FROM spans WHERE intersects(lower, upper, 0, 100000)", nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for cur.Next() {
		seen++
		if seen == 3 {
			cancel()
		}
	}
	if cur.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", cur.Err())
	}
	if seen >= 5000 {
		t.Fatal("cursor drained the whole scan despite cancellation")
	}
	// Lock released: a write must succeed.
	if err := c.Insert(NewInterval(1, 2), 99999); err != nil {
		t.Fatal(err)
	}
}

// TestInsertMany checks the batched DML path against per-row inserts on
// every method, including validation refusing a bad batch atomically.
func TestInsertMany(t *testing.T) {
	for _, method := range []string{AccessMethodRITree, AccessMethodHINT, AccessMethodHINTSharded} {
		db, err := OpenMemory()
		if err != nil {
			t.Fatal(err)
		}
		c, err := db.CreateCollection("c", AccessMethod(method))
		if err != nil {
			t.Fatal(err)
		}
		var batch []IntervalRow
		for i := 0; i < 200; i++ {
			batch = append(batch, IntervalRow{NewInterval(int64(i), int64(i+5)), int64(i)})
		}
		if err := c.InsertMany(batch); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if got := c.Count(); got != 200 {
			t.Fatalf("%s: Count = %d", method, got)
		}
		ids, err := c.Intersecting(NewInterval(100, 101))
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 7 {
			t.Fatalf("%s: Intersecting after InsertMany = %v", method, ids)
		}
		// A batch with an invalid row is refused atomically.
		bad := []IntervalRow{{NewInterval(1, 2), 900}, {Interval{Lower: 9, Upper: 3}, 901}}
		if err := c.InsertMany(bad); err == nil {
			t.Fatalf("%s: invalid batch accepted", method)
		}
		if got := c.Count(); got != 200 {
			t.Fatalf("%s: Count after refused batch = %d, want 200", method, got)
		}
		db.Close()
	}
}
