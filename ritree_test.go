package ritree

import (
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ritree/internal/rel"
	"ritree/internal/sqldb"
)

// newRITreeCollection opens an in-memory DB with one ritree collection
// named "iv"; the DB closes with the test.
func newRITreeCollection(t *testing.T, opts ...Option) (*DB, *Collection) {
	t.Helper()
	db := openMemoryDB(t, opts...)
	c, err := db.CreateCollection("iv", AccessMethod(AccessMethodRITree))
	if err != nil {
		t.Fatal(err)
	}
	return db, c
}

func TestPublicAPIQuickPath(t *testing.T) {
	_, c := newRITreeCollection(t)
	if err := c.Insert(NewInterval(10, 20), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(NewInterval(15, 40), 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(Point(17), 3); err != nil {
		t.Fatal(err)
	}
	ids, err := c.Intersecting(NewInterval(16, 18))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	ids, _ = c.Stab(30)
	if len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("Stab = %v", ids)
	}
	n, _ := c.CountIntersecting(NewInterval(0, 100))
	if n != 3 {
		t.Fatalf("Count = %d", n)
	}
	ok, err := c.Delete(NewInterval(10, 20), 1)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if c.Count() != 2 {
		t.Fatalf("Count = %d", c.Count())
	}
	if !strings.Contains(c.String(), "n=2") {
		t.Fatalf("String = %s", c.String())
	}
}

func TestPublicAllenQueries(t *testing.T) {
	_, c := newRITreeCollection(t)
	c.Insert(NewInterval(0, 10), 1)
	c.Insert(NewInterval(10, 20), 2)
	c.Insert(NewInterval(20, 30), 3)
	c.Insert(NewInterval(5, 25), 4)

	q := NewInterval(10, 20)
	cases := []struct {
		r    Relation
		want []int64
	}{
		{Equals, []int64{2}},
		{Meets, []int64{1}},
		{MetBy, []int64{3}},
		{Contains, []int64{4}},
	}
	for _, tc := range cases {
		got, err := c.Query(tc.r, q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, tc.want) {
			t.Fatalf("%v: got %v, want %v", tc.r, got, tc.want)
		}
	}
	if ClassifyRelation(NewInterval(0, 10), q) != Meets {
		t.Fatal("ClassifyRelation wrong")
	}
}

func TestPublicTemporal(t *testing.T) {
	_, c := newRITreeCollection(t)
	c.Insert(NewInterval(5, 10), 1)
	c.InsertInfinite(8, 2)
	c.InsertNow(9, 3)
	if err := c.SetNow(12); err != nil {
		t.Fatal(err)
	}
	ids, _ := c.Intersecting(NewInterval(11, 100))
	if !slices.Equal(ids, []int64{2, 3}) {
		t.Fatalf("ids = %v", ids)
	}
	if err := c.SetNow(8); err != nil {
		t.Fatal(err)
	}
	ids, _ = c.Intersecting(NewInterval(11, 100))
	if !slices.Equal(ids, []int64{2}) {
		t.Fatalf("ids = %v", ids)
	}
	if now, ok := c.Now(); !ok || now != 8 {
		t.Fatalf("Now = %d, %v", now, ok)
	}
}

func TestPublicPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "iv.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("iv")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		if err := c.Insert(NewInterval(i*10, i*10+100), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2, err := db2.Collection("iv")
	if err != nil {
		t.Fatal(err)
	}
	if c2.Count() != 500 {
		t.Fatalf("reopened Count = %d", c2.Count())
	}
	ids, err := c2.Intersecting(NewInterval(1000, 1005))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("no results after reopen")
	}
	// Still writable.
	if err := c2.Insert(NewInterval(1, 2), 9999); err != nil {
		t.Fatal(err)
	}
}

func TestOpenReattachesDomainIndexes(t *testing.T) {
	// Domain indexes created through Exec persist their definitions in the
	// catalog; Open on an existing file re-attaches them, so post-reopen
	// DML through Exec keeps them maintained.
	path := filepath.Join(t.TempDir(), "iv.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec := func(db *DB, sql string) *Result {
		t.Helper()
		r, err := db.Exec(sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return r
	}
	mustExec(db, "CREATE TABLE ev (lo int, hi int, id int)")
	mustExec(db, "CREATE INDEX ev_rit ON ev (lo, hi) INDEXTYPE IS ritree")
	mustExec(db, "CREATE INDEX ev_mm ON ev (lo, hi) INDEXTYPE IS hint")
	mustExec(db, "INSERT INTO ev VALUES (10, 20, 1)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	mustExec(db2, "INSERT INTO ev VALUES (15, 30, 2)")
	r := mustExec(db2, "SELECT id FROM ev WHERE intersects(lo, hi, 18, 19) ORDER BY id")
	if len(r.Rows) != 2 || r.Rows[0][0] != 1 || r.Rows[1][0] != 2 {
		t.Fatalf("post-reopen domain query rows = %v", r.Rows)
	}
	plan := mustExec(db2, "EXPLAIN SELECT id FROM ev WHERE intersects(lo, hi, 18, 19)")
	if !strings.Contains(plan.Plan, "DOMAIN INDEX") {
		t.Fatalf("operator not served by a re-attached domain index:\n%s", plan.Plan)
	}
}

func TestPublicSQLSurface(t *testing.T) {
	db, c := newRITreeCollection(t)
	c.Insert(NewInterval(100, 200), 7)
	// The collection's base relation is plain SQL-visible.
	r, err := db.Exec("SELECT lower, upper, id FROM iv WHERE id = 7", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0] != 100 || r.Rows[0][1] != 200 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// The Figure 9 statement over the collection's RI-tree relations runs
	// through the same engine; its ids are the base relation's row ids.
	tree := backingTree(t, db, "iv")
	q := NewInterval(150, 160)
	res, err := db.Exec(tree.IntersectionSQL(), tree.IntersectionBinds(q))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("Figure 9 rows = %v", res.Rows)
	}
	row := make([]int64, 3)
	err = db.eng.ReadCollection(c.Name(), func(_ sqldb.Reader, tab *rel.Table) error {
		return tab.GetRawInto(rel.RowID(res.Rows[0][0]), row)
	})
	if err != nil || row[2] != 7 {
		t.Fatalf("Figure 9 row id %d resolves to %v, %v; want id 7", res.Rows[0][0], row, err)
	}
	plan, err := tree.ExplainIntersection(db.eng, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "UNION-ALL") || !strings.Contains(plan, "INDEX RANGE SCAN") {
		t.Fatalf("plan = %s", plan)
	}
}

func TestPublicBulkLoadAndStats(t *testing.T) {
	db, c := newRITreeCollection(t, WithPageSize(2048), WithCacheSize(200))
	rng := rand.New(rand.NewSource(1))
	n := 20000
	ivs := make([]Interval, n)
	ids := make([]int64, n)
	for i := range ivs {
		lo := rng.Int63n(1 << 20)
		ivs[i] = NewInterval(lo, lo+rng.Int63n(2048))
		ids[i] = int64(i)
	}
	if err := c.BulkLoad(ivs, ids); err != nil {
		t.Fatal(err)
	}
	if c.Count() != int64(n) {
		t.Fatalf("Count = %d", c.Count())
	}
	if got := backingTree(t, db, "iv").IndexEntries(); got != int64(2*n) {
		t.Fatalf("IndexEntries = %d, want %d", got, 2*n)
	}
	db.ResetStats()
	q := NewInterval(500000, 505000)
	got, err := c.Intersecting(q)
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().PhysicalReads == 0 {
		t.Fatal("no physical reads counted")
	}
	// Sanity check against brute force.
	var want []int64
	for i, iv := range ivs {
		if iv.Intersects(q) {
			want = append(want, ids[i])
		}
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("got %d ids, want %d", len(got), len(want))
	}
}

func TestPublicConcurrentReadersAndWriters(t *testing.T) {
	_, c := newRITreeCollection(t)
	for i := int64(0); i < 200; i++ {
		c.Insert(NewInterval(i*10, i*10+50), i)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				lo := rng.Int63n(2000)
				if _, err := c.Intersecting(NewInterval(lo, lo+100)); err != nil {
					errs <- err
					return
				}
			}
		}(int64(r))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := int64(0); i < 300; i++ {
				lo := rng.Int63n(2000)
				if err := c.Insert(NewInterval(lo, lo+20), 10000+seed*1000+i); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					c.Delete(NewInterval(lo, lo+20), 10000+seed*1000+i)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// The index is still consistent.
	if _, err := c.Intersecting(NewInterval(0, 5000)); err != nil {
		t.Fatal(err)
	}
}

func TestPublicOptions(t *testing.T) {
	db, err := OpenMemory(WithPageSize(512), WithCacheSize(64), WithReadLatency(time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := db.CreateCollection("spans")
	if err != nil {
		t.Fatal(err)
	}
	c.Insert(NewInterval(1, 5), 1)
	if _, err := db.Exec("SELECT id FROM spans", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMemory(WithPageSize(1000)); err == nil {
		t.Fatal("non-power-of-two page size accepted")
	}
}
