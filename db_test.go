package ritree

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// testMethods are the built-in access methods every DB registers; the
// unified-API tests run the same assertions over each.
var testMethods = []string{AccessMethodRITree, AccessMethodHINT, AccessMethodHINTSharded}

// openMemoryDB opens an in-memory DB that closes with the test.
func openMemoryDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db, err := OpenMemory(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestDBCollectionsQuickPath(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.AccessMethods(); !slices.Contains(got, "ritree") || !slices.Contains(got, "hint") || !slices.Contains(got, "hint_sharded") {
		t.Fatalf("AccessMethods = %v", got)
	}
	for _, method := range testMethods {
		c, err := db.CreateCollection("c_"+method, AccessMethod(method))
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if c.Method() != method {
			t.Fatalf("Method = %q, want %q", c.Method(), method)
		}
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
		if want := []int64{1, 2, 3}; !slices.Equal(ids, want) {
			t.Fatalf("%s: Intersecting = %v, want %v", method, ids, want)
		}
		if ids, _ := c.Stab(30); !slices.Equal(ids, []int64{2}) {
			t.Fatalf("%s: Stab = %v", method, ids)
		}
		if n, _ := c.CountIntersecting(NewInterval(0, 100)); n != 3 {
			t.Fatalf("%s: CountIntersecting = %d", method, n)
		}
		ok, err := c.Delete(NewInterval(10, 20), 1)
		if err != nil || !ok {
			t.Fatalf("%s: Delete = %v, %v", method, ok, err)
		}
		if ok, _ := c.Delete(NewInterval(10, 20), 1); ok {
			t.Fatalf("%s: second Delete reported existing", method)
		}
		if c.Count() != 2 {
			t.Fatalf("%s: Count = %d", method, c.Count())
		}
		if !strings.Contains(c.String(), method) {
			t.Fatalf("String = %s", c)
		}
	}
	infos := db.Collections()
	if len(infos) != len(testMethods) {
		t.Fatalf("Collections = %v", infos)
	}
}

func TestDBCollectionsMatchBruteForceAllMethods(t *testing.T) {
	// The baseline crosscheck matrix, run through the Collection API for
	// every registered access method:
	// intersections, stabs and all thirteen Allen relations against a
	// brute-force reference.
	const n = 1500
	rng := rand.New(rand.NewSource(99))
	ivs := make([]Interval, n)
	ids := make([]int64, n)
	for i := range ivs {
		lo := rng.Int63n(1 << 18)
		ivs[i] = NewInterval(lo, lo+rng.Int63n(3000))
		ids[i] = int64(i)
	}
	brute := func(pred func(iv Interval) bool) []int64 {
		var out []int64
		for i, iv := range ivs {
			if pred(iv) {
				out = append(out, ids[i])
			}
		}
		return out
	}

	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, method := range testMethods {
		c, err := db.CreateCollection("x_"+method, AccessMethod(method))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.BulkLoad(ivs, ids); err != nil {
			t.Fatalf("%s: BulkLoad: %v", method, err)
		}
		if c.Count() != n {
			t.Fatalf("%s: Count = %d", method, c.Count())
		}
		var qs []Interval
		for i := 0; i < 40; i++ {
			lo := rng.Int63n(1 << 18)
			qs = append(qs, NewInterval(lo, lo+rng.Int63n(8000)))
		}
		qs = append(qs, Point(12345), NewInterval(0, 1<<19))
		for _, q := range qs {
			got, err := c.Intersecting(q)
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			want := brute(func(iv Interval) bool { return iv.Intersects(q) })
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Intersecting(%v) = %d ids, want %d", method, q, len(got), len(want))
			}
		}
		q := NewInterval(100000, 108000)
		for r := Before; r <= After; r++ {
			got, err := c.Query(r, q)
			if err != nil {
				t.Fatalf("%s/%v: %v", method, r, err)
			}
			want := brute(func(iv Interval) bool { return r.Holds(iv, q) })
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Query(%v, %v) = %d ids, want %d", method, r, q, len(got), len(want))
			}
		}
	}
}

func TestDBReopenServesAllCollections(t *testing.T) {
	// Acceptance: a DB with two collections on different access methods
	// survives close-and-reopen — ritree reopens its persisted relations,
	// hint adopts its snapshot or rebuilds from the heap — and both keep
	// answering and accepting DML.
	dir := t.TempDir()
	path := filepath.Join(dir, "multi.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := db.CreateCollection("flights", AccessMethod(AccessMethodRITree))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := db.CreateCollection("sessions", AccessMethod(AccessMethodHINT))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ {
		if err := disk.Insert(NewInterval(i*10, i*10+50), i); err != nil {
			t.Fatal(err)
		}
		if err := mem.Insert(NewInterval(i*7, i*7+30), i); err != nil {
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
	infos := db2.Collections()
	if len(infos) != 2 || infos[0].Name != "flights" || infos[0].Method != "ritree" ||
		infos[1].Name != "sessions" || infos[1].Method != "hint" {
		t.Fatalf("Collections after reopen = %v", infos)
	}
	disk2, err := db2.Collection("flights")
	if err != nil {
		t.Fatal(err)
	}
	mem2, err := db2.Collection("sessions")
	if err != nil {
		t.Fatal(err)
	}
	if disk2.Count() != 300 || mem2.Count() != 300 {
		t.Fatalf("counts after reopen: %d, %d", disk2.Count(), mem2.Count())
	}
	a, err := disk2.Intersecting(NewInterval(100, 130))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("ritree collection empty after reopen")
	}
	b, err := mem2.Intersecting(NewInterval(100, 130))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("hint collection empty after reopen")
	}
	// Still writable with index maintenance on both.
	if err := disk2.Insert(NewInterval(105, 106), 9999); err != nil {
		t.Fatal(err)
	}
	if err := mem2.Insert(NewInterval(105, 106), 9999); err != nil {
		t.Fatal(err)
	}
	a2, _ := disk2.Intersecting(NewInterval(100, 130))
	b2, _ := mem2.Intersecting(NewInterval(100, 130))
	if len(a2) != len(a)+1 || len(b2) != len(b)+1 {
		t.Fatalf("post-reopen inserts not served: %d->%d, %d->%d", len(a), len(a2), len(b), len(b2))
	}
}

func TestDBScanEarlyBreakAndCancel(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, method := range testMethods {
		c, err := db.CreateCollection("s_"+method, AccessMethod(method))
		if err != nil {
			t.Fatal(err)
		}
		ivs := make([]Interval, 500)
		ids := make([]int64, 500)
		for i := range ivs {
			ivs[i] = NewInterval(int64(i), int64(i)+100)
			ids[i] = int64(i)
		}
		if err := c.BulkLoad(ivs, ids); err != nil {
			t.Fatal(err)
		}

		// Full drain matches the slice form.
		var got []int64
		for id, err := range c.Scan(context.Background(), Intersects(NewInterval(0, 1000))) {
			if err != nil {
				t.Fatalf("%s: scan error: %v", method, err)
			}
			got = append(got, id)
		}
		slices.Sort(got)
		want, _ := c.Intersecting(NewInterval(0, 1000))
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Scan drained %d ids, Intersecting %d", method, len(got), len(want))
		}

		// Early break stops the scan and releases the read lock: a mutation
		// afterwards must not deadlock.
		seen := 0
		for _, err := range c.Scan(context.Background(), Intersects(NewInterval(0, 1000))) {
			if err != nil {
				t.Fatal(err)
			}
			if seen++; seen == 3 {
				break
			}
		}
		if seen != 3 {
			t.Fatalf("%s: early break saw %d", method, seen)
		}
		if err := c.Insert(NewInterval(1, 2), 10001); err != nil {
			t.Fatalf("%s: insert after early break: %v", method, err)
		}

		// A cancelled context surfaces context.Canceled as the final error.
		ctx, cancel := context.WithCancel(context.Background())
		seen = 0
		var scanErr error
		for _, err := range c.Scan(ctx, Intersects(NewInterval(0, 1000))) {
			if err != nil {
				scanErr = err
				continue
			}
			if seen++; seen == 5 {
				cancel()
			}
		}
		cancel()
		if !errors.Is(scanErr, context.Canceled) {
			t.Fatalf("%s: scan after cancel returned %v, want context.Canceled", method, scanErr)
		}
		if seen > 6 {
			t.Fatalf("%s: scan kept yielding after cancel (%d)", method, seen)
		}

		// Relation and stabbing queries stream too.
		var during []int64
		for id, err := range c.Scan(context.Background(), Related(During, NewInterval(-10, 700))) {
			if err != nil {
				t.Fatal(err)
			}
			during = append(during, id)
		}
		slices.Sort(during)
		wantDuring, _ := c.Query(During, NewInterval(-10, 700))
		if !slices.Equal(during, wantDuring) {
			t.Fatalf("%s: Related scan = %d, Query = %d", method, len(during), len(wantDuring))
		}
		if ids, err := c.Query(Equals, NewInterval(7, 107)); err != nil || !slices.Equal(ids, []int64{7}) {
			t.Fatalf("%s: Query(Equals) = %v, %v", method, ids, err)
		}
		var stab []int64
		for id, err := range c.Scan(context.Background(), Stabbing(250)) {
			if err != nil {
				t.Fatal(err)
			}
			stab = append(stab, id)
		}
		slices.Sort(stab)
		wantStab, _ := c.Stab(250)
		if !slices.Equal(stab, wantStab) {
			t.Fatalf("%s: Stabbing scan = %v, Stab = %v", method, stab, wantStab)
		}

		// Zero Query reports a usable error.
		var zeroErr error
		for _, err := range c.Scan(context.Background(), Query{}) {
			zeroErr = err
		}
		if zeroErr == nil {
			t.Fatalf("%s: zero Query did not error", method)
		}
	}
}

func TestCollectionNowRelative(t *testing.T) {
	db, _ := OpenMemory()
	defer db.Close()
	c, err := db.CreateCollection("emp") // default method: ritree
	if err != nil {
		t.Fatal(err)
	}
	if c.Method() != "ritree" {
		t.Fatalf("default method = %q", c.Method())
	}
	if err := c.Insert(NewInterval(5, 10), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertInfinite(8, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertNow(9, 3); err != nil {
		t.Fatal(err)
	}
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
	// Deleting a now-relative row works through the heap fallback.
	if ok, err := c.Delete(Interval{Lower: 9, Upper: NowMarker}, 3); err != nil || !ok {
		t.Fatalf("delete now-row = %v, %v", ok, err)
	}

	// A hint-backed collection rejects now-relative rows and has no clock.
	h, err := db.CreateCollection("hcol", AccessMethod(AccessMethodHINT))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.InsertNow(3, 1); err == nil {
		t.Fatal("hint collection accepted a now-relative interval")
	}
	if err := h.SetNow(5); err == nil {
		t.Fatal("hint collection accepted SetNow")
	}
	if _, ok := h.Now(); ok {
		t.Fatal("hint collection reported a clock")
	}
}

func TestDBCollectionErrors(t *testing.T) {
	db, _ := OpenMemory()
	defer db.Close()
	if _, err := db.CreateCollection("bad name"); err == nil {
		t.Fatal("invalid identifier accepted")
	}
	if _, err := db.CreateCollection("c1", AccessMethod("btree9000")); err == nil {
		t.Fatal("unknown access method accepted")
	}
	if _, err := db.Collection("missing"); err == nil {
		t.Fatal("missing collection resolved")
	}
	if _, err := db.CreateCollection("c2"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateCollection("c2"); err == nil {
		t.Fatal("duplicate collection accepted")
	}
	if err := db.DropCollection("c2"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropCollection("c2"); err == nil {
		t.Fatal("double drop accepted")
	}
	// The name is reusable after a drop, on a different method.
	if _, err := db.CreateCollection("c2", AccessMethod(AccessMethodHINT)); err != nil {
		t.Fatal(err)
	}
}

func TestDBExecSQLOverCollections(t *testing.T) {
	// Collections are first-class in the SQL dialect: CREATE COLLECTION /
	// DROP COLLECTION statements, ordinary SELECT/INSERT/DELETE over the
	// base relation, and operators served by the access method.
	db, _ := OpenMemory()
	defer db.Close()
	if _, err := db.Exec("CREATE COLLECTION resv USING hint", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO resv VALUES (10, 20, 1)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO resv VALUES (15, 30, 2)", nil); err != nil {
		t.Fatal(err)
	}
	r, err := db.Exec("SELECT id FROM resv WHERE intersects(lower, upper, 18, 19) ORDER BY id", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][0] != 1 || r.Rows[1][0] != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	plan, err := db.Exec("EXPLAIN SELECT id FROM resv WHERE intersects(lower, upper, 18, 19)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Plan, "DOMAIN INDEX") {
		t.Fatalf("operator not served by the access method:\n%s", plan.Plan)
	}
	// The handle API sees SQL-inserted rows.
	c, err := db.Collection("resv")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := c.CountIntersecting(NewInterval(0, 100)); n != 2 {
		t.Fatalf("count = %d", n)
	}
	if _, err := db.Exec("DROP COLLECTION resv", nil); err != nil {
		t.Fatal(err)
	}
	if infos := db.Collections(); len(infos) != 0 {
		t.Fatalf("collections after SQL drop = %v", infos)
	}
	if _, err := db.Exec("DROP COLLECTION resv", nil); err == nil {
		t.Fatal("dropping a missing collection via SQL succeeded")
	}
}

func TestDBConcurrentCollectionReadersAndWriters(t *testing.T) {
	db, _ := OpenMemory()
	defer db.Close()
	c, err := db.CreateCollection("conc", AccessMethod(AccessMethodHINTSharded))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if err := c.Insert(NewInterval(i*10, i*10+50), i); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				lo := rng.Int63n(2000)
				if _, err := c.Intersecting(NewInterval(lo, lo+100)); err != nil {
					errs <- err
					return
				}
				for _, err := range c.Scan(context.Background(), Stabbing(lo)) {
					if err != nil {
						errs <- err
						return
					}
					break // early break under concurrency must stay safe
				}
			}
		}(int64(r))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := int64(0); i < 100; i++ {
				lo := rng.Int63n(2000)
				id := 10000 + seed*1000 + i
				if err := c.Insert(NewInterval(lo, lo+20), id); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					if _, err := c.Delete(NewInterval(lo, lo+20), id); err != nil {
						errs <- err
						return
					}
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
	if _, err := c.Intersecting(NewInterval(0, 5000)); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionBulkLoadFailureRollsBack(t *testing.T) {
	// A refused bulk batch must leave heap and index consistent — and the
	// database reopenable. (A hint row with a start outside ±2^59 is
	// refused by the access method, not by the generic checks.)
	dir := t.TempDir()
	path := filepath.Join(dir, "bulk.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("h", AccessMethod(AccessMethodHINT))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(NewInterval(1, 5), 1); err != nil {
		t.Fatal(err)
	}
	bad := int64(1) << 60
	err = c.BulkLoad([]Interval{NewInterval(2, 3), NewInterval(bad, bad+1)}, []int64{2, 3})
	if err == nil {
		t.Fatal("out-of-range bulk batch accepted")
	}
	if c.Count() != 1 {
		t.Fatalf("Count after failed bulk = %d, want 1 (rolled back)", c.Count())
	}
	ids, err := c.Intersecting(NewInterval(0, 10))
	if err != nil || !slices.Equal(ids, []int64{1}) {
		t.Fatalf("post-rollback query = %v, %v", ids, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatalf("database unopenable after failed bulk load: %v", err)
	}
	defer db2.Close()
	c2, err := db2.Collection("h")
	if err != nil {
		t.Fatal(err)
	}
	if ids, _ := c2.Intersecting(NewInterval(0, 10)); !slices.Equal(ids, []int64{1}) {
		t.Fatalf("reopened query = %v", ids)
	}
}

func TestCollectionHandleInvalidatedBySQLDrop(t *testing.T) {
	// Dropping and recreating a collection through SQL must not leave
	// db.Collection serving the old handle (queries would run through the
	// dropped index while inserts hit the new table).
	db, _ := OpenMemory()
	defer db.Close()
	if _, err := db.CreateCollection("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Collection("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DROP COLLECTION a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Collection("a"); err == nil {
		t.Fatal("stale handle served after SQL DROP COLLECTION")
	}
	if _, err := db.Exec("CREATE COLLECTION a USING hint", nil); err != nil {
		t.Fatal(err)
	}
	c, err := db.Collection("a")
	if err != nil {
		t.Fatal(err)
	}
	if c.Method() != "hint" {
		t.Fatalf("recreated collection method = %q, want hint", c.Method())
	}
	if err := c.Insert(NewInterval(1, 2), 9); err != nil {
		t.Fatal(err)
	}
	if ids, _ := c.Intersecting(NewInterval(0, 5)); !slices.Equal(ids, []int64{9}) {
		t.Fatalf("recreated collection query = %v", ids)
	}
}

// TestCollectionHandleFollowsName pins that a Collection is a handle to a
// name: after DROP and CREATE COLLECTION every call of an old handle
// reaches the new collection, and while no collection has the name its
// reads and deletes fail instead of answering empty.
func TestCollectionHandleFollowsName(t *testing.T) {
	for _, m := range []string{AccessMethodRITree, AccessMethodHINT} {
		t.Run(m, func(t *testing.T) {
			db := openMemoryDB(t)
			old, err := db.CreateCollection("c", AccessMethod(m))
			if err != nil {
				t.Fatal(err)
			}
			if err := old.Insert(NewInterval(1, 5), 1); err != nil {
				t.Fatal(err)
			}
			for _, sql := range []string{"DROP COLLECTION c", "CREATE COLLECTION c USING " + m} {
				if _, err := db.Exec(sql, nil); err != nil {
					t.Fatal(err)
				}
			}
			iv, q := NewInterval(10, 20), NewInterval(0, 100)
			if err := old.Insert(iv, 2); err != nil {
				t.Fatal(err)
			}
			if ids, err := old.Intersecting(q); err != nil || !slices.Equal(ids, []int64{2}) {
				t.Fatalf("Intersecting = %v, %v; want [2]", ids, err)
			}
			if n, err := old.CountIntersecting(q); err != nil || n != 1 {
				t.Fatalf("CountIntersecting = %d, %v; want 1", n, err)
			}
			if n := old.Count(); n != 1 {
				t.Fatalf("Count = %d, want 1", n)
			}
			if ok, err := old.Delete(iv, 2); err != nil || !ok {
				t.Fatalf("Delete = %v, %v; want true", ok, err)
			}
			if n := old.Count(); n != 0 {
				t.Fatalf("Count after Delete = %d, want 0", n)
			}
			if err := old.Insert(iv, 3); err != nil {
				t.Fatal(err)
			}
			if err := db.DropCollection("c"); err != nil {
				t.Fatal(err)
			}
			if err := old.IntersectingFunc(q, func(int64) bool { return true }); err == nil {
				t.Fatal("IntersectingFunc on a dropped collection returned no error")
			}
			if n, err := old.CountIntersecting(q); err == nil {
				t.Fatalf("CountIntersecting on a dropped collection = %d with no error", n)
			}
			if ok, err := old.Delete(iv, 3); err == nil {
				t.Fatalf("Delete on a dropped collection = %v with no error", ok)
			}
		})
	}
}

// TestCollectionMethodFollowsName pins that Method, like every other call
// of a handle, answers for the collection that has the name now: after
// DROP and CREATE COLLECTION ... USING hint an old ritree handle reports
// hint, and while no collection has the name it reports "".
func TestCollectionMethodFollowsName(t *testing.T) {
	db := openMemoryDB(t)
	old, err := db.CreateCollection("c", AccessMethod(AccessMethodRITree))
	if err != nil {
		t.Fatal(err)
	}
	if m := old.Method(); m != AccessMethodRITree {
		t.Fatalf("Method = %q, want %q", m, AccessMethodRITree)
	}
	for _, sql := range []string{"DROP COLLECTION c", "CREATE COLLECTION c USING " + AccessMethodHINT} {
		if _, err := db.Exec(sql, nil); err != nil {
			t.Fatal(err)
		}
	}
	if m := old.Method(); m != AccessMethodHINT {
		t.Fatalf("Method after re-creation = %q, want %q", m, AccessMethodHINT)
	}
	if s := old.String(); !strings.Contains(s, "method="+AccessMethodHINT) {
		t.Fatalf("String after re-creation = %q, want method=%s", s, AccessMethodHINT)
	}
	if err := db.DropCollection("c"); err != nil {
		t.Fatal(err)
	}
	if m := old.Method(); m != "" {
		t.Fatalf("Method of a dropped collection = %q, want \"\"", m)
	}
}

func TestCollectionFarTailQueriesUniform(t *testing.T) {
	// Queries whose generating region starts beyond ±2^59 must answer
	// (not error) on every access method, and agree.
	db, _ := OpenMemory()
	defer db.Close()
	for _, method := range testMethods {
		c, err := db.CreateCollection("far_"+method, AccessMethod(method))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(NewInterval(10, 20), 1); err != nil {
			t.Fatal(err)
		}
		if err := c.InsertInfinite(30, 2); err != nil {
			t.Fatal(err)
		}
		// After needs i.Lower > 2^60; no admissible row qualifies, so the
		// call must return empty — not error — on every method.
		ids, err := c.Query(After, NewInterval(0, int64(1)<<60))
		if err != nil {
			t.Fatalf("%s: far-tail After errored: %v", method, err)
		}
		if len(ids) != 0 {
			t.Fatalf("%s: far-tail After = %v", method, ids)
		}
		// A far-tail intersection finds exactly the infinite interval.
		ids, err = c.Intersecting(NewInterval(int64(1)<<60, int64(1)<<60+5))
		if err != nil {
			t.Fatalf("%s: far-tail Intersecting errored: %v", method, err)
		}
		if !slices.Equal(ids, []int64{2}) {
			t.Fatalf("%s: far-tail Intersecting = %v, want [2]", method, ids)
		}
	}
}

func TestCollectionChunkedBulkLoad(t *testing.T) {
	// Chunked bulk loads must keep answering correctly on every method
	// (and, for hint, without a full rebuild per chunk).
	db, _ := OpenMemory()
	defer db.Close()
	for _, method := range testMethods {
		c, err := db.CreateCollection("chunk_"+method, AccessMethod(method))
		if err != nil {
			t.Fatal(err)
		}
		var all []int64
		for chunk := int64(0); chunk < 5; chunk++ {
			ivs := make([]Interval, 200)
			ids := make([]int64, 200)
			for i := range ivs {
				id := chunk*200 + int64(i)
				ivs[i] = NewInterval(id*3, id*3+50)
				ids[i] = id
				all = append(all, id)
			}
			if err := c.BulkLoad(ivs, ids); err != nil {
				t.Fatalf("%s chunk %d: %v", method, chunk, err)
			}
		}
		if c.Count() != 1000 {
			t.Fatalf("%s: Count = %d", method, c.Count())
		}
		ids, err := c.Intersecting(NewInterval(0, 5000))
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, id := range all {
			if id*3 <= 5000 {
				want = append(want, id)
			}
		}
		slices.Sort(want)
		if !slices.Equal(ids, want) {
			t.Fatalf("%s: chunked load query %d ids, want %d", method, len(ids), len(want))
		}
	}
}

func TestScanCancelSurfacesOnMatchlessScan(t *testing.T) {
	// A cancelled context must surface as the iterator's final error even
	// when the query matches nothing (there is no yielded id to check at).
	db, _ := OpenMemory()
	defer db.Close()
	c, err := db.CreateCollection("empty", AccessMethod(AccessMethodHINT))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(NewInterval(1000, 2000), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var got error
	n := 0
	for _, err := range c.Scan(ctx, Intersects(NewInterval(1, 2))) { // no matches
		n++
		got = err
	}
	if n != 1 || !errors.Is(got, context.Canceled) {
		t.Fatalf("matchless cancelled scan yielded %d pairs, err %v; want 1 pair with context.Canceled", n, got)
	}
}
