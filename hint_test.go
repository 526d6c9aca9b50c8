package ritree

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestHINTPublicAPIQuickPath(t *testing.T) {
	db := openMemoryDB(t)
	c, err := db.CreateCollection("h", AccessMethod(AccessMethodHINT))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(NewInterval(10, 20), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(NewInterval(15, 40), 2); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertInfinite(30, 3); err != nil {
		t.Fatal(err)
	}
	ids, err := c.Intersecting(NewInterval(18, 19))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []int64{1, 2}) {
		t.Fatalf("ids = %v", ids)
	}
	ids, _ = c.Stab(35)
	if !slices.Equal(ids, []int64{2, 3}) {
		t.Fatalf("stab = %v", ids)
	}
	if n, _ := c.CountIntersecting(NewInterval(0, 1000)); n != 3 {
		t.Fatalf("count = %d", n)
	}
	ok, err := c.Delete(NewInterval(10, 20), 1)
	if err != nil || !ok {
		t.Fatalf("delete = %v, %v", ok, err)
	}
	if c.Count() != 2 {
		t.Fatalf("count = %d", c.Count())
	}
	if ix := backingSharded(t, db, "h"); ix.Count() != 2 || ix.Entries() < ix.Count() {
		t.Fatalf("backing index count = %d, entries = %d", ix.Count(), ix.Entries())
	}
}

func TestHINTMatchesRITreeIndex(t *testing.T) {
	// The two access methods must answer identically over the same
	// workload.
	db := openMemoryDB(t)
	rit, err := db.CreateCollection("rit", AccessMethod(AccessMethodRITree))
	if err != nil {
		t.Fatal(err)
	}
	hin, err := db.CreateCollection("hin", AccessMethod(AccessMethodHINT))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))
	for i := int64(0); i < 3000; i++ {
		lo := rng.Int63n(1 << 18)
		iv := NewInterval(lo, lo+rng.Int63n(4096))
		if err := rit.Insert(iv, i); err != nil {
			t.Fatal(err)
		}
		if err := hin.Insert(iv, i); err != nil {
			t.Fatal(err)
		}
	}
	for qi := 0; qi < 100; qi++ {
		lo := rng.Int63n(1 << 18)
		q := NewInterval(lo, lo+rng.Int63n(8192))
		if qi%7 == 0 {
			q = Point(lo)
		}
		a, err := rit.Intersecting(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hin.Intersecting(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, b) {
			t.Fatalf("query %v: RI-tree %d ids, HINT %d ids", q, len(a), len(b))
		}
	}
}

func TestHINTConcurrentUse(t *testing.T) {
	db := openMemoryDB(t)
	c, err := db.CreateCollection("conc", AccessMethod(AccessMethodHINTSharded),
		WithMethodParam("bits", "16"), WithMethodParam("levels", "8"), WithMethodParam("shards", "4"))
	if err != nil {
		t.Fatal(err)
	}
	if ix := backingSharded(t, db, "conc"); ix.Shards() != 4 || ix.Levels() != 8 {
		t.Fatalf("Shards = %d, Levels = %d", ix.Shards(), ix.Levels())
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				lo := rng.Int63n(1 << 16)
				hi := lo + rng.Int63n(512)
				if hi > 1<<16-1 {
					hi = 1<<16 - 1
				}
				id := int64(w*1000 + i)
				if err := c.Insert(NewInterval(lo, hi), id); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Intersecting(NewInterval(lo, hi)); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if _, err := c.Delete(NewInterval(lo, hi), id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	ids, err := c.Intersecting(NewInterval(0, 1<<16-1))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(ids)) != c.Count() {
		t.Fatalf("full-domain query %d ids, count %d", len(ids), c.Count())
	}
}

func TestHINTShardedAndOptimized(t *testing.T) {
	// The sharded method must answer exactly like the single-shard one,
	// before and after the backing index folds its overlay into the flat
	// layout, and a bulk load must leave every shard flat.
	db := openMemoryDB(t)
	one, err := db.CreateCollection("one", AccessMethod(AccessMethodHINT))
	if err != nil {
		t.Fatal(err)
	}
	many, err := db.CreateCollection("many", AccessMethod(AccessMethodHINTSharded), WithMethodParam("shards", "8"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	n := 4000
	ivs := make([]Interval, n)
	ids := make([]int64, n)
	for i := range ivs {
		lo := rng.Int63n(1 << 20)
		ivs[i] = NewInterval(lo, lo+rng.Int63n(4096))
		ids[i] = int64(i)
	}
	if err := one.BulkLoad(ivs, ids); err != nil {
		t.Fatal(err)
	}
	if err := many.BulkLoad(ivs, ids); err != nil {
		t.Fatal(err)
	}
	oneIx, manyIx := backingSharded(t, db, "one"), backingSharded(t, db, "many")
	if oneIx.OverlayEntries() != 0 || manyIx.OverlayEntries() != 0 {
		t.Fatalf("BulkLoad left overlay entries %d / %d", oneIx.OverlayEntries(), manyIx.OverlayEntries())
	}
	if oneIx.Count() != manyIx.Count() || oneIx.Entries() != manyIx.Entries() {
		t.Fatalf("count/entries diverge: %d/%d vs %d/%d",
			oneIx.Count(), oneIx.Entries(), manyIx.Count(), manyIx.Entries())
	}
	for qi := 0; qi < 200; qi++ {
		lo := rng.Int63n(1 << 20)
		q := NewInterval(lo, lo+rng.Int63n(8192))
		a, err := one.Intersecting(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := many.Intersecting(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, b) {
			t.Fatalf("query %v: 1-shard %d ids, 8-shard %d ids", q, len(a), len(b))
		}
	}
	// Incremental inserts land in the overlay; folding them in changes no
	// answer.
	for i := 0; i < 100; i++ {
		lo := rng.Int63n(1 << 20)
		iv := NewInterval(lo, lo+100)
		if err := many.Insert(iv, int64(n+i)); err != nil {
			t.Fatal(err)
		}
		if err := one.Insert(iv, int64(n+i)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := many.Intersecting(NewInterval(0, 1<<20-1))
	manyIx.Optimize()
	after, _ := many.Intersecting(NewInterval(0, 1<<20-1))
	if !slices.Equal(before, after) {
		t.Fatalf("Optimize changed results: %d vs %d", len(before), len(after))
	}
	if _, err := db.CreateCollection("neg", AccessMethod(AccessMethodHINTSharded), WithMethodParam("shards", "-3")); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

func TestHINTLevelsOption(t *testing.T) {
	db := openMemoryDB(t)
	if _, err := db.CreateCollection("eq", AccessMethod(AccessMethodHINT),
		WithMethodParam("bits", "12"), WithMethodParam("levels", "12")); err != nil {
		t.Fatal(err)
	}
	if got := backingSharded(t, db, "eq").Levels(); got != 12 {
		t.Fatalf("levels = %d, want 12 (levels == bits is a legal geometry)", got)
	}
	// The domain is sized to the data with bits as its floor, so a depth
	// beyond the domain width is clamped to it rather than refused.
	c, err := db.CreateCollection("deep", AccessMethod(AccessMethodHINT),
		WithMethodParam("bits", "4"), WithMethodParam("levels", "9"))
	if err != nil {
		t.Fatal(err)
	}
	if ix := backingSharded(t, db, "deep"); ix.Levels() > ix.Bits() {
		t.Fatalf("levels %d exceed the domain's %d bits", ix.Levels(), ix.Bits())
	}
	if err := c.Insert(NewInterval(3, 9), 1); err != nil {
		t.Fatal(err)
	}
	if ids, _ := c.Stab(5); !slices.Equal(ids, []int64{1}) {
		t.Fatalf("stab = %v", ids)
	}
	if _, err := db.CreateCollection("zero", AccessMethod(AccessMethodHINT), WithMethodParam("levels", "0")); err == nil {
		t.Fatal("levels = 0 accepted")
	}
}
