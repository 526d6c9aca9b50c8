package ritree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestHINTPublicAPIQuickPath(t *testing.T) {
	idx, err := NewHINT()
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(NewInterval(10, 20), 1); err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(NewInterval(15, 40), 2); err != nil {
		t.Fatal(err)
	}
	idx.InsertInfinite(30, 3)
	ids, err := idx.Intersecting(NewInterval(18, 19))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("ids = %v", ids)
	}
	ids, _ = idx.Stab(35)
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("stab = %v", ids)
	}
	if n, _ := idx.CountIntersecting(NewInterval(0, 1000)); n != 3 {
		t.Fatalf("count = %d", n)
	}
	ok, err := idx.Delete(NewInterval(10, 20), 1)
	if err != nil || !ok {
		t.Fatalf("delete = %v, %v", ok, err)
	}
	if idx.Count() != 2 {
		t.Fatalf("count = %d", idx.Count())
	}
	if idx.Entries() < idx.Count() || idx.Replicas() > idx.Entries() {
		t.Fatalf("entries = %d, replicas = %d", idx.Entries(), idx.Replicas())
	}
	if idx.String() == "" || idx.Levels() < 1 {
		t.Fatal("introspection broken")
	}
}

func TestHINTMatchesRITreeIndex(t *testing.T) {
	// The two top-level access methods must answer identically over the
	// same workload.
	rit, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer rit.Close()
	hin, err := NewHINT()
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
		if len(a) != len(b) {
			t.Fatalf("query %v: RI-tree %d ids, HINT %d ids", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %v: id %d: %d vs %d", q, i, a[i], b[i])
			}
		}
	}
}

func TestHINTConcurrentUse(t *testing.T) {
	idx, err := NewHINT(WithHINTBits(16), WithHINTLevels(8), WithHINTShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Shards() != 4 {
		t.Fatalf("Shards = %d", idx.Shards())
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
				if err := idx.Insert(NewInterval(lo, hi), id); err != nil {
					t.Error(err)
					return
				}
				if _, err := idx.Intersecting(NewInterval(lo, hi)); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if _, err := idx.Delete(NewInterval(lo, hi), id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	ids, err := idx.Intersecting(NewInterval(0, 1<<16-1))
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if int64(len(ids)) != idx.Count() {
		t.Fatalf("full-domain query %d ids, count %d", len(ids), idx.Count())
	}
}

func TestHINTShardedAndOptimized(t *testing.T) {
	// The sharded index must answer exactly like the single-shard one,
	// before and after Optimize, and BulkLoad must leave every shard in
	// the flat layout.
	one, err := NewHINT()
	if err != nil {
		t.Fatal(err)
	}
	many, err := NewHINT(WithHINTShards(8))
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
	if !one.Optimized() || !many.Optimized() {
		t.Fatalf("BulkLoad left optimized = %v / %v", one.Optimized(), many.Optimized())
	}
	if one.Count() != many.Count() || one.Entries() != many.Entries() {
		t.Fatalf("count/entries diverge: %d/%d vs %d/%d",
			one.Count(), one.Entries(), many.Count(), many.Entries())
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
		if len(a) != len(b) {
			t.Fatalf("query %v: 1-shard %d ids, 8-shard %d ids", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %v: id %d: %d vs %d", q, i, a[i], b[i])
			}
		}
	}
	// Incremental inserts land in the overlay; Optimize folds them in
	// without changing any answer.
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
	many.Optimize()
	after, _ := many.Intersecting(NewInterval(0, 1<<20-1))
	if len(before) != len(after) {
		t.Fatalf("Optimize changed results: %d vs %d", len(before), len(after))
	}
	if _, err := NewHINT(WithHINTShards(-3)); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

func TestHINTLevelsOption(t *testing.T) {
	idx, err := NewHINT(WithHINTBits(12), WithHINTLevels(12))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Levels() != 12 {
		t.Fatalf("levels = %d, want 12 (levels == bits is a legal geometry)", idx.Levels())
	}
	if _, err := NewHINT(WithHINTBits(4), WithHINTLevels(9)); err == nil {
		t.Fatal("levels > bits accepted")
	}
}
