package hint

// testing.B microbenchmarks for the HINT core, with allocation reporting
// so the perf claims of the optimized layout stay reproducible:
//
//	go test -bench . -benchmem ./internal/hint
//
// Query benchmarks cover the two storage forms the ribench hintopt
// ablation records at full scale — sorted subdivisions and the flat
// cache-conscious layout — plus the Levels == Bits geometry and the
// sharded concurrent read path.

import (
	"math/rand"
	"testing"

	"ritree/internal/interval"
)

const (
	benchN    = 100000
	benchDur  = 2000
	benchQLen = 5000
)

func benchWorkload(n int, max int64) ([]interval.Interval, []int64) {
	rng := rand.New(rand.NewSource(1))
	ivs := make([]interval.Interval, n)
	ids := make([]int64, n)
	for i := range ivs {
		lo := rng.Int63n(max + 1)
		hi := lo + rng.Int63n(2*benchDur)
		if hi > max {
			hi = max
		}
		ivs[i] = interval.New(lo, hi)
		ids[i] = int64(i)
	}
	return ivs, ids
}

func benchIndex(b *testing.B, opts Options, optimize bool) *Index {
	b.Helper()
	x, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	ivs, ids := benchWorkload(benchN, x.DomainMax())
	if optimize {
		if err := x.BulkLoad(ivs, ids); err != nil {
			b.Fatal(err)
		}
		return x
	}
	for i := range ivs {
		if err := x.Insert(ivs[i], ids[i]); err != nil {
			b.Fatal(err)
		}
	}
	return x
}

func benchQueries(x interface{ DomainMax() int64 }) []interval.Interval {
	rng := rand.New(rand.NewSource(2))
	max := x.DomainMax()
	qs := make([]interval.Interval, 512)
	for i := range qs {
		lo := rng.Int63n(max + 1)
		hi := lo + benchQLen
		if hi > max {
			hi = max
		}
		qs[i] = interval.New(lo, hi)
	}
	return qs
}

func runQueryBench(b *testing.B, x *Index) {
	b.Helper()
	qs := benchQueries(x)
	b.ReportAllocs()
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		n, err := x.CountIntersecting(qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	if total == 0 {
		b.Fatal("queries returned nothing")
	}
}

func BenchmarkQuerySorted(b *testing.B) {
	runQueryBench(b, benchIndex(b, Options{}, false))
}

func BenchmarkQueryFlat(b *testing.B) {
	runQueryBench(b, benchIndex(b, Options{}, true))
}

func BenchmarkQueryFlatLevelsEqualBits(b *testing.B) {
	runQueryBench(b, benchIndex(b, Options{Bits: 20, Levels: 20}, true))
}

func BenchmarkQuerySharded(b *testing.B) {
	s, err := NewSharded(Options{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	ivs, ids := benchWorkload(benchN, s.DomainMax())
	if err := s.BulkLoad(ivs, ids); err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(s)
	b.ReportAllocs()
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		n, err := s.CountIntersecting(qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	if total == 0 {
		b.Fatal("queries returned nothing")
	}
}

// BenchmarkQueryShardedParallel is the concurrent read path: GOMAXPROCS
// readers over an 8-shard index, the serving shape of the sharded
// design.
func BenchmarkQueryShardedParallel(b *testing.B) {
	s, err := NewSharded(Options{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	ivs, ids := benchWorkload(benchN, s.DomainMax())
	if err := s.BulkLoad(ivs, ids); err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(s)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := s.CountIntersecting(qs[i%len(qs)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

func BenchmarkInsert(b *testing.B) {
	x, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	max := x.DomainMax()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(max + 1)
		hi := lo + rng.Int63n(2*benchDur)
		if hi > max {
			hi = max
		}
		if err := x.Insert(interval.New(lo, hi), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertAfterOptimize measures the overlay insert path of a
// compacted index — the steady state of a long-lived attached index.
func BenchmarkInsertAfterOptimize(b *testing.B) {
	x := benchIndex(b, Options{}, true)
	rng := rand.New(rand.NewSource(4))
	max := x.DomainMax()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(max + 1)
		hi := lo + rng.Int63n(2*benchDur)
		if hi > max {
			hi = max
		}
		if err := x.Insert(interval.New(lo, hi), int64(benchN+i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelete(b *testing.B) {
	x, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	ivs, ids := benchWorkload(benchN, x.DomainMax())
	if err := x.BulkLoad(ivs, ids); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % benchN
		if i > 0 && j == 0 {
			b.StopTimer() // refill once drained
			if err := x.BulkLoad(ivs, ids); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if ok, err := x.Delete(ivs[j], ids[j]); err != nil || !ok {
			b.Fatalf("delete %d = %v, %v", j, ok, err)
		}
	}
}

func BenchmarkBulkLoadOptimize(b *testing.B) {
	ivs, ids := benchWorkload(benchN, int64(1)<<DefaultBits-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := New(Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := x.BulkLoad(ivs, ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeIncremental measures one compaction of a fully
// dynamic index — the cost OnInsert amortizes.
func BenchmarkOptimizeIncremental(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		x := benchIndex(b, Options{}, false)
		b.StartTimer()
		x.Optimize()
	}
}
