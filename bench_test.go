package ritree_test

// testing.B benchmarks, one per table/figure of the paper's evaluation
// (§6). These run the same harness as cmd/ribench at a CI-friendly scale
// and report the paper's metrics as custom benchmark outputs:
//
//	physIO/query   physical page reads per query (Figures 13, 14, 17)
//	entries        index entries (Figure 12)
//	ms/query       response time per query (Figures 13-17)
//
// go test -bench=. -benchmem regenerates every row family; cmd/ribench
// runs the full-scale versions.

import (
	"context"
	"math/rand"
	"testing"

	"ritree"

	"ritree/internal/bench"
	"ritree/internal/interval"
	ritcore "ritree/internal/ritree"
	"ritree/internal/workload"
)

// benchScale keeps testing.B runs quick; cmd/ribench -scale 1.0 is the
// paper-scale path.
const benchScale = 0.05

func benchConfig() bench.Config {
	return bench.Config{Scale: benchScale}.WithDefaults()
}

func reportMetrics(b *testing.B, m bench.Metrics) {
	b.Helper()
	b.ReportMetric(m.AvgPhysReads, "physIO/query")
	b.ReportMetric(m.AvgLogReads, "logIO/query")
	b.ReportMetric(m.AvgTimeMS, "ms/query")
	b.ReportMetric(m.AvgResults, "results/query")
}

func loadTrio(b *testing.B, c bench.Config, spec workload.Spec) (rit, tile, ist bench.AM, ivs []interval.Interval) {
	b.Helper()
	ivs = workload.Generate(spec, c.Seed)
	ids := workload.IDs(spec.N)
	var err error
	rit, err = bench.NewRITree(c)
	if err != nil {
		b.Fatal(err)
	}
	tile, err = bench.NewTile(c, ivs[:min(1000, len(ivs))], workload.Queries(50, 4000, c.Seed))
	if err != nil {
		b.Fatal(err)
	}
	ist, err = bench.NewIST(c)
	if err != nil {
		b.Fatal(err)
	}
	for _, am := range []bench.AM{rit, tile, ist} {
		if err := am.Load(ivs, ids); err != nil {
			b.Fatal(err)
		}
	}
	return rit, tile, ist, ivs
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkTable1Generators regenerates the Table 1 sample databases.
func BenchmarkTable1Generators(b *testing.B) {
	for _, k := range []workload.Kind{workload.D1, workload.D2, workload.D3, workload.D4} {
		spec := workload.Spec{Kind: k, N: 100000, D: 2000}
		b.Run(spec.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ivs := workload.Generate(spec, int64(i))
				if len(ivs) != spec.N {
					b.Fatal("bad generator output")
				}
			}
		})
	}
}

// BenchmarkFig12StorageOccupation reports index entries per method
// (Figure 12): IST = n, RI-tree = 2n, T-index = redundancy*n.
func BenchmarkFig12StorageOccupation(b *testing.B) {
	c := benchConfig()
	n := int(float64(400000) * benchScale)
	spec := workload.Spec{Kind: workload.D4, N: n, D: 2000}
	rit, tile, ist, _ := loadTrio(b, c, spec)
	for _, am := range []bench.AM{rit, tile, ist} {
		am := am
		b.Run(am.Name(), func(b *testing.B) {
			var entries int64
			for i := 0; i < b.N; i++ {
				entries = am.Entries()
			}
			b.ReportMetric(float64(entries), "entries")
			b.ReportMetric(float64(entries)/float64(n), "entries/interval")
		})
	}
}

// BenchmarkFig13Selectivity measures range queries on D1(100k,2k) at the
// paper's selectivity endpoints (Figure 13).
func BenchmarkFig13Selectivity(b *testing.B) {
	c := benchConfig()
	spec := workload.Spec{Kind: workload.D1, N: c2n(c, 100000), D: 2000}
	rit, tile, ist, ivs := loadTrio(b, c, spec)
	for _, sel := range []float64{0.005, 0.03} {
		qlen := workload.CalibrateLength(ivs, sel, c.Seed+1)
		queries := workload.Queries(50, qlen, c.Seed+2)
		for _, am := range []bench.AM{rit, tile, ist} {
			am := am
			b.Run(bname("sel", sel*100, am.Name()), func(b *testing.B) {
				var m bench.Metrics
				for i := 0; i < b.N; i++ {
					var err error
					m, err = bench.Measure(c, am, int64(spec.N), queries)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportMetrics(b, m)
			})
		}
	}
}

// BenchmarkFig14Scaleup measures the scaleup series of Figure 14.
func BenchmarkFig14Scaleup(b *testing.B) {
	c := benchConfig()
	for _, n := range []int{1000, 10000, c2n(c, 1000000)} {
		spec := workload.Spec{Kind: workload.D4, N: n, D: 2000}
		rit, tile, ist, ivs := loadTrio(b, c, spec)
		qlen := workload.CalibrateLength(ivs, 0.006, c.Seed+3)
		queries := workload.Queries(20, qlen, c.Seed+4)
		for _, am := range []bench.AM{rit, tile, ist} {
			am := am
			b.Run(bname("n", float64(n), am.Name()), func(b *testing.B) {
				var m bench.Metrics
				for i := 0; i < b.N; i++ {
					var err error
					m, err = bench.Measure(c, am, int64(n), queries)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportMetrics(b, m)
			})
		}
	}
}

// BenchmarkFig15Granularity measures the restricted-duration series of
// Figure 15 on the RI-tree.
func BenchmarkFig15Granularity(b *testing.B) {
	c := benchConfig()
	for _, r := range []struct{ min, max int64 }{{0, 4000}, {1500, 2500}} {
		n := c2n(c, 100000)
		spec := workload.Spec{Kind: workload.D3, N: n, D: 2000, MinDur: r.min, MaxDur: r.max}
		ivs := workload.Generate(spec, c.Seed)
		am, err := bench.NewRITree(c)
		if err != nil {
			b.Fatal(err)
		}
		if err := am.Load(ivs, workload.IDs(n)); err != nil {
			b.Fatal(err)
		}
		qlen := workload.CalibrateLength(ivs, 0.005, c.Seed+5)
		queries := workload.Queries(50, qlen, c.Seed+6)
		b.Run(bname("minlen", float64(r.min), "RI-tree"), func(b *testing.B) {
			var m bench.Metrics
			for i := 0; i < b.N; i++ {
				var err error
				m, err = bench.Measure(c, am, int64(n), queries)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportMetrics(b, m)
		})
	}
}

// BenchmarkFig16Duration measures the mean-duration series of Figure 16.
func BenchmarkFig16Duration(b *testing.B) {
	c := benchConfig()
	for _, d := range []int64{0, 2000} {
		n := c2n(c, 100000)
		spec := workload.Spec{Kind: workload.D4, N: n, D: d}
		rit, tile, ist, ivs := loadTrio(b, c, spec)
		qlen := workload.CalibrateLength(ivs, 0.01, c.Seed+7)
		queries := workload.Queries(20, qlen, c.Seed+8)
		for _, am := range []bench.AM{rit, tile, ist} {
			am := am
			b.Run(bname("dur", float64(d), am.Name()), func(b *testing.B) {
				var m bench.Metrics
				for i := 0; i < b.N; i++ {
					var err error
					m, err = bench.Measure(c, am, int64(n), queries)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportMetrics(b, m)
			})
		}
	}
}

// BenchmarkFig17Sweep measures the sweeping point query of Figure 17 at
// both ends of the data space.
func BenchmarkFig17Sweep(b *testing.B) {
	c := benchConfig()
	n := c2n(c, 200000)
	spec := workload.Spec{Kind: workload.D2, N: n, D: 2000}
	rit, tile, ist, _ := loadTrio(b, c, spec)
	for _, dist := range []int64{0, 200000} {
		var queries []interval.Interval
		for j := int64(0); j < 10; j++ {
			queries = append(queries, interval.Point(interval.DomainMax-dist-j*197))
		}
		for _, am := range []bench.AM{rit, tile, ist} {
			am := am
			b.Run(bname("dist", float64(dist), am.Name()), func(b *testing.B) {
				var m bench.Metrics
				for i := 0; i < b.N; i++ {
					var err error
					m, err = bench.Measure(c, am, int64(n), queries)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportMetrics(b, m)
			})
		}
	}
}

// BenchmarkWindowList reproduces the §6.1 Window-List comparison.
func BenchmarkWindowList(b *testing.B) {
	c := benchConfig()
	n := c2n(c, 100000)
	spec := workload.Spec{Kind: workload.D1, N: n, D: 2000}
	ivs := workload.Generate(spec, c.Seed)
	qlen := workload.CalibrateLength(ivs, 0.005, c.Seed+9)
	queries := workload.Queries(50, qlen, c.Seed+10)
	rit, err := bench.NewRITree(c)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := bench.NewWinList(c)
	if err != nil {
		b.Fatal(err)
	}
	for _, am := range []bench.AM{rit, wl} {
		if err := am.Load(ivs, workload.IDs(n)); err != nil {
			b.Fatal(err)
		}
		am := am
		b.Run(am.Name(), func(b *testing.B) {
			var m bench.Metrics
			for i := 0; i < b.N; i++ {
				var err error
				m, err = bench.Measure(c, am, int64(n), queries)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportMetrics(b, m)
		})
	}
}

// BenchmarkAblationMinstep quantifies the §3.4 minstep pruning.
func BenchmarkAblationMinstep(b *testing.B) {
	c := benchConfig()
	n := c2n(c, 100000)
	spec := workload.Spec{Kind: workload.D3, N: n, D: 2000, MinDur: 1500, MaxDur: 2500}
	ivs := workload.Generate(spec, c.Seed)
	qlen := workload.CalibrateLength(ivs, 0.002, c.Seed+11)
	queries := workload.Queries(50, qlen, c.Seed+12)
	base, err := bench.NewRITree(c)
	if err != nil {
		b.Fatal(err)
	}
	noms, err := bench.NewRITreeOpts(c, ritcore.Options{DisableMinStep: true}, "no-minstep")
	if err != nil {
		b.Fatal(err)
	}
	for _, am := range []bench.AM{base, noms} {
		if err := am.Load(ivs, workload.IDs(n)); err != nil {
			b.Fatal(err)
		}
		am := am
		b.Run(am.Name(), func(b *testing.B) {
			var m bench.Metrics
			for i := 0; i < b.N; i++ {
				var err error
				m, err = bench.Measure(c, am, int64(n), queries)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportMetrics(b, m)
		})
	}
}

// BenchmarkAblationQueryForm compares Figure 8's three-branch query with
// Figure 9's two-fold form.
func BenchmarkAblationQueryForm(b *testing.B) {
	c := benchConfig()
	n := c2n(c, 100000)
	spec := workload.Spec{Kind: workload.D1, N: n, D: 2000}
	ivs := workload.Generate(spec, c.Seed)
	qlen := workload.CalibrateLength(ivs, 0.01, c.Seed+13)
	queries := workload.Queries(50, qlen, c.Seed+14)
	two, err := bench.NewRITree(c)
	if err != nil {
		b.Fatal(err)
	}
	three, err := bench.NewRITreeOpts(c, ritcore.Options{ThreeBranchQuery: true}, "fig8-form")
	if err != nil {
		b.Fatal(err)
	}
	for _, am := range []bench.AM{two, three} {
		if err := am.Load(ivs, workload.IDs(n)); err != nil {
			b.Fatal(err)
		}
		am := am
		b.Run(am.Name(), func(b *testing.B) {
			var m bench.Metrics
			for i := 0; i < b.N; i++ {
				var err error
				m, err = bench.Measure(c, am, int64(n), queries)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportMetrics(b, m)
		})
	}
}

// BenchmarkAblationSkeleton measures the §7 materialized-backbone outlook.
func BenchmarkAblationSkeleton(b *testing.B) {
	c := benchConfig()
	n := c2n(c, 100000)
	spec := workload.Spec{Kind: workload.D2, N: n, D: 2000}
	ivs := workload.Generate(spec, c.Seed)
	qlen := workload.CalibrateLength(ivs, 0.002, c.Seed+15)
	queries := workload.Queries(50, qlen, c.Seed+16)
	base, err := bench.NewRITree(c)
	if err != nil {
		b.Fatal(err)
	}
	skel, err := bench.NewRITreeOpts(c, ritcore.Options{MaterializeBackbone: true}, "skeleton")
	if err != nil {
		b.Fatal(err)
	}
	for _, am := range []bench.AM{base, skel} {
		if err := am.Load(ivs, workload.IDs(n)); err != nil {
			b.Fatal(err)
		}
		am := am
		b.Run(am.Name(), func(b *testing.B) {
			var m bench.Metrics
			for i := 0; i < b.N; i++ {
				var err error
				m, err = bench.Measure(c, am, int64(n), queries)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportMetrics(b, m)
		})
	}
}

// benchCollection opens an in-memory DB with one collection named "iv"
// served by method; the DB closes with the benchmark.
func benchCollection(b *testing.B, method string, opts ...ritree.CollectionOption) *ritree.Collection {
	b.Helper()
	db, err := ritree.OpenMemory()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	c, err := db.CreateCollection("iv", append([]ritree.CollectionOption{ritree.AccessMethod(method)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// benchInsert measures single-interval insertion through a collection.
// Allocation counts are part of the contract: they keep the hot-path
// garbage regressions visible.
func benchInsert(b *testing.B, c *ritree.Collection) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(1 << 20)
		if err := c.Insert(ritree.NewInterval(lo, lo+rng.Int63n(2048)), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCountIntersecting bulk loads 50k intervals into c, then measures
// the counting intersection query.
func benchCountIntersecting(b *testing.B, c *ritree.Collection) {
	rng := rand.New(rand.NewSource(2))
	n := 50000
	ivs := make([]ritree.Interval, n)
	ids := make([]int64, n)
	for i := range ivs {
		lo := rng.Int63n(1 << 20)
		ivs[i] = ritree.NewInterval(lo, lo+rng.Int63n(2048))
		ids[i] = int64(i)
	}
	if err := c.BulkLoad(ivs, ids); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(1 << 20)
		n, err := c.CountIntersecting(ritree.NewInterval(lo, lo+5000))
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	if total == 0 {
		b.Fatal("queries returned nothing")
	}
}

// BenchmarkCoreInsert measures single-interval insertion cost on an
// RI-tree collection (Figure 5's single-statement insert, O(log_b n)
// I/Os, plus the base-relation append).
func BenchmarkCoreInsert(b *testing.B) {
	benchInsert(b, benchCollection(b, ritree.AccessMethodRITree))
}

// BenchmarkCoreIntersecting measures intersection query cost on a loaded
// RI-tree collection — the target of the query-scratch pooling in
// internal/ritree (transient node collections and scan bounds reused
// across queries).
func BenchmarkCoreIntersecting(b *testing.B) {
	benchCountIntersecting(b, benchCollection(b, ritree.AccessMethodRITree))
}

// BenchmarkCoreHINTIntersecting measures the same query shape on HINT
// collections (sorted subdivisions, flat storage), one shard and eight —
// the headline number behind the hint/hintopt experiments.
func BenchmarkCoreHINTIntersecting(b *testing.B) {
	b.Run(bname("shards", 1, "HINT"), func(b *testing.B) {
		benchCountIntersecting(b, benchCollection(b, ritree.AccessMethodHINT))
	})
	b.Run(bname("shards", 8, "HINT"), func(b *testing.B) {
		benchCountIntersecting(b, benchCollection(b, ritree.AccessMethodHINTSharded, ritree.WithMethodParam("shards", "8")))
	})
}

// BenchmarkCoreHINTInsert measures incremental insertion into a HINT
// collection (sorted overlay path).
func BenchmarkCoreHINTInsert(b *testing.B) {
	benchInsert(b, benchCollection(b, ritree.AccessMethodHINT))
}

func c2n(c bench.Config, base int) int {
	n := int(float64(base) * c.Scale)
	if n < 1000 {
		n = 1000
	}
	return n
}

func bname(key string, v float64, am string) string {
	if v == float64(int64(v)) {
		return key + "=" + itoa(int64(v)) + "/" + am
	}
	return key + "=" + f1s(v) + "/" + am
}

func itoa(v int64) string { return fmtInt(v) }

func fmtInt(v int64) string {
	// strconv-free tiny formatter to keep the benchmark file focused.
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func f1s(v float64) string {
	n := int64(v * 10)
	return fmtInt(n/10) + "." + fmtInt(n%10)
}

// BenchmarkSQLStreamLimit measures the streaming SQL cursor against the
// materializing Exec path on the same collection SELECT — the CI smoke
// coverage for the volcano executor (the benchmark/ module's
// embed-range-hot workload is the end-to-end version). The LIMIT variant
// must do O(k) leaf work.
func BenchmarkSQLStreamLimit(b *testing.B) {
	db, err := ritree.OpenMemory()
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	c, err := db.CreateCollection("iv", ritree.AccessMethod(ritree.AccessMethodHINT))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	n := 50000
	ivs := make([]ritree.Interval, n)
	ids := make([]int64, n)
	for i := range ivs {
		lo := rng.Int63n(1 << 20)
		ivs[i] = ritree.NewInterval(lo, lo+rng.Int63n(2048))
		ids[i] = int64(i)
	}
	if err := c.BulkLoad(ivs, ids); err != nil {
		b.Fatal(err)
	}
	sql := "SELECT id FROM iv WHERE intersects(lower, upper, :a, :b)"
	binds := func() map[string]interface{} {
		lo := rng.Int63n(1 << 20)
		return map[string]interface{}{"a": lo, "b": lo + 5000}
	}
	b.Run("exec-materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(sql, binds()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query-limit10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := db.Query(context.Background(), sql+" LIMIT 10", binds())
			if err != nil {
				b.Fatal(err)
			}
			for rows.Next() {
			}
			if err := rows.Err(); err != nil {
				b.Fatal(err)
			}
			if st := rows.Stats(); st.LeafRows > 10 {
				b.Fatalf("LIMIT 10 pulled %d leaf rows", st.LeafRows)
			}
		}
	})
	b.Run("query-allen-during", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := db.Query(context.Background(),
				"SELECT id FROM iv WHERE allen_during(lower, upper, :a, :b)", binds())
			if err != nil {
				b.Fatal(err)
			}
			for rows.Next() {
			}
			if err := rows.Err(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
