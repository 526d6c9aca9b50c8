package bench

import (
	"fmt"
	"time"

	"ritree/internal/hint"
	"ritree/internal/interval"
	"ritree/internal/obs"
	"ritree/internal/pagestore"
	"ritree/internal/ritree"
	"ritree/internal/sqldb"
	"ritree/internal/workload"
)

// The "collections" experiment drives every registered access method
// through the unified collection interface — one base relation plus one
// access-method domain index per collection, loaded and queried through
// the same code path (sqldb.Engine.BulkInsert + a live sqldb.Reader) the
// public ritree.DB API uses. Where the other experiments benchmark each
// access method through its native API, this one measures what a user of
// the uniform API actually gets, including the engine's maintenance and
// row-id mapping overheads.

// collectionAM adapts one collection to the harness AM interface.
type collectionAM struct {
	st     *pagestore.Store
	eng    *sqldb.Engine
	ci     sqldb.Index
	reg    *obs.Registry
	name   string
	method string
	loadMS float64
}

func newCollectionAM(c Config, method string) (*collectionAM, error) {
	st, db, err := newStore(c)
	if err != nil {
		return nil, err
	}
	// Wire the same per-DB metrics registry the public API attaches, so
	// experiments can embed and crosscheck the engine's own counters.
	reg := obs.NewRegistry()
	st.SetMetrics(reg, "pagestore")
	eng := sqldb.NewEngine(db)
	eng.SetMetricsRegistry(reg)
	ritree.RegisterIndexType(eng)
	hint.RegisterIndexType(eng)
	hint.RegisterShardedIndexType(eng, 0)
	if err := eng.CreateCollection("iv", method, nil); err != nil {
		return nil, err
	}
	ci, ok := eng.CustomIndexByName(sqldb.CollectionIndexName("iv"))
	if !ok {
		return nil, fmt.Errorf("bench: collection index not attached for %s", method)
	}
	return &collectionAM{st: st, eng: eng, ci: ci, reg: reg, name: "collection(" + method + ")", method: method}, nil
}

func (a *collectionAM) Name() string { return a.name }

// Regime labels the access method's storage side; the base relation is
// disk-resident either way, but the count-only query path below touches
// it only for disk-relational methods.
func (a *collectionAM) Regime() string {
	if a.method == ritree.IndexTypeName {
		return RegimeDisk
	}
	return RegimeMemory
}

func (a *collectionAM) Load(ivs []interval.Interval, ids []int64) error {
	rows := make([][]int64, len(ivs))
	for i, iv := range ivs {
		rows[i] = []int64{iv.Lower, iv.Upper, ids[i]}
	}
	start := time.Now()
	_, err := a.eng.BulkInsert("iv", rows)
	a.loadMS = float64(time.Since(start).Microseconds()) / 1000
	return err
}

func (a *collectionAM) QueryCount(q interval.Interval) (int64, error) {
	// Like Collection.CountIntersecting: the access method's counting
	// path (parallel per-shard fan-out on hint_sharded) over a Reader
	// bound to the live database — nothing writes during the measurement.
	rd, err := a.ci.Reader(a.eng.DB())
	if err != nil {
		return 0, err
	}
	return rd.Count("intersects", []int64{q.Lower, q.Upper})
}

func (a *collectionAM) Entries() int64          { return 0 }
func (a *collectionAM) Store() *pagestore.Store { return a.st }

// Collections compares every built-in access method through the unified
// collection interface on one workload: bulk-load cost, then the query
// batch, per method.
func Collections(c Config) (*Table, error) {
	c = c.WithDefaults()
	t := &Table{
		ID:     "collections",
		Title:  "access methods behind the unified collection interface, D1",
		Header: []string{"method", "regime", "load ms", "log reads/q", "phys reads/q", "ms/query", "queries/s", "results/q"},
		Notes: []string{
			"every method runs through the same path the public DB/Collection API uses:",
			"engine bulk insert with index maintenance, then INTERSECTS scans through the",
			"access-method domain index; disk-relational methods pay physical I/O, the",
			"main-memory methods answer from their in-memory structures",
		},
	}
	n := c.scaled(100000)
	spec := workload.Spec{Kind: workload.D1, N: n, D: 2000}
	ivs := workload.Generate(spec, c.Seed)
	ids := workload.IDs(spec.N)
	queries := workload.Queries(200, 4000, c.Seed+1)

	methods := []string{ritree.IndexTypeName, hint.IndexTypeName, hint.ShardedIndexTypeName}
	var ams []AM
	for _, method := range methods {
		am, err := newCollectionAM(c, method)
		if err != nil {
			return nil, err
		}
		c.logf("  loading %s (n=%d)...", am.Name(), n)
		if err := am.Load(ivs, ids); err != nil {
			return nil, fmt.Errorf("%s load: %w", am.Name(), err)
		}
		m, err := Measure(c, am, int64(n), queries)
		if err != nil {
			return nil, err
		}
		t.AddRow(am.Name(), RegimeOf(am), f1(am.loadMS), f1(m.AvgLogReads), f1(m.AvgPhysReads),
			f3(m.AvgTimeMS), f1(qps(m)), f1(m.AvgResults))
		ams = append(ams, am)
	}
	t.SetMethods(ams...)
	return t, nil
}
