// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§6) on the reproduction's own
// relational substrate.
//
// Each access method runs over its own page store (2 KB pages, 200-page
// LRU cache by default — the paper's Oracle configuration), so physical
// I/O counts are isolated per method. Datasets are bulk loaded, matching
// the paper's observation about "the good clustering properties of the
// bulk loaded indexes" (§6.3); the query phase then runs under an optional
// simulated disk latency so response-time shapes track physical I/O the
// way the paper's U-SCSI disk did.
package bench

import (
	"fmt"
	"time"

	"ritree/internal/baseline/ist"
	"ritree/internal/baseline/tile"
	"ritree/internal/baseline/winlist"
	"ritree/internal/hint"
	"ritree/internal/interval"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	"ritree/internal/ritree"
	"ritree/internal/sqldb"
)

// sqldbEngine builds a SQL engine over db (used by the Figure 10
// experiment).
func sqldbEngine(db *rel.DB) *sqldb.Engine { return sqldb.NewEngine(db) }

// Config parameterizes the harness.
type Config struct {
	// PageSize and CacheSize configure every page store (defaults: the
	// paper's 2 KB / 200 blocks).
	PageSize  int
	CacheSize int
	// Latency is slept per physical read during query phases, emulating
	// the disk of the paper's testbed for response-time measurements.
	Latency time.Duration
	// Seed makes all workloads reproducible.
	Seed int64
	// Scale multiplies database sizes (1.0 = paper scale). Scaled sizes
	// never drop below 1000 intervals.
	Scale float64
	// Progress, when non-nil, receives one-line progress notes.
	Progress func(format string, args ...interface{})
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = pagestore.DefaultPageSize
	}
	if c.CacheSize == 0 {
		c.CacheSize = pagestore.DefaultCacheSize
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 20000910 // VLDB 2000, Cairo
	}
	return c
}

func (c Config) scaled(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 1000 {
		n = 1000
	}
	return n
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// AM is the harness view of one interval access method.
type AM interface {
	// Name is the display name used in tables.
	Name() string
	// Load bulk loads the dataset.
	Load(ivs []interval.Interval, ids []int64) error
	// QueryCount runs one intersection query and returns the result count.
	QueryCount(q interval.Interval) (int64, error)
	// Entries is the number of index entries (Figure 12's metric).
	Entries() int64
	// Store exposes the page store for I/O accounting.
	Store() *pagestore.Store
}

// Storage regimes: the paper's methods live in relations over a paged
// buffer cache; HINT lives entirely in memory. The label makes recorded
// benchmark entries comparable across the two regimes.
const (
	RegimeDisk   = "disk-relational"
	RegimeMemory = "main-memory"
)

// RegimeOf returns the storage regime of an access method: methods may
// declare one via a Regime() method, everything else is disk-relational.
func RegimeOf(am AM) string {
	if r, ok := am.(interface{ Regime() string }); ok {
		return r.Regime()
	}
	return RegimeDisk
}

func newStore(c Config) (*pagestore.Store, *rel.DB, error) {
	st, err := pagestore.New(pagestore.NewMemBackend(), pagestore.Options{
		PageSize:  c.PageSize,
		CacheSize: c.CacheSize,
	})
	if err != nil {
		return nil, nil, err
	}
	db, err := rel.CreateDB(st)
	if err != nil {
		return nil, nil, err
	}
	return st, db, nil
}

// --- RI-tree -----------------------------------------------------------

type ritAM struct {
	st   *pagestore.Store
	tree *ritree.Tree
	name string
}

// NewRITree builds an RI-tree access method with the paper's defaults.
func NewRITree(c Config) (AM, error) { return newRITreeOpts(c, ritree.Options{}, "RI-tree") }

// NewRITreeOpts builds an RI-tree with explicit core options (ablations).
func NewRITreeOpts(c Config, opts ritree.Options, name string) (AM, error) {
	return newRITreeOpts(c, opts, name)
}

func newRITreeOpts(c Config, opts ritree.Options, name string) (AM, error) {
	st, db, err := newStore(c)
	if err != nil {
		return nil, err
	}
	tree, err := ritree.Create(db, "iv", opts)
	if err != nil {
		return nil, err
	}
	return &ritAM{st: st, tree: tree, name: name}, nil
}

func (a *ritAM) Name() string { return a.name }
func (a *ritAM) Load(ivs []interval.Interval, ids []int64) error {
	return a.tree.BulkLoad(ivs, ids)
}
func (a *ritAM) QueryCount(q interval.Interval) (int64, error) {
	return a.tree.CountIntersecting(q)
}
func (a *ritAM) Entries() int64          { return a.tree.IndexEntries() }
func (a *ritAM) Store() *pagestore.Store { return a.st }

// --- IST (D-order) -----------------------------------------------------

type istAM struct {
	st *pagestore.Store
	ix *ist.Index
}

// NewIST builds the Interval-Spatial Transformation (D-order) baseline.
func NewIST(c Config) (AM, error) {
	st, db, err := newStore(c)
	if err != nil {
		return nil, err
	}
	ix, err := ist.Create(db, "iv", ist.DOrder)
	if err != nil {
		return nil, err
	}
	return &istAM{st: st, ix: ix}, nil
}

func (a *istAM) Name() string { return "IST" }
func (a *istAM) Load(ivs []interval.Interval, ids []int64) error {
	return a.ix.BulkLoad(ivs, ids)
}
func (a *istAM) QueryCount(q interval.Interval) (int64, error) {
	var n int64
	err := a.ix.IntersectingFunc(q, func(int64) bool { n++; return true })
	return n, err
}
func (a *istAM) Entries() int64          { return a.ix.EntryCount() }
func (a *istAM) Store() *pagestore.Store { return a.st }

// --- T-index ------------------------------------------------------------

type tileAM struct {
	st *pagestore.Store
	ix *tile.Index
}

// NewTile builds the T-index, tuning the fixed level on a 1000-interval
// sample exactly as §6.1 describes.
func NewTile(c Config, sample, queries []interval.Interval) (AM, error) {
	st, db, err := newStore(c)
	if err != nil {
		return nil, err
	}
	entriesPerPage := (c.PageSize - 16) / ((4 + 1) * 8)
	level := tile.Tune(sample, queries, entriesPerPage)
	ix, err := tile.Create(db, "iv", level)
	if err != nil {
		return nil, err
	}
	return &tileAM{st: st, ix: ix}, nil
}

func (a *tileAM) Name() string { return "T-index" }
func (a *tileAM) Load(ivs []interval.Interval, ids []int64) error {
	return a.ix.BulkLoad(ivs, ids)
}
func (a *tileAM) QueryCount(q interval.Interval) (int64, error) {
	var n int64
	err := a.ix.IntersectingFunc(q, func(int64) bool { n++; return true })
	return n, err
}
func (a *tileAM) Entries() int64          { return a.ix.EntryCount() }
func (a *tileAM) Store() *pagestore.Store { return a.st }

// Redundancy exposes the measured redundancy factor.
func (a *tileAM) Redundancy() float64 { return a.ix.Redundancy() }

// --- HINT (main-memory) --------------------------------------------------

type hintAM struct {
	st       *pagestore.Store // empty: the main-memory method performs no paged I/O
	ix       *hint.Index
	name     string
	optimize bool
}

// NewHINT builds the optimized main-memory HINT access method (sorted
// subdivisions, flat cache-conscious storage). Its page store stays
// empty — zero physical I/O per query is the point of the regime — but is
// provided so Measure's accounting works uniformly.
func NewHINT(c Config) (AM, error) { return newHINT(c, true, "HINT") }

// NewHINTBaseline builds HINT without its flat layout: sorted
// per-partition buckets loaded incrementally and never compacted — the
// reference point the hint/hintopt experiments measure the flat layout's
// speedup against.
func NewHINTBaseline(c Config) (AM, error) { return newHINT(c, false, "HINT-base") }

// newHINT builds a HINT access method. With optimize set, Load bulk loads
// into the flat cache-conscious layout; otherwise it inserts
// incrementally and leaves the sorted per-partition overlay in place.
func newHINT(c Config, optimize bool, name string) (AM, error) {
	st, err := pagestore.New(pagestore.NewMemBackend(), pagestore.Options{
		PageSize:  c.PageSize,
		CacheSize: c.CacheSize,
	})
	if err != nil {
		return nil, err
	}
	ix, err := hint.New(hint.Options{})
	if err != nil {
		return nil, err
	}
	return &hintAM{st: st, ix: ix, name: name, optimize: optimize}, nil
}

func (a *hintAM) Name() string   { return a.name }
func (a *hintAM) Regime() string { return RegimeMemory }
func (a *hintAM) Load(ivs []interval.Interval, ids []int64) error {
	if a.optimize {
		return a.ix.BulkLoad(ivs, ids)
	}
	for i := range ivs {
		if err := a.ix.Insert(ivs[i], ids[i]); err != nil {
			return err
		}
	}
	return nil
}
func (a *hintAM) QueryCount(q interval.Interval) (int64, error) {
	return a.ix.CountIntersecting(q)
}
func (a *hintAM) Entries() int64          { return a.ix.Entries() }
func (a *hintAM) Store() *pagestore.Store { return a.st }

// BackingIndex exposes the HINT core (for layout statistics in tables).
func (a *hintAM) BackingIndex() *hint.Index { return a.ix }

// --- Window-List ---------------------------------------------------------

type winAM struct {
	st *pagestore.Store
	db *rel.DB
	ix *winlist.Index
}

// NewWinList builds the static Window-List baseline (bulk built at Load).
func NewWinList(c Config) (AM, error) {
	st, db, err := newStore(c)
	if err != nil {
		return nil, err
	}
	return &winAM{st: st, db: db}, nil
}

func (a *winAM) Name() string { return "Window-List" }
func (a *winAM) Load(ivs []interval.Interval, ids []int64) error {
	ix, err := winlist.Build(a.db, "iv", ivs, ids)
	if err != nil {
		return err
	}
	a.ix = ix
	return nil
}
func (a *winAM) QueryCount(q interval.Interval) (int64, error) {
	if a.ix == nil {
		return 0, fmt.Errorf("bench: window list not loaded")
	}
	var n int64
	err := a.ix.IntersectingFunc(q, func(int64) bool { n++; return true })
	return n, err
}
func (a *winAM) Entries() int64 {
	if a.ix == nil {
		return 0
	}
	return a.ix.EntryCount()
}
func (a *winAM) Store() *pagestore.Store { return a.st }
