// Package ritree implements the Relational Interval Tree of Kriegel, Pötke
// and Seidl (VLDB 2000) — the paper's primary contribution.
//
// The RI-tree manages intervals in an ordinary relational table
//
//	Intervals(node, lower, upper, id)
//
// with two built-in composite indexes (node, lower, id) and
// (node, upper, id) — exactly the DDL of paper Figure 2, with the id
// attribute included in the indexes as in the paper's experiments (§4.3,
// Figure 10). The backbone binary tree is purely virtual: only the O(1)
// parameters offset, leftRoot, rightRoot and minstep are stored (§3.4),
// kept in a small data-dictionary relation. Insertion computes the fork
// node arithmetically and executes a single INSERT (Figures 4–6);
// intersection queries collect the transient leftNodes/rightNodes
// collections by pure integer arithmetic and run the two-fold UNION ALL
// range-scan plan of Figure 9.
package ritree

import (
	"fmt"
	"math"
	"sync"

	"ritree/internal/interval"
	"ritree/internal/rel"
)

// Node-column sentinels for temporal intervals (§4.6): the paper assigns
// fork-infinity = MAXINT and fork-now = MAXINT-1 so that the SQL statement
// needs no modification.
const (
	NodeInfinity int64 = math.MaxInt64
	NodeNow      int64 = math.MaxInt64 - 1
)

// unsetMinStep marks "no interval registered below the root yet"; the paper
// initializes minstep with infinity (§3.4).
const unsetMinStep int64 = math.MaxInt64

// Params is the O(1) persistent representation of the virtual primary
// structure (§3.4).
type Params struct {
	// OffsetSet records whether Offset has been fixed (it is fixed by the
	// first insertion and never changed, §3.4 "offset is fixed after having
	// inserted the first interval").
	OffsetSet bool
	// Offset shifts interval bounds so the data space starts near 0.
	Offset int64
	// LeftRoot is the root of the negative subtree (0 or a negative power
	// of two); it covers shifted bounds in (2*LeftRoot, 0).
	LeftRoot int64
	// RightRoot is the root of the positive subtree (0 or a positive power
	// of two); it covers shifted bounds in (0, 2*RightRoot).
	RightRoot int64
	// MinStep is the smallest node step (2^level) at which an interval has
	// been registered; query descent prunes below it. unsetMinStep when no
	// interval was registered outside the global root.
	MinStep int64
}

// Options configures tuning knobs and ablations of a Tree. The zero value
// is the paper's configuration.
type Options struct {
	// DisableMinStep turns off the minstep pruning of §3.4; queries then
	// descend the virtual backbone to leaf level. Used by the ablation
	// benchmarks to quantify the optimization.
	DisableMinStep bool
	// ThreeBranchQuery uses the preliminary Figure 8 query shape (each
	// covered-node probe separate from the leftNodes probes) instead of the
	// optimized two-fold Figure 9 form. Used by the ablation benchmarks.
	ThreeBranchQuery bool
	// MaterializeBackbone implements the §7 outlook ("a partial
	// materialization of the primary structure can be adapted to the
	// expected data distribution", the Skeleton-Index idea): the set of
	// nonempty backbone nodes is kept in session memory, and queries skip
	// index probes of provably empty nodes. Costs O(#distinct nodes)
	// memory and one index sweep at open time.
	MaterializeBackbone bool
}

// Tree is a Relational Interval Tree over a rel.DB.
type Tree struct {
	db       *rel.DB
	name     string
	opts     Options
	tab      *rel.Table
	lowerIx  *rel.Index
	upperIx  *rel.Index
	paramTab *rel.Table
	paramRid rel.RowID
	params   Params
	now      int64
	// nonempty counts live rows per backbone node when
	// Options.MaterializeBackbone is set; nil otherwise.
	nonempty map[int64]int64
	// scratch pools *queryScratch values so steady-state queries build
	// their transient collections and scan bounds without heap
	// allocations; a pool (not a plain field) because the top-level API
	// runs queries concurrently under a read lock.
	scratch sync.Pool
	// met mirrors query-shape counters into an obs registry; nil (the
	// default) records nothing. See metrics.go.
	met *treeMetrics
}

// Column layout of the interval relation.
const (
	colNode  = 0
	colLower = 1
	colUpper = 2
	colID    = 3
)

func tableName(name string) string   { return name }
func lowerIxName(name string) string { return name + "_lower_ix" }
func upperIxName(name string) string { return name + "_upper_ix" }
func paramsName(name string) string  { return name + "_params" }

// Create instantiates a new RI-tree called name: the Intervals relation,
// its two composite indexes, and the parameter dictionary (paper Figure 2).
func Create(db *rel.DB, name string, opts Options) (*Tree, error) {
	if name == "" {
		return nil, fmt.Errorf("ritree: empty tree name")
	}
	tab, err := db.CreateTable(tableName(name), []string{"node", "lower", "upper", "id"})
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateIndex(lowerIxName(name), tableName(name), []string{"node", "lower", "id"}); err != nil {
		return nil, err
	}
	if _, err := db.CreateIndex(upperIxName(name), tableName(name), []string{"node", "upper", "id"}); err != nil {
		return nil, err
	}
	paramTab, err := db.CreateTable(paramsName(name), []string{"offsetset", "offset", "leftroot", "rightroot", "minstep"})
	if err != nil {
		return nil, err
	}
	t := &Tree{
		db:       db,
		name:     name,
		opts:     opts,
		tab:      tab,
		paramTab: paramTab,
		params:   Params{MinStep: unsetMinStep},
		now:      interval.DomainMax,
	}
	t.paramRid, err = paramTab.Insert(t.params.row())
	if err != nil {
		return nil, err
	}
	if t.lowerIx, err = db.Index(lowerIxName(name)); err != nil {
		return nil, err
	}
	if t.upperIx, err = db.Index(upperIxName(name)); err != nil {
		return nil, err
	}
	if err := t.initSkeleton(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing RI-tree called name.
func Open(db *rel.DB, name string, opts Options) (*Tree, error) {
	tab, err := db.Table(tableName(name))
	if err != nil {
		return nil, err
	}
	paramTab, err := db.Table(paramsName(name))
	if err != nil {
		return nil, err
	}
	t := &Tree{db: db, name: name, opts: opts, tab: tab, paramTab: paramTab, now: interval.DomainMax}
	if t.lowerIx, err = db.Index(lowerIxName(name)); err != nil {
		return nil, err
	}
	if t.upperIx, err = db.Index(upperIxName(name)); err != nil {
		return nil, err
	}
	found := false
	err = paramTab.Scan(func(rid rel.RowID, row []int64) bool {
		t.paramRid = rid
		t.params = paramsFromRow(row)
		found = true
		return false
	})
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("ritree: parameter dictionary of %s is empty", name)
	}
	if err := t.initSkeleton(); err != nil {
		return nil, err
	}
	return t, nil
}

// Drop removes the tree's relations and indexes from the database.
func (t *Tree) Drop() error {
	if err := t.db.DropTable(tableName(t.name)); err != nil {
		return err
	}
	return t.db.DropTable(paramsName(t.name))
}

func (p Params) row() []int64 {
	os := int64(0)
	if p.OffsetSet {
		os = 1
	}
	return []int64{os, p.Offset, p.LeftRoot, p.RightRoot, p.MinStep}
}

func paramsFromRow(row []int64) Params {
	return Params{
		OffsetSet: row[0] != 0,
		Offset:    row[1],
		LeftRoot:  row[2],
		RightRoot: row[3],
		MinStep:   row[4],
	}
}

func (t *Tree) saveParams() error {
	return t.paramTab.Update(t.paramRid, t.params.row())
}

// Name returns the tree's name.
func (t *Tree) Name() string { return t.name }

// Params returns a copy of the persistent backbone parameters.
func (t *Tree) Params() Params { return t.params }

// Count returns the number of stored intervals.
func (t *Tree) Count() int64 { return t.tab.RowCount() }

// SetNow sets the evaluation time for now-relative intervals (§4.6).
func (t *Tree) SetNow(now int64) { t.now = now }

// Now returns the evaluation time for now-relative intervals.
func (t *Tree) Now() int64 { return t.now }

// Height returns the height log2(m)+1 of the virtual backbone as analyzed
// in §3.5, with m = max(|leftRoot|, rightRoot) / minstep.
func (t *Tree) Height() int {
	p := t.params
	span := p.RightRoot
	if -p.LeftRoot > span {
		span = -p.LeftRoot
	}
	if span == 0 {
		return 1 // only the global root
	}
	ms := p.MinStep
	if ms == unsetMinStep || ms < 1 {
		ms = 1
	}
	h := 1
	for m := span / ms; m > 0; m >>= 1 {
		h++
	}
	return h
}
