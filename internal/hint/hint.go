// Package hint implements HINT^m — the hierarchical main-memory interval
// index of Christodoulou, Bouros and Mamoulis ("HINT: A Hierarchical Index
// for Intervals in Main Memory", SIGMOD 2022; see PAPERS.md).
//
// Where the RI-tree and the paper's other competitors are disk-relational
// access methods (relations plus B+-tree indexes over a paged buffer
// cache), HINT is a domain-partitioning index held entirely in memory:
// the domain [0, 2^Bits-1] is bisected recursively into m+1 levels, level
// l holding 2^l partitions. Each interval is stored in O(1) partitions
// per level — the partitions of its exact hierarchical decomposition — so
// an intersection query touches a handful of short arrays per level
// instead of descending a tree.
//
// The paper's §4 optimizations are implemented:
//
//   - Subdivided partitions (§4.2): every partition keeps its contents in
//     four arrays — originals ending inside the partition (oIn),
//     originals continuing after it (oAft), and the replica counterparts
//     (rIn, rAft). Originals are intervals that begin in the partition;
//     every other copy is a replica. The query algorithm reports each
//     result exactly once with no deduplication structure, and entire
//     subdivisions are emitted comparison-free whenever the partition
//     geometry already guarantees an overlap.
//
//   - Sorted subdivisions (§4.2): each subdivision is kept sorted by the
//     comparison key a query needs from it — oIn and oAft by interval
//     start (the last relevant partition filters on start <= query
//     upper), rIn by interval end (the first relevant partition filters
//     on end >= query lower). Queries binary-search to the qualifying
//     prefix or suffix and emit it comparison-free; the only residual
//     per-entry comparisons are the end checks on the first partition's
//     originals, exactly the paper's remainder.
//
//   - Cache-conscious storage (§4.4): Optimize (called automatically by
//     BulkLoad) compacts every level into one flat entry array per
//     subdivision class with an offset table, so a query's per-level work
//     is sequential scans of contiguous memory instead of pointer chasing
//     through per-partition slices. Incremental Insert/Delete keep
//     working after Optimize through a small sorted overlay that the next
//     Optimize folds in. Per-level bitmaps of nonempty partitions let
//     queries skip dead partitions without touching their memory.
//
//   - Alignment shortcuts: whenever a query endpoint falls on a
//     partition boundary the comparisons on that side are skipped. With
//     Levels == Bits the bottom level has granularity one, so that holds
//     for every in-domain query there (the paper's "comparison-free"
//     geometry, served by the same general test).
//
// The index is fully dynamic: Insert and Delete are incremental, so HINT
// can serve as a live secondary index (see indextype.go for its
// registration in the §5 extensible-indexing framework). A single Index
// is not safe for concurrent use; Sharded (see sharded.go) packages N
// indexes behind per-shard reader-writer locks for concurrent serving.
package hint

import (
	"fmt"
	"slices"
	"sort"

	"ritree/internal/interval"
)

// Defaults: the paper's experimental domain is [0, 2^20-1] (§6.1 of the
// RI-tree paper); m = 10 is in the sweet spot the HINT paper reports for
// its datasets (their Figure 10: best m typically 7-16).
const (
	DefaultBits   = 20
	DefaultLevels = 10

	// maxLevels bounds the eagerly allocated partition-pointer tables
	// (2^(m+1) pointers overall — 16 MiB at m = 20).
	maxLevels = 22
	maxBits   = 62
)

// Options configures New.
type Options struct {
	// Bits is the domain width: interval starts must lie in
	// [0, 2^Bits-1]. Interval ends beyond the domain (including the
	// interval.Infinity sentinel) are indexed as extending to the domain
	// maximum while comparisons keep the true endpoint. The
	// interval.NowMarker sentinel is rejected: HINT does not implement
	// the RI-tree's §4.6 now-relative semantics, and silently treating
	// [lo, now] as [lo, ∞) would diverge from it. Default 20, the
	// paper's data space.
	Bits int
	// Levels is m, the bottom level of the hierarchy: level l in [0, m]
	// holds 2^l partitions. Default 10.
	Levels int
	// Shards requests a concurrently usable index of that many
	// independently locked shards; it is consumed by NewSharded only.
	// New rejects Shards > 1 — a bare Index has no locking to shard.
	Shards int
}

// entry is one stored copy of an interval: true endpoints plus the id.
type entry struct {
	lo, hi int64
	id     int64
}

// Subdivision classes of a partition (§4.2), with the sort key the query
// algorithm needs from each:
//
//	cOIn  originals ending inside the partition    — sorted by lo
//	cOAft originals continuing after the partition — sorted by lo
//	cRIn  replicas ending inside the partition     — sorted by hi
//	cRAft replicas continuing after the partition  — never filtered,
//	      kept in insertion order
const (
	cOIn = iota
	cOAft
	cRIn
	cRAft
	numSubs
)

func classOf(orig, in bool) int {
	switch {
	case orig && in:
		return cOIn
	case orig:
		return cOAft
	case in:
		return cRIn
	default:
		return cRAft
	}
}

// classKey returns the sort key of e under class c.
func classKey(c int, e entry) int64 {
	if c == cRIn {
		return e.hi
	}
	return e.lo
}

// part is one partition's dynamic overlay: the four subdivisions as plain
// slices. Before the first Optimize this is the index's only storage;
// afterwards it holds the entries inserted since, until the next Optimize
// folds them into the flat arrays.
type part struct {
	subs [numSubs][]entry
	// COW generation stamps (see cow.go): gen owns the struct, subGen[c]
	// owns bucket c's backing array.
	gen    uint64
	subGen [numSubs]uint64
}

// Index is a HINT^m hierarchical interval index. It is not safe for
// concurrent use; wrap it in a lock or use Sharded (the hint and
// hint_sharded indextypes do).
type Index struct {
	bits  int
	m     int
	shift uint // Bits - Levels: log2 of the bottom-level granularity
	max   int64

	// levels[l][i] is the dynamic overlay of partition i of level l, nil
	// until first touched.
	levels [][]*part
	// flat is the cache-conscious storage built by Optimize, nil before
	// the first call. flat[l].subs[c] concatenates the class-c entries
	// of every partition of level l.
	flat []flatLevel
	// nonempty[l] is a bitmap over level l's partitions: bit i set iff
	// partition i holds at least one entry (overlay or flat).
	nonempty [][]uint64

	// COW generation bookkeeping (see cow.go): gen is this Index's
	// generation (0 on a bare, never-cloned index); levelsGen[l] and
	// bitGen[l] record which generation owns levels[l] and nonempty[l].
	gen       uint64
	levelsGen []uint64
	bitGen    []uint64

	bulk bool // BulkLoad in progress: raw appends, Optimize sorts after

	// met mirrors query-shape counters into an obs registry; nil (the
	// default) records nothing. See metrics.go.
	met *indexMetrics

	count    int64 // live intervals
	entries  int64 // stored copies, originals + replicas
	replicas int64
	overlay  int64 // stored copies currently in the dynamic overlay
}

// New returns an empty index for the given options.
func New(opts Options) (*Index, error) {
	if opts.Bits == 0 {
		opts.Bits = DefaultBits
	}
	if opts.Levels == 0 {
		opts.Levels = DefaultLevels
	}
	if opts.Bits < 1 || opts.Bits > maxBits {
		return nil, fmt.Errorf("hint: Bits = %d out of range [1, %d]", opts.Bits, maxBits)
	}
	if opts.Levels < 1 || opts.Levels > opts.Bits || opts.Levels > maxLevels {
		return nil, fmt.Errorf("hint: Levels = %d out of range [1, min(Bits, %d)]", opts.Levels, maxLevels)
	}
	if opts.Shards > 1 {
		return nil, fmt.Errorf("hint: Shards = %d on a bare Index; use NewSharded", opts.Shards)
	}
	x := &Index{
		bits:  opts.Bits,
		m:     opts.Levels,
		shift: uint(opts.Bits - opts.Levels),
		max:   1<<uint(opts.Bits) - 1,
	}
	x.levels = make([][]*part, x.m+1)
	x.nonempty = make([][]uint64, x.m+1)
	x.levelsGen = make([]uint64, x.m+1)
	x.bitGen = make([]uint64, x.m+1)
	for l := 0; l <= x.m; l++ {
		x.levels[l] = make([]*part, 1<<uint(l))
		x.nonempty[l] = make([]uint64, (1<<uint(l)+63)/64)
	}
	return x, nil
}

// Name identifies the index and its configuration (used by the
// cross-check matrix and benchmark tables).
func (x *Index) Name() string {
	return fmt.Sprintf("HINT(m=%d,bits=%d)", x.m, x.bits)
}

// Levels returns m, the bottom level of the hierarchy.
func (x *Index) Levels() int { return x.m }

// Bits returns the domain width in bits.
func (x *Index) Bits() int { return x.bits }

// DomainMax returns the largest admissible interval start, 2^Bits-1.
func (x *Index) DomainMax() int64 { return x.max }

// Count returns the number of live intervals.
func (x *Index) Count() int64 { return x.count }

// Entries returns the number of stored copies (originals plus replicas) —
// the space metric comparable to the disk methods' index entries.
func (x *Index) Entries() int64 { return x.entries }

// Replicas returns how many stored copies are replicas.
func (x *Index) Replicas() int64 { return x.replicas }

// Optimized reports whether the flat cache-conscious storage has been
// built (by Optimize or BulkLoad).
func (x *Index) Optimized() bool { return x.flat != nil }

// FlatEntries returns how many stored copies live in the flat storage.
func (x *Index) FlatEntries() int64 { return x.entries - x.overlay }

// OverlayEntries returns how many stored copies live in the dynamic
// overlay, i.e. were inserted since the last Optimize. The ratio against
// FlatEntries is the natural re-Optimize trigger for long-lived indexes.
func (x *Index) OverlayEntries() int64 { return x.overlay }

func (x *Index) clamp(v int64) int64 {
	if v < 0 {
		return 0
	}
	if v > x.max {
		return x.max
	}
	return v
}

func (x *Index) checkInterval(iv interval.Interval) error {
	if !iv.Valid() {
		return fmt.Errorf("hint: invalid interval %v", iv)
	}
	if iv.Lower < 0 || iv.Lower > x.max {
		return fmt.Errorf("hint: interval start %d outside domain [0, %d]", iv.Lower, x.max)
	}
	if iv.Upper == interval.NowMarker {
		return fmt.Errorf("hint: now-relative intervals (§4.6) are not supported; use the RI-tree or a concrete upper bound")
	}
	return nil
}

// assign walks the partitions of iv's hierarchical decomposition
// bottom-up, classifying each as original/replica and ends-in/continues-
// after from the partition geometry.
func (x *Index) assign(iv interval.Interval, visit func(level int, idx int64, orig, in bool)) {
	a := x.clamp(iv.Lower) >> x.shift
	b := x.clamp(iv.Upper) >> x.shift
	ca, cb := a, b
	l := x.m
	for {
		if ca == cb {
			x.visitPart(l, ca, a, b, visit)
			return
		}
		if ca&1 == 1 { // right child: claim it, move to the next sibling
			x.visitPart(l, ca, a, b, visit)
			ca++
		}
		if cb&1 == 0 { // left child: claim it, move to the previous sibling
			x.visitPart(l, cb, a, b, visit)
			cb--
		}
		if ca > cb || l == 0 {
			return
		}
		ca >>= 1
		cb >>= 1
		l--
	}
}

func (x *Index) visitPart(l int, idx, a, b int64, visit func(level int, idx int64, orig, in bool)) {
	span := uint(x.m - l)
	pa := idx << span
	pb := (idx+1)<<span - 1
	// The decomposition is exact over the bottom-level prefixes [a, b],
	// so this partition is the original (contains the interval's start)
	// iff its range starts at or before a, and the interval ends inside
	// it iff its range reaches b.
	visit(l, idx, pa <= a, pb >= b)
}

// insertSorted places e into *b at its class-key upper bound, keeping the
// bucket sorted. Equal keys append at the end of their run, so the
// memmove cost degenerates gracefully on skewed data.
func insertSorted(b *[]entry, c int, e entry) {
	s := *b
	k := classKey(c, e)
	i := sort.Search(len(s), func(j int) bool { return classKey(c, s[j]) > k })
	s = append(s, entry{})
	copy(s[i+1:], s[i:])
	s[i] = e
	*b = s
}

// findInBucket locates one copy of e in an overlay bucket, returning -1
// if absent. Sorted buckets narrow to the equal-key run by binary search
// first.
func (x *Index) findInBucket(s []entry, c int, e entry) int {
	from, to := 0, len(s)
	if !x.bulk && c != cRAft {
		k := classKey(c, e)
		from = sort.Search(len(s), func(j int) bool { return classKey(c, s[j]) >= k })
		to = from + sort.Search(len(s)-from, func(j int) bool { return classKey(c, s[from+j]) > k })
	}
	for i := from; i < to; i++ {
		if s[i] == e {
			return i
		}
	}
	return -1
}

// removeFromBucket removes one copy of e from the overlay bucket,
// preserving order; reports whether it was found. The bucket must be
// owned by the current generation.
func (x *Index) removeFromBucket(b *[]entry, c int, e entry) bool {
	s := *b
	i := x.findInBucket(s, c, e)
	if i < 0 {
		return false
	}
	copy(s[i:], s[i+1:])
	*b = s[:len(s)-1]
	return true
}

// Insert registers iv under id. Multiple registrations of the same
// (interval, id) pair are allowed and count separately.
func (x *Index) Insert(iv interval.Interval, id int64) error {
	if err := x.checkInterval(iv); err != nil {
		return err
	}
	e := entry{lo: iv.Lower, hi: iv.Upper, id: id}
	x.assign(iv, func(l int, idx int64, orig, in bool) {
		p := x.ownPart(l, idx)
		c := classOf(orig, in)
		b := x.ownBucket(p, c)
		if x.bulk || c == cRAft {
			*b = append(*b, e)
		} else {
			insertSorted(b, c, e)
		}
		x.ownBits(l)
		x.setBit(l, idx)
		x.entries++
		x.overlay++
		if !orig {
			x.replicas++
		}
	})
	x.count++
	return nil
}

// Delete removes one registration of (iv, id), reporting whether it
// existed. Copies in the flat storage are removed by compacting their
// partition's segment in place — O(partition) work, no rebuild.
func (x *Index) Delete(iv interval.Interval, id int64) (bool, error) {
	if err := x.checkInterval(iv); err != nil {
		return false, err
	}
	e := entry{lo: iv.Lower, hi: iv.Upper, id: id}
	removed := false
	x.assign(iv, func(l int, idx int64, orig, in bool) {
		c := classOf(orig, in)
		ok := false
		// Peek read-only first so a miss privatizes nothing.
		if p := x.levels[l][idx]; p != nil && x.findInBucket(p.subs[c], c, e) >= 0 {
			op := x.ownPart(l, idx)
			x.removeFromBucket(x.ownBucket(op, c), c, e)
			ok = true
			x.overlay--
		} else if x.flat != nil && x.flatRemove(l, idx, c, e) {
			ok = true
		}
		if !ok {
			return
		}
		x.entries--
		if !orig {
			x.replicas--
		}
		if x.partEmpty(l, idx) {
			x.ownBits(l)
			x.clearBit(l, idx)
		}
		removed = true
	})
	if removed {
		x.count--
	}
	return removed, nil
}

// partEmpty reports whether partition idx of level l holds no entries in
// either representation.
func (x *Index) partEmpty(l int, idx int64) bool {
	if p := x.levels[l][idx]; p != nil {
		for c := 0; c < numSubs; c++ {
			if len(p.subs[c]) > 0 {
				return false
			}
		}
	}
	if x.flat != nil {
		fl := &x.flat[l]
		for c := 0; c < numSubs; c++ {
			if len(fl.subs[c].seg(idx)) > 0 {
				return false
			}
		}
	}
	return true
}

// BulkLoad inserts ivs[i] under ids[i] and compacts the index into its
// optimized flat layout — the fast path for loading large datasets.
func (x *Index) BulkLoad(ivs []interval.Interval, ids []int64) error {
	if len(ivs) != len(ids) {
		return fmt.Errorf("hint: BulkLoad got %d intervals, %d ids", len(ivs), len(ids))
	}
	// Raw appends during the load: Optimize sorts everything once at the
	// end, instead of paying a memmove per insert.
	x.bulk = true
	var err error
	for i := range ivs {
		if err = x.Insert(ivs[i], ids[i]); err != nil {
			break
		}
	}
	x.bulk = false
	// Optimize even on error: it restores the sorted-bucket invariant
	// for the entries that did get in.
	x.Optimize()
	return err
}

// Clear drops every stored interval, keeping the configuration.
func (x *Index) Clear() {
	for l := range x.levels {
		x.levels[l] = make([]*part, 1<<uint(l))
		x.levelsGen[l] = x.gen
		x.nonempty[l] = make([]uint64, (1<<uint(l)+63)/64)
		x.bitGen[l] = x.gen
	}
	x.flat = nil
	x.count, x.entries, x.replicas, x.overlay = 0, 0, 0, 0
}

// Intersecting returns the ids of all intervals intersecting q, ascending.
func (x *Index) Intersecting(q interval.Interval) ([]int64, error) {
	var ids []int64
	if err := x.IntersectingFunc(q, func(id int64) bool { ids = append(ids, id); return true }); err != nil {
		return nil, err
	}
	slices.Sort(ids)
	return ids, nil
}

// CountIntersecting returns the number of intervals intersecting q.
func (x *Index) CountIntersecting(q interval.Interval) (int64, error) {
	var n int64
	err := x.IntersectingFunc(q, func(int64) bool { n++; return true })
	return n, err
}

// Stab returns the ids of all intervals containing the point p, ascending.
func (x *Index) Stab(p int64) ([]int64, error) {
	return x.Intersecting(interval.Point(p))
}

// String summarizes the index.
func (x *Index) String() string {
	return fmt.Sprintf("hint.Index{%s, n=%d, entries=%d, replicas=%d, flat=%d}",
		x.Name(), x.count, x.entries, x.replicas, x.FlatEntries())
}
