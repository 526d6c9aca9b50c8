package hint

// Cache-conscious flattened storage (HINT paper §4.4): instead of one Go
// slice per partition and subdivision — pointers scattered across the
// heap — Optimize lays every level out as one contiguous entry array per
// subdivision class plus an offset table, so the partitions a query
// touches are sequential reads of adjacent memory. A per-level bitmap of
// nonempty partitions lets queries skip dead partitions without loading
// their offsets at all.
//
// The flat storage is paired with the dynamic overlay in hint.go:
// Optimize folds the overlay in and empties it; Insert keeps appending to
// the overlay; Delete compacts the owning flat segment in place (the
// segment keeps its live entries as a prefix, so emission stays
// branch-free). Levels whose entry count would overflow the int32 offset
// arithmetic are left in overlay form — a >2^31-entries-per-level index
// is out of scope for this layout.

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// flatSub is one subdivision class of one level, flattened: the class-c
// entries of partition i live in ents[off[i] : off[i]+cnt[i]], sorted by
// the class key. off is immutable between Optimize calls; cnt shrinks
// when Delete compacts a segment, leaving dead capacity that the next
// Optimize reclaims.
type flatSub struct {
	ents []entry
	off  []int32
	cnt  []int32
	// gen is the COW generation owning ents/cnt (see cow.go); flatRemove
	// clones them once per generation before compacting in place.
	gen uint64
}

// seg returns partition i's live entries (nil if the class is empty at
// this level).
func (fs *flatSub) seg(i int64) []entry {
	if fs.off == nil {
		return nil
	}
	o := fs.off[i]
	return fs.ents[o : o+fs.cnt[i]]
}

// flatLevel is one level's flattened storage.
type flatLevel struct {
	subs [numSubs]flatSub
}

// Flat-segment deletion lives in cow.go (Index.flatRemove): it must
// privatize the level's arrays before compacting a segment in place.

// Optimize compacts the index into its cache-conscious layout: per level
// and subdivision class, one flat sorted entry array plus offset table,
// folding in everything the dynamic overlay accumulated since the last
// call and reclaiming the slack left by deletions. Queries before the
// first Optimize run off the overlay alone; BulkLoad calls Optimize
// automatically. The call is O(entries) and safe to repeat — a no-op
// pass over an already-compact index just re-copies it.
func (x *Index) Optimize() {
	flat := make([]flatLevel, x.m+1)
	var overlayLeft int64
	for l := 0; l <= x.m; l++ {
		if !x.optimizeLevel(l, &flat[l]) {
			// int32 overflow guard tripped: keep this level's storage
			// as-is, but restore the sorted-bucket invariant the query
			// and delete paths rely on — BulkLoad appends raw and counts
			// on Optimize to sort.
			if x.flat != nil {
				flat[l] = x.flat[l]
			}
			for i, p := range x.levels[l] {
				if p == nil {
					continue
				}
				for c := 0; c < numSubs; c++ {
					if c != cRAft && len(p.subs[c]) > 1 {
						// Sorting writes; privatize the bucket first.
						op := x.ownPart(l, int64(i))
						sortSegment(*x.ownBucket(op, c), c)
						p = x.levels[l][i]
					}
					overlayLeft += int64(len(p.subs[c]))
				}
			}
		}
	}
	x.flat = flat
	x.overlay = overlayLeft
}

// optimizeLevel rebuilds level l into out, merging the old flat storage
// with the overlay, and resets the level's overlay and bitmap. Returns
// false (leaving the level untouched) if the level's entry count
// overflows the int32 offsets.
func (x *Index) optimizeLevel(l int, out *flatLevel) bool {
	parts := x.levels[l]
	var oldFlat *flatLevel
	if x.flat != nil {
		oldFlat = &x.flat[l]
	}
	P := int64(1) << uint(l)

	var total [numSubs]int64
	for c := 0; c < numSubs; c++ {
		if oldFlat != nil && oldFlat.subs[c].cnt != nil {
			for _, n := range oldFlat.subs[c].cnt {
				total[c] += int64(n)
			}
		}
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		for c := 0; c < numSubs; c++ {
			total[c] += int64(len(p.subs[c]))
		}
	}
	for c := 0; c < numSubs; c++ {
		if total[c] > math.MaxInt32 {
			return false
		}
	}

	x.ownBits(l)
	words := x.nonempty[l]
	clear(words)
	for c := 0; c < numSubs; c++ {
		if total[c] == 0 {
			continue
		}
		fs := &out.subs[c]
		fs.gen = x.gen
		fs.ents = make([]entry, 0, total[c])
		fs.off = make([]int32, P+1)
		fs.cnt = make([]int32, P)
		var oldSub *flatSub
		if oldFlat != nil {
			oldSub = &oldFlat.subs[c]
		}
		for i := int64(0); i < P; i++ {
			fs.off[i] = int32(len(fs.ents))
			if oldSub != nil {
				fs.ents = append(fs.ents, oldSub.seg(i)...)
			}
			if p := parts[i]; p != nil {
				fs.ents = append(fs.ents, p.subs[c]...)
			}
			n := int32(len(fs.ents)) - fs.off[i]
			fs.cnt[i] = n
			if n > 0 {
				words[i>>6] |= 1 << uint(i&63)
				if c != cRAft {
					sortSegment(fs.ents[fs.off[i]:], c)
				}
			}
		}
		fs.off[P] = int32(len(fs.ents))
	}
	x.levels[l] = make([]*part, P)
	x.levelsGen[l] = x.gen
	return true
}

// sortSegment orders one partition segment by its class key, with (other
// endpoint, id) tie-breaks for determinism. slices.SortFunc, not
// sort.Slice: this runs for every segment of every compaction, and the
// concrete comparator avoids the reflection-based swapper.
func sortSegment(s []entry, c int) {
	if c == cRIn {
		slices.SortFunc(s, func(a, b entry) int {
			if r := cmp.Compare(a.hi, b.hi); r != 0 {
				return r
			}
			if r := cmp.Compare(a.lo, b.lo); r != 0 {
				return r
			}
			return cmp.Compare(a.id, b.id)
		})
		return
	}
	slices.SortFunc(s, func(a, b entry) int {
		if r := cmp.Compare(a.lo, b.lo); r != 0 {
			return r
		}
		if r := cmp.Compare(a.hi, b.hi); r != 0 {
			return r
		}
		return cmp.Compare(a.id, b.id)
	})
}

// installFlat installs externally reconstructed flat storage (the
// snapshot load path, see snapshot.go) wholesale: the index must be
// freshly constructed (empty overlay, zero counters). The per-level
// bitmaps are recomputed from the count tables so queries can skip empty
// partitions exactly as after an Optimize.
func (x *Index) installFlat(flat []flatLevel, count, entries, replicas int64) {
	x.flat = flat
	x.count, x.entries, x.replicas, x.overlay = count, entries, replicas, 0
	for l := 0; l <= x.m; l++ {
		words := x.nonempty[l]
		for c := 0; c < numSubs; c++ {
			cnt := flat[l].subs[c].cnt
			for i := range cnt {
				if cnt[i] > 0 {
					words[i>>6] |= 1 << uint(i&63)
				}
			}
		}
	}
}

// --- nonempty-partition bitmaps -----------------------------------------

func (x *Index) setBit(l int, idx int64) {
	x.nonempty[l][idx>>6] |= 1 << uint(idx&63)
}

func (x *Index) clearBit(l int, idx int64) {
	x.nonempty[l][idx>>6] &^= 1 << uint(idx&63)
}

// hasAny reports whether partition idx of level l holds any entry.
func (x *Index) hasAny(l int, idx int64) bool {
	return x.nonempty[l][idx>>6]&(1<<uint(idx&63)) != 0
}

// forNonempty calls fn for every nonempty partition of level l with index
// in [from, to], skipping empty partitions a whole 64-partition word at a
// time. Returns false if fn stopped the iteration.
func (x *Index) forNonempty(l int, from, to int64, fn func(idx int64) bool) bool {
	if from > to {
		return true
	}
	words := x.nonempty[l]
	first, last := from>>6, to>>6
	for wi := first; wi <= last; wi++ {
		w := words[wi]
		if wi == first {
			w &= ^uint64(0) << uint(from&63)
		}
		if wi == last {
			w &= ^uint64(0) >> uint(63-to&63)
		}
		base := wi << 6
		for w != 0 {
			if !fn(base + int64(bits.TrailingZeros64(w))) {
				return false
			}
			w &= w - 1
		}
	}
	return true
}
