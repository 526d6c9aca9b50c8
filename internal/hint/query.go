package hint

import (
	"fmt"
	"sort"

	"ritree/internal/interval"
)

// IntersectingFunc streams the ids of all intervals intersecting q, each
// exactly once, in no particular order; return false from fn to stop
// early.
//
// Per level, with first/last relevant partitions f and t (the partitions
// of q's endpoints):
//
//   - partition f: originals and replicas, filtered on end >= q.lo —
//     the *Aft subdivisions skip even that comparison, since they
//     provably continue past the partition holding q.lo;
//   - partitions strictly between f and t: originals, comparison-free
//     (they begin inside a partition fully covered by q);
//   - partition t (if t > f): originals, filtered on start <= q.hi.
//
// Replicas outside partition f are never reported: their original copy
// is reported elsewhere.
//
// Each consulted partition is a bitmap probe first (dead partitions cost
// no memory touch), then up to two sorted runs per subdivision: the flat
// segment built by Optimize and the dynamic overlay bucket. Sorted
// subdivisions turn the start <= q.hi filters into a binary-searched
// prefix and the replica end >= q.lo filters into a binary-searched
// suffix, both emitted comparison-free; the only per-entry comparisons
// left are the end checks on partition f's originals (which are sorted
// by start, the key partition t needs from them — the paper's one
// unresolvable sort-order conflict). A query endpoint aligned with a
// partition boundary skips the comparisons on its side entirely.
func (x *Index) IntersectingFunc(q interval.Interval, fn func(id int64) bool) error {
	if !q.Valid() {
		return fmt.Errorf("hint: invalid query %v", q)
	}
	qlo := x.clamp(q.Lower)
	qhi := x.clamp(q.Upper)
	// The per-level partition-alignment shortcuts below justify skipped
	// comparisons from partition geometry against the query bound — which
	// is only the true bound when clamping did not move it. A clamped
	// endpoint (out-of-domain query) therefore falls back to comparisons
	// on that side.
	loExact := qlo == q.Lower
	hiExact := qhi == q.Upper

	// Metrics are tallied in plain locals through the scan and flushed
	// once at the end (flush on a nil met is a no-op). An early-stopped
	// scan counts the partitions it never reached as skipped: they were
	// relevant but not consulted.
	var tally queryTally
	if x.met != nil {
		defer x.met.flush(&tally)
	}

	emit := func(s []entry) bool {
		for i := range s {
			if !fn(s[i].id) {
				return false
			}
		}
		return true
	}
	// end >= bound with per-entry comparisons: the path for partition
	// f's originals (sorted by start, so their ends have no order to
	// exploit).
	scanEndGE := func(s []entry, bound int64) bool {
		for i := range s {
			if s[i].hi >= bound && !fn(s[i].id) {
				return false
			}
		}
		return true
	}
	// end >= bound over a subdivision sorted by end: binary search to the
	// qualifying suffix, emit it comparison-free.
	emitEndGE := func(s []entry, bound int64) bool {
		i := sort.Search(len(s), func(i int) bool { return s[i].hi >= bound })
		return emit(s[i:])
	}
	// start <= bound over a subdivision sorted by start: binary search to
	// the qualifying prefix.
	emitStartLE := func(s []entry, bound int64) bool {
		n := sort.Search(len(s), func(i int) bool { return s[i].lo > bound })
		return emit(s[:n])
	}
	// Both filters at once (the f == t originals-in case): narrow to the
	// start <= q.hi prefix by binary search, then compare ends inside it.
	emitBoth := func(s []entry, skipStart, skipEnd bool) bool {
		if skipStart && skipEnd {
			return emit(s)
		}
		if skipStart {
			return scanEndGE(s, q.Lower)
		}
		n := sort.Search(len(s), func(i int) bool { return s[i].lo > q.Upper })
		if skipEnd {
			return emit(s[:n])
		}
		return scanEndGE(s[:n], q.Lower)
	}

	f := qlo >> x.shift
	t := qhi >> x.shift
	for l := x.m; l >= 0; l-- {
		parts := x.levels[l]
		var fl *flatLevel
		if x.flat != nil {
			fl = &x.flat[l]
		}
		// runs yields the two storage runs of (partition idx, class c):
		// the flat segment and the overlay bucket, each sorted.
		runs := func(idx int64, c int) (flatSeg, dyn []entry) {
			if fl != nil {
				flatSeg = fl.subs[c].seg(idx)
			}
			if p := parts[idx]; p != nil {
				dyn = p.subs[c]
			}
			if len(flatSeg) > 0 {
				tally.flatRuns++
			}
			if len(dyn) > 0 {
				tally.overlayRuns++
			}
			return flatSeg, dyn
		}
		both := func(idx int64, c int, e func(s []entry) bool) bool {
			a, b := runs(idx, c)
			return e(a) && e(b)
		}
		span := uint(x.bits - l) // log2 of the partition width at level l
		if f == t {
			if x.hasAny(l, f) {
				tally.visited++
				// q lies inside a single partition: originals need the
				// comparisons their subdivision cannot rule out, replicas
				// start before the partition (hence before q.hi) for free.
				skipEnd := loExact && f<<span == qlo
				skipStart := hiExact && (f+1)<<span-1 == qhi
				if !both(f, cOIn, func(s []entry) bool { return emitBoth(s, skipStart, skipEnd) }) {
					return nil
				}
				if skipStart {
					if !both(f, cOAft, emit) {
						return nil
					}
				} else if !both(f, cOAft, func(s []entry) bool { return emitStartLE(s, q.Upper) }) {
					return nil
				}
				if skipEnd {
					if !both(f, cRIn, emit) {
						return nil
					}
				} else if !both(f, cRIn, func(s []entry) bool { return emitEndGE(s, q.Lower) }) {
					return nil
				}
				if !both(f, cRAft, emit) {
					return nil
				}
			} else {
				tally.skipped++
			}
		} else {
			if x.hasAny(l, f) {
				tally.visited++
				skipEnd := loExact && f<<span == qlo
				if skipEnd {
					if !both(f, cOIn, emit) || !both(f, cRIn, emit) {
						return nil
					}
				} else if !both(f, cOIn, func(s []entry) bool { return scanEndGE(s, q.Lower) }) ||
					!both(f, cRIn, func(s []entry) bool { return emitEndGE(s, q.Lower) }) {
					return nil
				}
				if !both(f, cOAft, emit) || !both(f, cRAft, emit) {
					return nil
				}
			} else {
				tally.skipped++
			}
			nmid := t - f - 1
			ok := x.forNonempty(l, f+1, t-1, func(i int64) bool {
				tally.visited++
				nmid--
				return both(i, cOIn, emit) && both(i, cOAft, emit)
			})
			tally.skipped += nmid
			if !ok {
				return nil
			}
			if x.hasAny(l, t) {
				tally.visited++
				skipStart := hiExact && (t+1)<<span-1 == qhi
				if skipStart {
					if !both(t, cOIn, emit) || !both(t, cOAft, emit) {
						return nil
					}
				} else if !both(t, cOIn, func(s []entry) bool { return emitStartLE(s, q.Upper) }) ||
					!both(t, cOAft, func(s []entry) bool { return emitStartLE(s, q.Upper) }) {
					return nil
				}
			} else {
				tally.skipped++
			}
		}
		f >>= 1
		t >>= 1
	}
	return nil
}
