package hint

// Ordered streaming over the index's original copies — the feed of the
// SQL layer's interval merge join (Piatov et al., "Cache-Efficient
// Sweeping-Based Interval Joins", see PAPERS.md): the join wants both
// inputs sorted by interval lower bound, and HINT's flat storage already
// keeps every original-class segment sorted by start, so the sorted feed
// is a k-way merge of runs that exist anyway — no O(n log n) sort, no
// extra copy of the data.
//
// Every stored interval has exactly one original copy (the unique
// partition of its decomposition containing its start; see visitPart), in
// class cOIn or cOAft of exactly one partition of one level. Those are
// precisely the sorted-by-lo classes, so merging all cOIn/cOAft segments
// — flat and overlay — across all levels yields each interval exactly
// once, in ascending (lo, hi, id) order of the head keys.

// orderedRun is one sorted run in the k-way merge.
type orderedRun struct {
	ents []entry
	pos  int
}

// appendOriginalRuns collects every nonempty original-class segment of x
// as a sorted run. (Segments are unsorted only while a BulkLoad is in
// progress, which happens on a writer's private clone, never on an index
// a scan can reach.)
func (x *Index) appendOriginalRuns(runs []orderedRun) []orderedRun {
	for l := 0; l <= x.m; l++ {
		var fl *flatLevel
		if x.flat != nil {
			fl = &x.flat[l]
		}
		for _, c := range [2]int{cOIn, cOAft} {
			if fl != nil && fl.subs[c].off != nil {
				fs := &fl.subs[c]
				for i := int64(0); i < int64(len(fs.cnt)); i++ {
					if s := fs.seg(i); len(s) > 0 {
						runs = append(runs, orderedRun{ents: s})
					}
				}
			}
		}
		for _, p := range x.levels[l] {
			if p == nil {
				continue
			}
			for _, c := range [2]int{cOIn, cOAft} {
				if s := p.subs[c]; len(s) > 0 {
					runs = append(runs, orderedRun{ents: s})
				}
			}
		}
	}
	return runs
}

// runLess orders the merge heap by the head entry's (lo, hi, id) key.
func runLess(a, b *orderedRun) bool {
	ea, eb := a.ents[a.pos], b.ents[b.pos]
	if ea.lo != eb.lo {
		return ea.lo < eb.lo
	}
	if ea.hi != eb.hi {
		return ea.hi < eb.hi
	}
	return ea.id < eb.id
}

// mergeRuns streams the union of the runs in ascending (lo, hi, id) order
// through fn until exhaustion or fn returns false. A hand-rolled binary
// heap: the merge is per-row on the join's drain path, so it avoids the
// interface boxing of container/heap.
func mergeRuns(runs []orderedRun, fn func(e entry) bool) {
	h := make([]*orderedRun, 0, len(runs))
	for i := range runs {
		h = append(h, &runs[i])
	}
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(h, i, n)
	}
	for n > 0 {
		r := h[0]
		if !fn(r.ents[r.pos]) {
			return
		}
		r.pos++
		if r.pos == len(r.ents) {
			h[0] = h[n-1]
			n--
		}
		siftDown(h, 0, n)
	}
}

func siftDown(h []*orderedRun, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && runLess(h[r], h[l]) {
			c = r
		}
		if !runLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// ScanStartOrdered streams every stored interval of every shard exactly
// once, ascending by (Lower, Upper, id) — the shards' runs merge into one
// globally ordered stream. The scan runs over the shards' currently
// published COW generations, so it never blocks writers; like
// IntersectingFunc it observes the generations current at call time.
func (s *Sharded) ScanStartOrdered(fn func(lo, hi, id int64) bool) {
	var runs []orderedRun
	for i := range s.shards {
		runs = s.shards[i].load().appendOriginalRuns(runs)
	}
	mergeRuns(runs, func(e entry) bool { return fn(e.lo, e.hi, e.id) })
}
