package main

import (
	"sort"

	"ritree/internal/interval"
)

// oracle answers "how many intervals intersect [lo, hi], and what do their
// ids sum to" without any engine code: an interval misses the query iff it
// ends before lo or starts after hi, so two sorted endpoint arrays with
// prefix sums of the ids give both numbers by binary search.
type oracle struct {
	uppers, lowers   []int64 // sorted
	upperSum, lowSum []int64 // upperSum[k] = id sum of the k smallest uppers
	n, total         int64
}

func newOracle(ivs []interval.Interval, ids []int64) *oracle {
	build := func(key func(interval.Interval) int64) (keys, sums []int64) {
		order := make([]int, len(ivs))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return key(ivs[order[a]]) < key(ivs[order[b]]) })
		keys = make([]int64, len(ivs))
		sums = make([]int64, len(ivs)+1)
		for k, i := range order {
			keys[k] = key(ivs[i])
			sums[k+1] = sums[k] + ids[i]
		}
		return keys, sums
	}
	o := &oracle{n: int64(len(ivs))}
	o.uppers, o.upperSum = build(func(iv interval.Interval) int64 { return iv.Upper })
	o.lowers, o.lowSum = build(func(iv interval.Interval) int64 { return iv.Lower })
	o.total = o.lowSum[len(ivs)]
	return o
}

func (o *oracle) expect(lo, hi int64) (rows, sum int64) {
	before := sort.Search(len(o.uppers), func(i int) bool { return o.uppers[i] >= lo })
	notAfter := sort.Search(len(o.lowers), func(i int) bool { return o.lowers[i] > hi })
	rows = int64(notAfter - before)
	sum = o.lowSum[notAfter] - o.upperSum[before]
	return rows, sum
}

// overlapPairs counts the pairs (a, b) with "a overlaps b" in Allen's
// strict sense (a starts first, b starts inside a, b ends last). b is
// sorted by lower bound once; each a then tests only the b that start
// inside it.
func overlapPairs(as, bs []interval.Interval) int64 {
	sorted := append([]interval.Interval(nil), bs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lower < sorted[j].Lower })
	var pairs int64
	for _, a := range as {
		from := sort.Search(len(sorted), func(i int) bool { return sorted[i].Lower > a.Lower })
		for _, b := range sorted[from:] {
			if b.Lower >= a.Upper {
				break
			}
			if interval.Overlaps.Holds(a, b) {
				pairs++
			}
		}
	}
	return pairs
}
