package ritree

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ritree/internal/interval"
	"ritree/internal/rel"
)

// This file implements the fine-grained topological query predicates of
// paper §4.5: all 13 Allen relations are answered through the RI-tree by
// running a *generating* intersection query whose region is derived from
// the predicate, then applying the exact relation as a residual filter.
// Because the generating region for bound-referencing predicates (meets,
// met-by, starts, finishes, ...) is a single stabbing point, both interval
// bounds are supported equally well — unlike the IB+-tree or the IST
// composite indexes, which degrade to O(n) on the "wrong" bound (§4.5).

// QueryRelationFunc streams the id of every stored interval i for which
// the Allen relation "i r q" holds, in no particular order; return false
// from fn to stop early. The evaluation strategy is the paper's: run the
// generating intersection query of the predicate (interval.GeneratingRegion)
// and apply the exact relation as a residual filter on the candidate rows.
// Stored now-relative intervals are evaluated with their effective upper
// bound Now(); infinite intervals keep the +∞ sentinel (which compares
// greater than any finite bound, giving the natural semantics).
func (t *Tree) QueryRelationFunc(r interval.Relation, q interval.Interval, fn func(id int64) bool) error {
	if !q.Valid() {
		return fmt.Errorf("ritree: invalid query interval %v", q)
	}
	region, ok := interval.GeneratingRegion(r, q)
	if !ok {
		return nil
	}
	row := make([]int64, 4)
	var readErr error
	err := t.intersectingRows(region, func(id int64, rid rel.RowID) bool {
		if err := t.tab.GetRawInto(rid, row); err != nil {
			if errors.Is(err, rel.ErrNoSuchRow) {
				return true
			}
			readErr = err // an unreadable row fails the query, never shortens it
			return false
		}
		iv := interval.New(row[colLower], row[colUpper])
		if iv.Upper == interval.NowMarker {
			iv.Upper = t.now
			if !iv.Valid() {
				return true // born in the future of the evaluation time
			}
		}
		if r.Holds(iv, q) {
			return fn(id)
		}
		return true
	})
	if readErr != nil {
		return readErr
	}
	return err
}

// QueryRelation returns the ids of all stored intervals i for which the
// Allen relation "i r q" holds, sorted ascending.
func (t *Tree) QueryRelation(r interval.Relation, q interval.Interval) ([]int64, error) {
	var ids []int64
	err := t.QueryRelationFunc(r, q, func(id int64) bool {
		ids = append(ids, id)
		return true
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(ids)
	return ids, nil
}

// intersectingRows is IntersectingFunc with access to the row id, used by
// predicates that must inspect both interval bounds.
func (t *Tree) intersectingRows(q interval.Interval, fn func(id int64, rid rel.RowID) bool) error {
	if !q.Valid() {
		return nil
	}
	tn := t.collectNodes(q)
	stop := false
	for _, nr := range tn.Left {
		err := t.upperIx.Scan(
			[]int64{nr.Min, q.Lower},
			[]int64{nr.Max, math.MaxInt64},
			func(key []int64, rid rel.RowID) bool {
				if key[1] < q.Lower {
					return true
				}
				if !fn(key[2], rid) {
					stop = true
					return false
				}
				return true
			})
		if err != nil || stop {
			return err
		}
	}
	for _, w := range tn.Right {
		err := t.lowerIx.Scan(
			[]int64{w, math.MinInt64},
			[]int64{w, q.Upper},
			func(key []int64, rid rel.RowID) bool {
				if !fn(key[2], rid) {
					stop = true
					return false
				}
				return true
			})
		if err != nil || stop {
			return err
		}
	}
	return nil
}
