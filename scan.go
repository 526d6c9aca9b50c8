package ritree

import (
	"context"
	"errors"
	"iter"
)

// errZeroQuery reports a zero Query value passed to Scan.
var errZeroQuery = errors.New("ritree: zero Query value; use Intersects, Stabbing or Related")

// Query describes one streaming query for Collection.Scan. Build one with
// Intersects, Stabbing or Related; the zero value is invalid.
type Query struct {
	kind queryKind
	iv   Interval
	r    Relation
	p    int64
}

type queryKind int

const (
	queryZero queryKind = iota
	queryIntersects
	queryStab
	queryRelation
)

// Intersects matches every interval sharing at least one point with q.
func Intersects(q Interval) Query { return Query{kind: queryIntersects, iv: q} }

// Stabbing matches every interval containing the point p.
func Stabbing(p int64) Query { return Query{kind: queryStab, p: p} }

// Related matches every interval i with "i r q" under Allen relation r
// (paper §4.5).
func Related(r Relation, q Interval) Query { return Query{kind: queryRelation, r: r, iv: q} }

// String names the query for logs and errors.
func (q Query) String() string {
	switch q.kind {
	case queryIntersects:
		return "intersects " + q.iv.String()
	case queryStab:
		return "stabbing " + Point(q.p).String()
	case queryRelation:
		return q.r.String() + " " + q.iv.String()
	}
	return "invalid query"
}

// scanSeq adapts a callback-streaming query into a range-over-func
// iterator with context cancellation. run streams ids into the wrapped
// yield; a cancelled ctx or a query error is delivered as one final
// (0, err) pair, matching the iter.Seq2 error convention. Cancellation is
// observed before the scan starts, at every yielded id, and once more at
// completion — so a cancelled ctx always surfaces, including on scans
// that match nothing. A scan that is never ranged over costs nothing.
func scanSeq(ctx context.Context, run func(fn func(int64) bool) error) iter.Seq2[int64, error] {
	return func(yield func(int64, error) bool) {
		ctxErr := func() error {
			if ctx == nil {
				return nil
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
				return nil
			}
		}
		if err := ctxErr(); err != nil {
			yield(0, err)
			return
		}
		var cancelErr error
		stopped := false
		err := run(func(id int64) bool {
			if cancelErr = ctxErr(); cancelErr != nil {
				return false
			}
			if !yield(id, nil) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
		if err == nil {
			err = cancelErr
		}
		if err == nil {
			err = ctxErr() // surfaces cancellation even on match-less scans
		}
		if err != nil {
			yield(0, err)
		}
	}
}
