package sqldb

import (
	"fmt"
	"strings"

	"ritree/internal/interval"
)

// The interval operators of the SQL surface, owned by the engine:
//
//	INTERSECTS(lowerCol, upperCol, :qlo, :qhi)
//	CONTAINS_POINT(lowerCol, upperCol, :p)
//	ALLEN_DURING(lowerCol, upperCol, :qlo, :qhi)   (one per Allen relation)
//
// Every one reduces to the paper's §4.5 plan: one intersection query over
// a region derived from the query arguments (interval.GeneratingRegion),
// plus — for the thirteen Allen relations — the exact relation checked on
// each candidate's stored bounds. An access method therefore answers one
// question, Reader.Scan(region), and knows no operator name. The planner
// (domain-index access, merge-join detection, index-only COUNT), compile
// (evaluation without an index) and the merge join's query side all read
// this table, so each operator means the same on every path.

// intervalOp is one operator of the table.
type intervalOp struct {
	name  string // SQL name, upper case
	point bool   // one query argument, a point, instead of (qlo, qhi)
	// exact marks the Allen operators: rel must hold on each candidate of
	// the region scan. INTERSECTS and CONTAINS_POINT are the scan itself.
	exact bool
	rel   interval.Relation
}

// allenName is the SQL name of relation r: underscores where the
// relation's conventional name has hyphens (ALLEN_FINISHED_BY).
func allenName(r interval.Relation) string {
	return "allen_" + strings.ReplaceAll(r.String(), "-", "_")
}

// intervalOps maps lower-case operator names to their entries.
var intervalOps = func() map[string]*intervalOp {
	m := map[string]*intervalOp{
		"intersects":     {name: "INTERSECTS"},
		"contains_point": {name: "CONTAINS_POINT", point: true},
	}
	for r := interval.Relation(0); int(r) < interval.NumRelations; r++ {
		m[allenName(r)] = &intervalOp{name: strings.ToUpper(allenName(r)), exact: true, rel: r}
	}
	return m
}()

// lookupOp resolves an operator name case-insensitively; nil when the
// name is no interval operator.
func lookupOp(name string) *intervalOp { return intervalOps[strings.ToLower(name)] }

// AllenOperatorNames lists the thirteen ALLEN_* SQL operator names in
// relation order (for docs and the risql \help output).
func AllenOperatorNames() []string {
	names := make([]string, 0, interval.NumRelations)
	for r := interval.Relation(0); int(r) < interval.NumRelations; r++ {
		names = append(names, allenName(r))
	}
	return names
}

// arity is the operator's argument count: the two indexed columns and
// its query arguments.
func (op *intervalOp) arity() int {
	if op.point {
		return 3
	}
	return 4
}

// bounds validates a query interval. An inverted one is a runtime fault
// with the same text on every path — index scan, residual, merge join —
// because the bounds may be join columns evaluated per row.
func (op *intervalOp) bounds(lo, hi int64) (interval.Interval, error) {
	if lo > hi {
		return interval.Interval{}, sqlRuntimeError{fmt.Sprintf("%s got the inverted query interval [%d, %d]", op.name, lo, hi)}
	}
	return interval.New(lo, hi), nil
}

// query evaluates the compiled query arguments against env: (qlo, qhi),
// or a point p as [p, p].
func (op *intervalOp) query(args []evalFn, env []int64) (interval.Interval, error) {
	return op.bounds(args[0](env), args[len(args)-1](env))
}

// region is the intersection query generating every row that can satisfy
// the operator on q; ok is false when none can.
func (op *intervalOp) region(q interval.Interval) (interval.Interval, bool) {
	if !op.exact {
		return q, true
	}
	return interval.GeneratingRegion(op.rel, q)
}

// holds evaluates the operator on one stored interval. A now-relative
// upper bound (§4.6) resolves to now first; an interval that is then
// empty — born in the future, or stored inverted in a table no index
// validates — matches nothing, as in the merge join.
func (op *intervalOp) holds(lo, hi, now int64, q interval.Interval) bool {
	if hi == interval.NowMarker {
		hi = now
	}
	iv := interval.New(lo, hi)
	if !iv.Valid() {
		return false
	}
	if !op.exact {
		return iv.Intersects(q)
	}
	return op.rel.Holds(iv, q)
}

// IntersectsQuery validates an intersection query the way the SQL
// operator does, for callers that scan a Reader directly.
func IntersectsQuery(q interval.Interval) error {
	_, err := intervalOps["intersects"].bounds(q.Lower, q.Upper)
	return err
}
