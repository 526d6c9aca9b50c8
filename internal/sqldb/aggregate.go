package sqldb

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Aggregates: COUNT(*) / COUNT(expr) / SUM / MIN / MAX — the shapes a DBA
// would use to sanity-check interval relations ("SELECT count(*) FROM
// Intervals WHERE node = 0") — with or without GROUP BY. The block's
// FROM/WHERE compile to the same join pipeline a plain select uses
// (including the interval merge join); one hash-aggregation sink folds the
// joined rows into per-group accumulators. An ungrouped aggregate is the
// GROUP BY with zero keys.

var aggregateNames = map[string]bool{"count": true, "sum": true, "min": true, "max": true}

// isAggregateItem reports whether the item is an aggregate call.
func isAggregateItem(item SelectItem) bool {
	call, ok := item.Expr.(*CallExpr)
	return ok && aggregateNames[strings.ToLower(call.Name)]
}

// isAggregate reports whether the select block projects aggregates.
func isAggregate(s *SelectStmt) bool {
	for _, item := range s.Items {
		if isAggregateItem(item) {
			return true
		}
	}
	return false
}

// aggState is one aggregate's accumulator; in a plan it is the template
// (name and compiled argument) each group copies.
type aggState struct {
	name  string
	arg   evalFn // nil for COUNT(*)
	count int64
	sum   int64
	min   int64
	max   int64
	seen  bool
}

func (a *aggState) add(env []int64) {
	a.count++
	if a.arg == nil {
		return
	}
	v := a.arg(env)
	a.sum += v
	if !a.seen || v < a.min {
		a.min = v
	}
	if !a.seen || v > a.max {
		a.max = v
	}
	a.seen = true
}

func (a *aggState) result() (int64, error) {
	switch a.name {
	case "count":
		return a.count, nil
	case "sum":
		return a.sum, nil
	case "min":
		if !a.seen {
			return math.MaxInt64, fmt.Errorf("sql: MIN over an empty set has no value")
		}
		return a.min, nil
	case "max":
		if !a.seen {
			return math.MinInt64, fmt.Errorf("sql: MAX over an empty set has no value")
		}
		return a.max, nil
	}
	return 0, fmt.Errorf("sql: unknown aggregate %q", a.name)
}

// aggItem is one compiled select item of an aggregating block: a GROUP
// BY expression restated (key >= 0, an index into the group's key values)
// or an aggregate template.
type aggItem struct {
	key int
	agg *aggState
}

// groupState is one hash partition: its key values and one accumulator
// per select item (unused for key items).
type groupState struct {
	keys []int64
	aggs []aggState
}

// aggNode is the aggregation sink — a pipeline breaker: a run drains the
// source join (which still does its filters and index scans row by row
// underneath), folding every row into the accumulators of its group,
// found by the encoded GROUP BY key values, and then emits one row per
// group in first-appearance order, which is deterministic without an
// ORDER BY. With zero keys there is exactly one group, and it emits its
// row even over empty input. Under a counting plan the join's count
// replaces the drain.
type aggNode struct {
	join    operator
	counter counter // non-nil instead of join: the lone COUNT(*) is the join's count
	keys    []evalFn
	items   []aggItem
	ns      *nodeStats
}

func (n *aggNode) statsNode() *nodeStats { return n.ns }

func (n *aggNode) run(ec *execCtx, emit rowFn) error {
	emit, done := ec.clock(n.ns, emit)
	defer done()
	var order []*groupState
	// newGroup appends a group with fresh accumulators copied from the
	// item templates.
	newGroup := func(keys []int64) *groupState {
		g := &groupState{keys: keys, aggs: make([]aggState, len(n.items))}
		for i, it := range n.items {
			if it.agg != nil {
				g.aggs[i] = aggState{name: it.agg.name, arg: it.agg.arg}
			}
		}
		order = append(order, g)
		return g
	}
	var drained int64
	var err error
	switch {
	case n.counter != nil:
		drained, err = n.counter.count(ec)
		newGroup(nil).aggs[0].count = drained
	case len(n.keys) == 0:
		g := newGroup(nil)
		err = n.join.run(ec, func(env []int64) bool {
			drained++
			g.add(n.items, env)
			return true
		})
	default:
		groups := make(map[string]*groupState)
		var key []byte // reused encoding buffer (see distinctNode)
		vals := make([]int64, len(n.keys))
		err = n.join.run(ec, func(env []int64) bool {
			drained++
			key = key[:0]
			for i, f := range n.keys {
				vals[i] = f(env)
				key = appendKey(key, vals[i])
			}
			g, ok := groups[string(key)]
			if !ok {
				g = newGroup(append([]int64(nil), vals...))
				groups[string(key)] = g
			}
			g.add(n.items, env)
			return true
		})
	}
	if err != nil {
		return err
	}
	// The drained rows are the sink's materialization cost.
	n.ns.addSpill(drained)
	out := make([]int64, len(n.items))
	for _, g := range order {
		for i, it := range n.items {
			if it.agg == nil {
				out[i] = g.keys[it.key]
				continue
			}
			v, err := g.aggs[i].result()
			if err != nil {
				return err
			}
			out[i] = v
		}
		n.ns.addRowsOut(1)
		if !emit(out) {
			return nil
		}
	}
	return nil
}

// add folds one joined row into the group's accumulators.
func (g *groupState) add(items []aggItem, env []int64) {
	for i, it := range items {
		if it.agg != nil {
			g.aggs[i].add(env)
		}
	}
}

// newAggState compiles one aggregate call item into its template.
func newAggState(plan *selectPlan, call *CallExpr) (*aggState, error) {
	name := strings.ToLower(call.Name)
	st := &aggState{name: name}
	if call.Star {
		if name != "count" {
			return nil, fmt.Errorf("sql: %s(*) is not valid; only COUNT(*)", strings.ToUpper(name))
		}
		return st, nil
	}
	if len(call.Args) != 1 {
		return nil, fmt.Errorf("sql: aggregate %s takes exactly one argument", strings.ToUpper(name))
	}
	f, err := plan.compile(call.Args[0], len(plan.sources)-1)
	if err != nil {
		return nil, err
	}
	st.arg = f
	return st, nil
}

// planAggregate compiles one aggregating select block: its FROM/WHERE as
// a SELECT * input plan, its GROUP BY keys into plan.groupBy, its items
// into plan.items with their labels as the output columns, and — for an
// ungrouped lone COUNT(*) — whether the count needs no row at all
// (plan.count: a merge join without post filters counts its sweep, a lone
// domain-index source without filters calls Reader.Count). The plan holds
// only templates and plan-time decisions, so the plan cache keeps it.
func (e *Engine) planAggregate(s *SelectStmt, binds bindVals) (*selectPlan, error) {
	plan, err := e.planSelect(&SelectStmt{
		Items: []SelectItem{{Star: true}},
		From:  s.From,
		Where: s.Where,
	}, binds)
	if err != nil {
		return nil, err
	}
	plan.project, plan.outCols = nil, nil
	last := len(plan.sources) - 1
	for _, g := range s.GroupBy {
		if call, ok := g.(*CallExpr); ok && aggregateNames[strings.ToLower(call.Name)] {
			return nil, fmt.Errorf("sql: aggregate %s is not allowed in GROUP BY", strings.ToUpper(call.Name))
		}
		f, err := plan.compile(g, last)
		if err != nil {
			return nil, err
		}
		plan.groupBy = append(plan.groupBy, f)
	}
	for idx, item := range s.Items {
		if item.Star && len(s.GroupBy) > 0 {
			return nil, fmt.Errorf("sql: SELECT * is not valid with GROUP BY")
		}
		label := item.As
		if isAggregateItem(item) {
			call := item.Expr.(*CallExpr)
			st, err := newAggState(plan, call)
			if err != nil {
				return nil, err
			}
			plan.items = append(plan.items, aggItem{key: -1, agg: st})
			if label == "" {
				label = strings.ToLower(call.Name)
			}
			plan.outCols = append(plan.outCols, label)
			continue
		}
		key := slices.IndexFunc(s.GroupBy, func(g Expr) bool { return exprEqual(item.Expr, g) })
		switch {
		case len(s.GroupBy) == 0:
			return nil, fmt.Errorf("sql: cannot mix aggregates and scalar expressions without GROUP BY (unsupported)")
		case key < 0:
			return nil, fmt.Errorf("sql: select item %d is neither an aggregate nor a GROUP BY expression", idx+1)
		}
		plan.items = append(plan.items, aggItem{key: key})
		if label == "" {
			if c, ok := item.Expr.(*ColumnExpr); ok {
				label = strings.ToLower(c.Column)
			} else {
				label = fmt.Sprintf("expr%d", idx+1)
			}
		}
		plan.outCols = append(plan.outCols, label)
	}
	if len(plan.groupBy) == 0 && len(plan.items) == 1 && plan.items[0].agg.name == "count" && plan.items[0].agg.arg == nil {
		switch {
		case plan.merge != nil:
			plan.count = len(plan.merge.post) == 0
		case len(plan.sources) == 1:
			sp := plan.sources[0]
			plan.count = sp.kind == accessDomain && !sp.op.exact && len(sp.filters) == 0
		}
	}
	return plan, nil
}

// exprEqual reports structural equality of two parsed expressions, with
// SQL's case-insensitivity for identifiers. It decides whether a scalar
// select item restates a GROUP BY expression.
func exprEqual(a, b Expr) bool {
	switch x := a.(type) {
	case *NumberExpr:
		y, ok := b.(*NumberExpr)
		return ok && x.Value == y.Value
	case *BindExpr:
		y, ok := b.(*BindExpr)
		return ok && x.Name == y.Name
	case *ColumnExpr:
		y, ok := b.(*ColumnExpr)
		return ok && strings.EqualFold(x.Table, y.Table) && strings.EqualFold(x.Column, y.Column)
	case *UnaryExpr:
		y, ok := b.(*UnaryExpr)
		return ok && x.Op == y.Op && exprEqual(x.X, y.X)
	case *BinaryExpr:
		y, ok := b.(*BinaryExpr)
		return ok && x.Op == y.Op && exprEqual(x.L, y.L) && exprEqual(x.R, y.R)
	case *BetweenExpr:
		y, ok := b.(*BetweenExpr)
		return ok && x.Not == y.Not && exprEqual(x.X, y.X) && exprEqual(x.Lo, y.Lo) && exprEqual(x.Hi, y.Hi)
	case *CallExpr:
		y, ok := b.(*CallExpr)
		return ok && strings.EqualFold(x.Name, y.Name) && x.Star == y.Star &&
			slices.EqualFunc(x.Args, y.Args, exprEqual)
	}
	return false
}
