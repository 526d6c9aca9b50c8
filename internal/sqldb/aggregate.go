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

// aggNode is the aggregation sink — a pipeline breaker: Open drains the
// source join (which streams, so filters and index scans still do their
// per-row work lazily underneath), folding every row into the
// accumulators of its group, found by the encoded GROUP BY key values.
// Next emits one row per group in first-appearance order, which is
// deterministic without an ORDER BY. With zero keys there is exactly one
// group, and it emits its row even over empty input. Under a counting
// plan the join's Count replaces the drain.
type aggNode struct {
	join    joinExec
	counter counterExec // non-nil: the lone COUNT(*) is the join's Count
	env     []int64
	keys    []evalFn
	items   []aggItem
	groups  map[string]*groupState
	order   []*groupState
	out     []int64
	pos     int
	ns      *nodeStats
}

// counterExec is a join that reports how many rows it would emit without
// emitting them: the counting merge join and the index-only count.
type counterExec interface {
	joinExec
	Count(ec *execCtx) (int64, error)
}

func (n *aggNode) statsNode() *nodeStats { return n.ns }

// newGroup appends a group with fresh accumulators copied from the item
// templates.
func (n *aggNode) newGroup(keys []int64) *groupState {
	g := &groupState{keys: keys, aggs: make([]aggState, len(n.items))}
	for i, it := range n.items {
		if it.agg != nil {
			g.aggs[i] = aggState{name: it.agg.name, arg: it.agg.arg}
		}
	}
	n.order = append(n.order, g)
	return g
}

func (n *aggNode) Open(ec *execCtx) error {
	if start := ec.startTimer(); !start.IsZero() {
		defer n.ns.timeFrom(start)
	}
	n.groups, n.order, n.pos = nil, nil, 0
	if len(n.keys) == 0 {
		n.newGroup(nil)
	} else {
		n.groups = make(map[string]*groupState)
	}
	if err := n.join.Open(ec); err != nil {
		return err
	}
	var drained int64
	if n.counter != nil {
		c, err := n.counter.Count(ec)
		if err != nil {
			return err
		}
		drained, n.order[0].aggs[0].count = c, c
	} else {
		var key []byte // reused encoding buffer (see distinctNode)
		vals := make([]int64, len(n.keys))
		for {
			ok, err := n.join.Next(ec)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			drained++
			var g *groupState
			if len(n.keys) == 0 {
				g = n.order[0]
			} else {
				key = key[:0]
				for i, f := range n.keys {
					vals[i] = f(n.env)
					key = appendKey(key, vals[i])
				}
				if g, ok = n.groups[string(key)]; !ok {
					g = n.newGroup(append([]int64(nil), vals...))
					n.groups[string(key)] = g
				}
			}
			for i, it := range n.items {
				if it.agg != nil {
					g.aggs[i].add(n.env)
				}
			}
		}
	}
	_ = n.join.Close()
	// The drained rows are the sink's materialization cost.
	n.ns.addSpill(drained)
	n.out = make([]int64, len(n.items))
	return nil
}

func (n *aggNode) Next(ec *execCtx) (bool, error) {
	if n.pos >= len(n.order) {
		return false, nil
	}
	g := n.order[n.pos]
	n.pos++
	for i, it := range n.items {
		if it.agg == nil {
			n.out[i] = g.keys[it.key]
			continue
		}
		v, err := g.aggs[i].result()
		if err != nil {
			return false, err
		}
		n.out[i] = v
	}
	n.ns.addRowsOut(1)
	return true, nil
}

func (n *aggNode) Close() error {
	n.groups, n.order = nil, nil
	return n.join.Close()
}

func (n *aggNode) Row() []int64 { return n.out }

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
