package sqldb

import (
	"fmt"
	"math"
	"strings"
)

// Aggregates: COUNT(*) / COUNT(expr) / SUM / MIN / MAX — the shapes a DBA
// would use to sanity-check interval relations ("SELECT count(*) FROM
// Intervals WHERE node = 0"). Ungrouped blocks aggregate to one row here;
// blocks with GROUP BY hash-partition in groupby.go.

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

// aggNode is the aggregation sink of the streaming pipeline — a
// pipeline breaker: Open drains the source join (which streams, so
// filters and index scans still do their per-row work lazily underneath)
// and computes the single output row; Next emits it once. Under a
// counting plan the join's Count replaces the drain.
type aggNode struct {
	join    joinExec
	counter counterExec // non-nil: the lone COUNT(*) is the join's Count
	env     []int64
	states  []*aggState
	out     []int64
	done    bool
	ns      *nodeStats
}

// counterExec is a join that reports how many rows it would emit without
// emitting them: the counting merge join and the index-only count.
type counterExec interface {
	joinExec
	Count(ec *execCtx) (int64, error)
}

func (n *aggNode) statsNode() *nodeStats { return n.ns }

func (n *aggNode) Open(ec *execCtx) error {
	if start := ec.startTimer(); !start.IsZero() {
		defer n.ns.timeFrom(start)
	}
	n.done = false
	for _, st := range n.states {
		st.count, st.sum, st.seen = 0, 0, false
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
		drained, n.states[0].count = c, c
	} else {
		for {
			ok, err := n.join.Next(ec)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			drained++
			for _, st := range n.states {
				st.add(n.env)
			}
		}
	}
	_ = n.join.Close()
	// Aggregation consumes its whole input in Open — a pipeline breaker;
	// the drained rows are its spill cost.
	ec.stats.spillRows.Add(drained)
	n.ns.addSpill(drained)
	n.out = make([]int64, len(n.states))
	for i, st := range n.states {
		v, err := st.result()
		if err != nil {
			return err
		}
		n.out[i] = v
	}
	return nil
}

func (n *aggNode) Next(ec *execCtx) (bool, error) {
	if n.done {
		return false, nil
	}
	n.done = true
	n.ns.addRowsOut(1)
	return true, nil
}

func (n *aggNode) Close() error { return n.join.Close() }
func (n *aggNode) Row() []int64 { return n.out }

// newAggState compiles one aggregate call item into its accumulator.
func newAggState(plan *selectPlan, call *CallExpr, binds map[string]interface{}) (*aggState, error) {
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

// planInput compiles the FROM/WHERE of an aggregating block as a SELECT *
// plan: the input of its aggregation sink.
func (e *Engine) planInput(s *SelectStmt, binds map[string]interface{}) (*selectPlan, error) {
	return e.planSelect(&SelectStmt{
		Items: []SelectItem{{Star: true}},
		From:  s.From,
		Where: s.Where,
	}, binds)
}

// planAggregateInput compiles the FROM/WHERE of a grouped block as a
// SELECT * plan bound onto the snapshot view.
func (e *Engine) planAggregateInput(s *SelectStmt, binds map[string]interface{}, v *execView) (*selectPlan, error) {
	plan, err := e.planInput(s, binds)
	if err != nil {
		return nil, err
	}
	if err := bindPlan(plan, &v.readState); err != nil {
		return nil, err
	}
	return plan, nil
}

// planAggregate compiles one aggregate-projecting select block (no GROUP
// BY): its FROM/WHERE as a SELECT * input plan, its items into plan.aggs
// with their labels as the output columns, and whether a lone COUNT(*)
// can be answered without producing rows (plan.count). The plan is
// execution-independent, so the plan cache keeps it.
func (e *Engine) planAggregate(s *SelectStmt, binds map[string]interface{}) (*selectPlan, error) {
	plan, err := e.planInput(s, binds)
	if err != nil {
		return nil, err
	}
	plan.project, plan.outCols = nil, nil
	for _, item := range s.Items {
		call, ok := item.Expr.(*CallExpr)
		if !ok || !aggregateNames[strings.ToLower(call.Name)] {
			return nil, fmt.Errorf("sql: cannot mix aggregates and scalar expressions without GROUP BY (unsupported)")
		}
		st, err := newAggState(plan, call, binds)
		if err != nil {
			return nil, err
		}
		plan.aggs = append(plan.aggs, st)
		label := item.As
		if label == "" {
			label = strings.ToLower(call.Name)
		}
		plan.outCols = append(plan.outCols, label)
	}
	if len(plan.aggs) == 1 && plan.aggs[0].name == "count" && plan.aggs[0].arg == nil {
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

// newAggregateNode builds the sink of a bound planAggregate plan, with
// fresh accumulators copied from the plan's templates.
func newAggregateNode(plan *selectPlan, binds map[string]interface{}) (rowNode, error) {
	join, env, _, err := newJoinOverPlan(plan, binds)
	if err != nil {
		return nil, err
	}
	states := make([]*aggState, len(plan.aggs))
	for i, t := range plan.aggs {
		states[i] = &aggState{name: t.name, arg: t.arg}
	}
	ns := &nodeStats{label: "AGGREGATE"}
	if child := join.statsNode(); child != nil {
		ns.children = []*nodeStats{child}
	}
	n := &aggNode{join: join, env: env, states: states, ns: ns}
	if plan.count {
		n.counter = join.(counterExec)
	}
	return n, nil
}
