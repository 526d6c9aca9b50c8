package sqldb

import (
	"context"
	"fmt"
	"sort"
	"time"

	"ritree/internal/rel"
)

// The push executor. A compiled SELECT becomes a tree of operators, and
// each has one method, run, that pushes its rows into its consumer's emit
// callback: the shape of the access methods below it (Reader.Scan,
// Reader.Ordered, Table.Scan, the B+-tree range scan). A leaf scan runs
// its access path with a callback that binds the row into the plan's
// shared env, runs the source's residual filters and hands the row up;
// the nested-loops join is nested runs, the outer scan's callback running
// the inner scan in place; projection, DISTINCT, LIMIT and UNION ALL are
// loops in those callbacks; sort and aggregation are pipeline-breaking
// sinks that collect their input and then emit. An emit that returns
// false stops every producer under it, so a LIMIT k stops the leaf scan
// after the k-th row. Only the Rows cursor (rows.go) pulls: it runs the
// root inside one coroutine, so its consumer can stop between rows, an
// early Close ends the suspended scan, and a cancelled context surfaces
// mid-scan as the cursor's error. Drained statements — DB.Exec of a
// SELECT, EXPLAIN ANALYZE, DELETE's victim scan — run the root directly.

// execCtx carries per-execution state shared by all operators of one
// run: the context the leaf scans poll, and timed, which enables
// per-operator wall-clock collection (EXPLAIN ANALYZE only — time.Now
// around every run is the one instrumentation cost kept off the normal
// path). The counters live in each operator's nodeStats (stats.go).
type execCtx struct {
	ctx   context.Context
	timed bool
}

// ctxErr polls ctx without blocking.
func ctxErr(ctx context.Context) error {
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

// rowFn receives one row, valid only during the call; returning false
// stops the producer. A join's rows are the plan's env; the rows above
// the projection are output rows.
type rowFn func(row []int64) bool

// planNode is anything with a record in the plan tree.
type planNode interface {
	statsNode() *nodeStats
}

// operator is one node of a pipeline. run pushes each of its rows into
// emit and returns when its input is exhausted, when emit returns false
// (then with a nil error), or on the first error. A scan re-evaluates its
// access arguments from the current env on every run, which is how the
// nested-loops join rebinds its inner sources per outer row.
type operator interface {
	planNode
	run(ec *execCtx, emit rowFn) error
}

// counter is a join that reports how many rows it would emit without
// emitting them: the counting merge join and the index-only count.
type counter interface {
	planNode
	count(ec *execCtx) (int64, error)
}

// clock times one run of ns's operator when the execution is timed. It
// returns the emit the operator calls — timed, a wrapper that keeps the
// time spent downstream off ns, so Elapsed covers the operator and its
// inputs, never its consumer — and the func that adds the elapsed time,
// to defer. Untimed, it returns emit itself and costs nothing.
func (ec *execCtx) clock(ns *nodeStats, emit rowFn) (rowFn, func()) {
	if !ec.timed || ns == nil {
		return emit, func() {}
	}
	start := time.Now()
	var down time.Duration
	timed := func(row []int64) bool {
		t := time.Now()
		ok := emit(row)
		down += time.Since(t)
		return ok
	}
	return timed, func() { ns.elapsed.Add(int64(time.Since(start) - down)) }
}

// recoverRuntime turns a runtime fault of a compiled expression (division
// by zero, inverted Allen query bounds from join columns), raised as a
// sqlRuntimeError panic anywhere in a pushed run, into *err. Every run of
// a pipeline root defers it once.
func recoverRuntime(err *error) {
	if r := recover(); r != nil {
		re, ok := r.(sqlRuntimeError)
		if !ok {
			panic(r)
		}
		*err = re
	}
}

// srcScan is the leaf operator for one FROM source: it runs the access
// path the planner chose and pushes each row that passes the source's
// filters, bound into env and rids.
type srcScan struct {
	sp   *srcPlan
	idx  int // source position (for rids)
	env  []int64
	rids []rel.RowID

	rowBuf []int64 // GetRawInto buffer for rid-mapping access paths

	// err is why the current run's row callback stopped the access path
	// (a cancelled context, a failed heap fetch); nil when the consumer
	// stopped it.
	err error

	// ns is this scan's plan-tree stats record (nil-tolerant).
	ns *nodeStats
}

func (s *srcScan) statsNode() *nodeStats { return s.ns }

func (s *srcScan) run(ec *execCtx, emit rowFn) error {
	emit, done := ec.clock(s.ns, emit)
	defer done()
	sp := s.sp
	s.err = nil
	// leaf takes one row of the access path: the context is polled at
	// every leaf row, and the row slice is the producer's, stable for the
	// duration of the call.
	leaf := func(rid rel.RowID, row []int64) bool {
		if s.err = ctxErr(ec.ctx); s.err != nil {
			return false
		}
		s.ns.addLeafRows(1)
		copy(s.env[sp.base:sp.base+len(sp.cols)], row)
		s.rids[s.idx] = rid
		for _, f := range sp.filters {
			if f(s.env) == 0 {
				s.ns.addResidual(1)
				return true
			}
		}
		s.ns.addRowsOut(1)
		return emit(s.env)
	}
	// The access paths run in functions of their own: the cursor runs a
	// pipeline on a coroutine's small stack, which a large frame here
	// would make grow on every statement.
	var err error
	switch sp.kind {
	case accessCollection:
		err = s.scanCollection(leaf)
	case accessFull:
		err = sp.tab.Scan(leaf)
	case accessIndexRange:
		err = s.scanIndexRange(leaf)
	case accessDomain:
		err = s.scanDomain(leaf)
	default:
		err = fmt.Errorf("sql: unknown access kind %d", sp.kind)
	}
	return firstErr(s.err, err)
}

func (s *srcScan) scanCollection(leaf func(rel.RowID, []int64) bool) error {
	sp := s.sp
	for ri, row := range sp.coll.Rows {
		if len(row) != len(sp.cols) {
			return fmt.Errorf("sql: collection :%s row %d has %d columns, want %d",
				sp.ref.Collection, ri, len(row), len(sp.cols))
		}
		if !leaf(0, row) {
			break
		}
	}
	return nil
}

func (s *srcScan) scanIndexRange(leaf func(rel.RowID, []int64) bool) error {
	sp := s.sp
	low := make([]int64, 0, len(sp.eq)+2)
	high := make([]int64, 0, len(sp.eq)+2)
	for _, f := range sp.eq {
		v := f(s.env)
		low = append(low, v)
		high = append(high, v)
	}
	for _, f := range sp.lows {
		low = append(low, f(s.env))
	}
	for _, f := range sp.highs {
		high = append(high, f(s.env))
	}
	// One probe per binding: the inner side of a nested-loops join
	// probes its index once per outer row.
	s.ns.addProbes(1)
	return sp.ix.Scan(low, high, func(_ []int64, rid rel.RowID) bool {
		if s.err = sp.tab.GetRawInto(rid, s.rowBuf); s.err != nil {
			return false
		}
		return leaf(rid, s.rowBuf)
	})
}

func (s *srcScan) scanDomain(leaf func(rel.RowID, []int64) bool) error {
	sp := s.sp
	q, err := sp.op.query(sp.opArgs, s.env)
	if err != nil {
		return err
	}
	region, ok := sp.op.region(q)
	if !ok {
		return nil // no interval can satisfy the relation
	}
	s.ns.addProbes(1)
	// The region scan is the whole answer of INTERSECTS and
	// CONTAINS_POINT. An Allen relation is checked on each candidate,
	// now-relative rows (§4.6) against the table's clock, exactly as the
	// residual form compile builds does.
	return sp.reader.Scan(region, func(rid rel.RowID) bool {
		if s.err = sp.tab.GetRawInto(rid, s.rowBuf); s.err != nil {
			return false
		}
		if sp.op.exact && !sp.op.holds(s.rowBuf[sp.opLo], s.rowBuf[sp.opHi], sp.now, q) {
			// Residual: a candidate of the region that fails the exact
			// relation (or is born in the future of the evaluation time).
			// It cost a scan step and a heap fetch even though it is
			// dropped here, so it counts as a leaf row.
			s.ns.addLeafRows(1)
			s.ns.addResidual(1)
			return true
		}
		return leaf(rid, s.rowBuf)
	})
}

// joinNode is the left-deep nested-loops join over two or more sources:
// each row of source i rebinds and runs source i+1. Its stats take
// EXPLAIN's left-deep shape NL(NL(s0,s1),s2): nl[i] is the NESTED LOOPS
// node whose inner side is source i (nl[0] is nil), counting the rebinds
// of source i and the partial rows joined through it.
type joinNode struct {
	srcs []*srcScan
	nl   []*nodeStats
}

// statsNode returns the top NESTED LOOPS node.
func (j *joinNode) statsNode() *nodeStats { return j.nl[len(j.nl)-1] }

func (j *joinNode) run(ec *execCtx, emit rowFn) error {
	last := len(j.srcs) - 1
	emit, done := ec.clock(j.nl[last], emit)
	defer done()
	var err error    // the first error of an inner run
	stopped := false // the consumer stopped the join
	// step[i] takes one row of source i. The callbacks are built once per
	// run, so an outer row costs the inner scan's run and nothing more.
	step := make([]rowFn, len(j.srcs))
	step[last] = func(env []int64) bool {
		j.nl[last].addRowsOut(1)
		stopped = !emit(env)
		return !stopped
	}
	for i := last - 1; i >= 0; i-- {
		inner, next := j.srcs[i+1], step[i+1]
		step[i] = func([]int64) bool {
			j.nl[i].addRowsOut(1)
			j.nl[i+1].addRebinds(1)
			if ierr := inner.run(ec, next); ierr != nil {
				err = ierr
			}
			return err == nil && !stopped
		}
	}
	return firstErr(j.srcs[0].run(ec, step[0]), err)
}

// newJoinOverPlan builds the scan+filter+join pipeline of a compiled
// plan, returning the join and the shared env / rids the scans populate.
// The join is an operator, or under a counting plan (selectPlan.count) a
// counter. The env's bind tail is the caller's to fill (fillBinds) — the
// only per-execution state a (possibly cached) plan needs; EXPLAIN leaves
// it empty, because it renders the tree without running it. Every
// operator gets a nodeStats record labelled with its plan line, forming
// the tree EXPLAIN and EXPLAIN ANALYZE print. Plans with a mergeSpec
// execute as the interval merge join instead of nested loops.
func newJoinOverPlan(p *selectPlan) (planNode, []int64, []rel.RowID) {
	if p.merge != nil {
		return newMergeJoinNode(p)
	}
	env := make([]int64, p.envLen())
	if p.count {
		sp := p.sources[0]
		ns := &nodeStats{labelFn: func() string { return indexCountLine(sp) }}
		return &indexCountNode{sp: sp, env: env, ns: ns}, env, nil
	}
	rids := make([]rel.RowID, len(p.sources))
	srcs := make([]*srcScan, len(p.sources))
	for i, sp := range p.sources {
		srcs[i] = &srcScan{sp: sp, idx: i, env: env, rids: rids,
			ns: &nodeStats{labelFn: func() string { return accessLine(sp) }}}
		if sp.kind != accessCollection && sp.tab != nil {
			srcs[i].rowBuf = make([]int64, sp.tab.Schema().NumCols())
		}
	}
	if len(srcs) == 1 {
		return srcs[0], env, rids // one source: no join line
	}
	j := &joinNode{srcs: srcs, nl: make([]*nodeStats, len(srcs))}
	for i := 1; i < len(srcs); i++ {
		outer := srcs[0].ns
		if i > 1 {
			outer = j.nl[i-1]
		}
		j.nl[i] = &nodeStats{label: "NESTED LOOPS", kind: kindNested, children: []*nodeStats{outer, srcs[i].ns}}
	}
	return j, env, rids
}

// indexCountNode is the index-only COUNT(*) of a single source served by
// a domain-index operator with no other conjunct: it asks the bound
// Reader for the number of matching rows, so no leaf row is read and no
// heap row is fetched.
type indexCountNode struct {
	sp  *srcPlan
	env []int64
	ns  *nodeStats
}

func (n *indexCountNode) statsNode() *nodeStats { return n.ns }

func (n *indexCountNode) count(ec *execCtx) (int64, error) {
	_, done := ec.clock(n.ns, nil)
	defer done()
	q, err := n.sp.op.query(n.sp.opArgs, n.env)
	if err != nil {
		return 0, err
	}
	n.ns.addProbes(1)
	c, err := n.sp.reader.Count(q)
	if err != nil {
		return 0, err
	}
	n.ns.addRowsOut(c)
	return c, nil
}

// newBlockNode builds the pipeline of one block plan: its join under the
// aggregation sink or the projection. fill fills the env's bind tail from
// binds; EXPLAIN, which never runs the pipeline, does not.
func newBlockNode(plan *selectPlan, binds bindVals, fill bool) (operator, error) {
	join, env, _ := newJoinOverPlan(plan)
	if fill {
		if err := plan.fillBinds(env, binds); err != nil {
			return nil, err
		}
	}
	if len(plan.items) == 0 {
		return &projectNode{join: join.(operator), project: plan.project, out: make([]int64, len(plan.project))}, nil
	}
	n := &aggNode{keys: plan.groupBy, items: plan.items,
		ns: &nodeStats{label: "AGGREGATE", children: []*nodeStats{join.statsNode()}}}
	if len(plan.groupBy) > 0 {
		n.ns.label, n.ns.kind = "HASH GROUP BY", kindGroup
	}
	if plan.count {
		n.counter = join.(counter)
	} else {
		n.join = join.(operator)
	}
	return n, nil
}

// projectNode computes the output row of one select block. It is a 1:1
// pass-through with no plan line of its own: its input join stands for it
// in the stats tree.
type projectNode struct {
	join    operator
	project []evalFn
	out     []int64
}

func (n *projectNode) statsNode() *nodeStats { return n.join.statsNode() }

func (n *projectNode) run(ec *execCtx, emit rowFn) error {
	return n.join.run(ec, func(env []int64) bool {
		for i, f := range n.project {
			n.out[i] = f(env)
		}
		return emit(n.out)
	})
}

// concatNode runs its inputs in order — UNION ALL.
type concatNode struct {
	ins []operator
	ns  *nodeStats
}

func (n *concatNode) statsNode() *nodeStats { return n.ns }

func (n *concatNode) run(ec *execCtx, emit rowFn) error {
	stopped := false
	for _, in := range n.ins {
		err := in.run(ec, func(row []int64) bool {
			n.ns.addRowsOut(1)
			stopped = !emit(row)
			return !stopped
		})
		if err != nil || stopped {
			return err
		}
	}
	return nil
}

// sortKey is one resolved ORDER BY key over the output columns.
type sortKey struct {
	idx  int
	desc bool
}

// sortNode is the ORDER BY sink — a pipeline breaker: it collects its
// input, orders the rows, then emits them. Unbounded, it keeps every row
// and sorts stably. Bounded by ORDER BY + LIMIT k, it is a top-k heap: a
// max-heap of the k best rows seen so far (root = the worst survivor),
// which each input row either displaces or is dropped against —
// O(n log k) with k rows retained.
type sortNode struct {
	in   operator
	keys []sortKey
	k    int64 // row bound; < 0: none
	ns   *nodeStats
}

func (n *sortNode) statsNode() *nodeStats { return n.ns }

// less orders rows by the ORDER BY keys.
func (n *sortNode) less(a, b []int64) bool {
	for _, k := range n.keys {
		if av, bv := a[k.idx], b[k.idx]; av != bv {
			if k.desc {
				return av > bv
			}
			return av < bv
		}
	}
	return false
}

// siftDown restores the max-heap property at i over rows: every parent
// sorts after (or equal to) its children, so rows[0] is the worst one.
func (n *sortNode) siftDown(rows [][]int64, i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(rows) && n.less(rows[worst], rows[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		rows[i], rows[worst] = rows[worst], rows[i]
		i = worst
	}
}

func (n *sortNode) run(ec *execCtx, emit rowFn) error {
	emit, done := ec.clock(n.ns, emit)
	defer done()
	if n.k == 0 {
		return nil // TOP-K 0: never run the input
	}
	var rows [][]int64
	err := n.in.run(ec, func(row []int64) bool {
		switch {
		case n.k < 0 || int64(len(rows)) < n.k:
			rows = append(rows, append([]int64(nil), row...))
			if int64(len(rows)) == n.k {
				for i := len(rows)/2 - 1; i >= 0; i-- {
					n.siftDown(rows, i)
				}
			}
		case n.less(row, rows[0]):
			// The heap is full: a row survives only by beating the worst.
			copy(rows[0], row)
			n.siftDown(rows, 0)
		}
		return true
	})
	if err != nil {
		return err
	}
	// The retained rows are the pipeline's materialization cost.
	n.ns.addSpill(int64(len(rows)))
	less := func(i, j int) bool { return n.less(rows[i], rows[j]) }
	if n.k < 0 {
		sort.SliceStable(rows, less)
	} else {
		// The heap shuffled input order, but ties already fought for
		// survival through the same comparator, so a plain sort of the
		// survivors is all the ordering the bounded sink promises.
		sort.Slice(rows, less)
	}
	for _, row := range rows {
		n.ns.addRowsOut(1)
		if !emit(row) {
			return nil
		}
	}
	return nil
}

// distinctNode passes its input on, dropping rows already seen. It holds
// the set of distinct rows in memory but never the full input.
type distinctNode struct {
	in operator
	ns *nodeStats
}

func (n *distinctNode) statsNode() *nodeStats { return n.ns }

func (n *distinctNode) run(ec *execCtx, emit rowFn) error {
	emit, done := ec.clock(n.ns, emit)
	defer done()
	seen := make(map[string]struct{})
	var key []byte // reused encoding buffer; duplicates cost zero allocations
	return n.in.run(ec, func(row []int64) bool {
		key = key[:0]
		for _, v := range row {
			key = appendKey(key, v)
		}
		// string(key) in the lookup does not allocate (map-access
		// optimization); the copy happens only when storing a new row.
		if _, dup := seen[string(key)]; dup {
			return true
		}
		seen[string(key)] = struct{}{}
		n.ns.addRowsOut(1)
		return emit(row)
	})
}

// appendKey appends v's fixed-width encoding to a hash key.
func appendKey(key []byte, v int64) []byte {
	u := uint64(v)
	return append(key, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// limitNode stops the pipeline after n rows. Because every operator
// below it stops when its emit returns false, the leaf scans stop with
// the n-th row.
type limitNode struct {
	in operator
	n  int64
	ns *nodeStats
}

func (n *limitNode) statsNode() *nodeStats { return n.ns }

func (n *limitNode) run(ec *execCtx, emit rowFn) error {
	if n.n <= 0 {
		return nil // LIMIT 0: never run the input
	}
	var emitted int64
	return n.in.run(ec, func(row []int64) bool {
		emitted++
		n.ns.addRowsOut(1)
		return emit(row) && emitted < n.n
	})
}
