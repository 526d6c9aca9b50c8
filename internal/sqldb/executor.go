package sqldb

import (
	"context"
	"fmt"
	"iter"
	"sort"

	"ritree/internal/rel"
)

// The volcano-style streaming executor. A compiled SELECT becomes a tree
// of pull-based operator nodes: leaf scans (one per FROM source, driving
// the access method chosen by the planner) feed a nested-loops join,
// residual filters run inside the scans, and a projection computes the
// output row. Sort and aggregation are explicit pipeline-breaking sinks;
// DISTINCT and LIMIT stream. Rows flow out one at a time through the
// Rows cursor (rows.go), so a LIMIT k — or an early Rows.Close — stops
// the underlying access-method scan after O(k) work instead of
// materializing the full result, and a cancelled context surfaces
// mid-scan as the cursor's error.

// execCtx carries per-execution state shared by all nodes of one cursor:
// the context the leaf scans poll, and timed, which enables per-operator
// wall-clock collection (EXPLAIN ANALYZE only — time.Now per row is the
// one instrumentation cost kept off the normal path). The counters live
// in each node's nodeStats (stats.go).
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

// execNode is one operator of the pipeline. Open (re)starts the node's
// stream — scans re-evaluate their access arguments from the current
// env, which is how the nested-loops join rebinds its inner sources per
// outer row. Next advances to the next row (row data lands in the
// plan's shared env or the node's output buffer). Close releases scan
// resources; it must be idempotent, and Open after Close restarts.
type execNode interface {
	Open(ec *execCtx) error
	Next(ec *execCtx) (bool, error)
	Close() error
}

// rowNode is an execNode producing projected output rows.
type rowNode interface {
	execNode
	// Row returns the current output row, valid until the next Next call.
	Row() []int64
	// statsNode is the node's record in the plan tree.
	statsNode() *nodeStats
}

// leafHit is one (rid, full base row) delivered by a leaf access path.
type leafHit struct {
	rid rel.RowID
	row []int64
}

// scanRunner streams leaf hits through emit; returning false stops it.
type scanRunner func(emit func(rid rel.RowID, row []int64) bool) error

// srcScan is the leaf node for one FROM source. The callback-shaped
// access-method scans (Reader.Scan) are adapted to pull form
// with iter.Pull, so the node can suspend the scan between rows and
// abandon it on Close — stopping the pull resumes the scan coroutine
// with a false return into the access method's callback, which
// terminates the underlying index traversal.
type srcScan struct {
	sp   *srcPlan
	idx  int // source position (for rids)
	env  []int64
	rids []rel.RowID

	rowBuf []int64 // GetRawInto buffer for rid-mapping access paths

	// ns is this scan's plan-tree stats record (nil-tolerant).
	ns *nodeStats

	next func() (leafHit, bool)
	stop func()
	serr *error
}

func (s *srcScan) Open(ec *execCtx) error {
	s.Close()
	run, err := s.bind()
	if err != nil {
		return err
	}
	if run == nil { // provably empty (e.g. an empty generating region)
		return nil
	}
	switch s.sp.kind {
	case accessIndexRange, accessDomain:
		// One probe per binding: the inner side of a nested-loops join
		// probes its index once per outer row.
		s.ns.addProbes(1)
	}
	scanErr := new(error)
	seq := func(yield func(leafHit) bool) {
		*scanErr = run(func(rid rel.RowID, row []int64) bool {
			return yield(leafHit{rid, row})
		})
	}
	s.next, s.stop = iter.Pull(seq)
	s.serr = scanErr
	return nil
}

func (s *srcScan) Next(ec *execCtx) (bool, error) {
	if s.next == nil {
		return false, nil
	}
	if start := ec.startTimer(); !start.IsZero() {
		defer s.ns.timeFrom(start)
	}
	for {
		if err := ctxErr(ec.ctx); err != nil {
			return false, err
		}
		hit, ok := s.next()
		if !ok {
			err := *s.serr
			s.Close()
			return false, err
		}
		s.ns.addLeafRows(1)
		// The borrowed row slice is stable here: the producing scan is
		// suspended inside its callback until the next pull.
		copy(s.env[s.sp.base:s.sp.base+len(s.sp.cols)], hit.row)
		s.rids[s.idx] = hit.rid
		pass := true
		for _, f := range s.sp.filters {
			if f(s.env) == 0 {
				pass = false
				break
			}
		}
		if pass {
			s.ns.addRowsOut(1)
			return true, nil
		}
		s.ns.addResidual(1)
	}
}

func (s *srcScan) Close() error {
	if s.stop != nil {
		s.stop()
	}
	s.next, s.stop, s.serr = nil, nil, nil
	return nil
}

// dropResidual records a row the access path consumed but dropped before
// emitting (the Allen exact-relation residual): it cost leaf-scan work,
// so it counts as a leaf row and as a residual drop.
func (s *srcScan) dropResidual() {
	s.ns.addLeafRows(1)
	s.ns.addResidual(1)
}

// bind evaluates the source's access arguments against the current env
// and returns the scan runner, or (nil, nil) when the access path proves
// no row can match.
func (s *srcScan) bind() (scanRunner, error) {
	sp := s.sp
	switch sp.kind {
	case accessCollection:
		width := len(sp.cols)
		coll := sp.coll
		name := sp.ref.Collection
		return func(emit func(rel.RowID, []int64) bool) error {
			for ri, row := range coll.Rows {
				if len(row) != width {
					return fmt.Errorf("sql: collection :%s row %d has %d columns, want %d",
						name, ri, len(row), width)
				}
				if !emit(0, row) {
					return nil
				}
			}
			return nil
		}, nil

	case accessFull:
		return func(emit func(rel.RowID, []int64) bool) error {
			return sp.tab.Scan(emit)
		}, nil

	case accessIndexRange:
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
		return func(emit func(rel.RowID, []int64) bool) error {
			var inner error
			err := sp.ix.Scan(low, high, func(_ []int64, rid rel.RowID) bool {
				if inner = sp.tab.GetRawInto(rid, s.rowBuf); inner != nil {
					return false
				}
				return emit(rid, s.rowBuf)
			})
			if inner != nil {
				return inner
			}
			return err
		}, nil

	case accessDomain:
		q, err := sp.op.query(sp.opArgs, s.env)
		if err != nil {
			return nil, err
		}
		region, ok := sp.op.region(q)
		if !ok {
			return nil, nil // no interval can satisfy the relation
		}
		// The region scan is the whole answer of INTERSECTS and
		// CONTAINS_POINT. An Allen relation is checked on each candidate,
		// now-relative rows (§4.6) against the table's clock, exactly as
		// the residual form compile builds does.
		op, now := sp.op, sp.now
		return func(emit func(rel.RowID, []int64) bool) error {
			var inner error
			err := sp.reader.Scan(region, func(rid rel.RowID) bool {
				if inner = sp.tab.GetRawInto(rid, s.rowBuf); inner != nil {
					return false
				}
				if op.exact && !op.holds(s.rowBuf[sp.opLo], s.rowBuf[sp.opHi], now, q) {
					// Residual: a candidate of the region that fails the
					// exact relation (or is born in the future of the
					// evaluation time). Count it — it cost a scan step and
					// a heap fetch even though it is dropped here.
					s.dropResidual()
					return true
				}
				return emit(rid, s.rowBuf)
			})
			if inner != nil {
				return inner
			}
			return err
		}, nil
	}
	return nil, fmt.Errorf("sql: unknown access kind %d", sp.kind)
}

// joinNode drives the left-deep nested-loops join over the plan's
// sources: advancing an outer source re-opens (rebinds) every source to
// its right, exactly the correlation the recursive executor used to
// express — but suspendable between rows. Its stats take EXPLAIN's
// left-deep shape NL(NL(s0,s1),s2): nl[i] is the NESTED LOOPS node whose
// inner side is source i (nl[0] is nil), counting the rebinds of source i
// and the partial rows joined through it.
type joinNode struct {
	srcs  []*srcScan
	nl    []*nodeStats
	depth int // deepest open source; -1 when exhausted or closed
}

// statsNode returns the top NESTED LOOPS node, or the lone scan's record
// when there is only one source (EXPLAIN prints no join line then).
func (j *joinNode) statsNode() *nodeStats {
	if last := len(j.srcs) - 1; last > 0 {
		return j.nl[last]
	}
	return j.srcs[0].ns
}

func (j *joinNode) Open(ec *execCtx) error {
	j.depth = -1
	if err := j.srcs[0].Open(ec); err != nil {
		return err
	}
	j.depth = 0
	return nil
}

func (j *joinNode) Next(ec *execCtx) (bool, error) {
	last := len(j.srcs) - 1
	if start := ec.startTimer(); !start.IsZero() {
		defer j.nl[last].timeFrom(start)
	}
	i := j.depth
	for i >= 0 {
		ok, err := j.srcs[i].Next(ec)
		if err != nil {
			j.depth = i
			return false, err
		}
		if !ok {
			i--
			continue
		}
		j.nl[i].addRowsOut(1)
		if i == last {
			j.depth = i
			return true, nil
		}
		i++
		j.nl[i].addRebinds(1)
		if err := j.srcs[i].Open(ec); err != nil {
			j.depth = i
			return false, err
		}
	}
	j.depth = -1
	return false, nil
}

func (j *joinNode) Close() error {
	for _, s := range j.srcs {
		_ = s.Close()
	}
	j.depth = -1
	return nil
}

// joinExec is the executable join of one compiled plan — the nested-loops
// tree or the interval merge join — plus its plan-stats record.
type joinExec interface {
	execNode
	statsNode() *nodeStats
}

// newJoinOverPlan builds the scan+filter+join pipeline of a compiled
// plan, returning the join node and the shared env / rids the scans
// populate. The env's bind tail is the caller's to fill (fillBinds) — the
// only per-execution state a (possibly cached) plan needs; EXPLAIN leaves
// it empty, because it renders the tree without opening it. Every
// operator gets a nodeStats record labelled with its plan line, forming
// the tree EXPLAIN and EXPLAIN ANALYZE print. Plans with a mergeSpec
// execute as the interval merge join instead of nested loops.
func newJoinOverPlan(p *selectPlan) (joinExec, []int64, []rel.RowID) {
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
	j := &joinNode{srcs: make([]*srcScan, len(p.sources)), nl: make([]*nodeStats, len(p.sources)), depth: -1}
	for i, sp := range p.sources {
		sc := &srcScan{sp: sp, idx: i, env: env, rids: rids,
			ns: &nodeStats{labelFn: func() string { return accessLine(sp) }}}
		if sp.kind != accessCollection && sp.tab != nil {
			sc.rowBuf = make([]int64, sp.tab.Schema().NumCols())
		}
		j.srcs[i] = sc
		if i > 0 {
			outer := j.srcs[0].ns
			if i > 1 {
				outer = j.nl[i-1]
			}
			j.nl[i] = &nodeStats{label: "NESTED LOOPS", kind: kindNested, children: []*nodeStats{outer, sc.ns}}
		}
	}
	return j, env, rids
}

// indexCountNode is the index-only COUNT(*) of a single source served by
// a domain-index operator with no other conjunct: Count asks the bound
// Reader for the number of matching rows, so no leaf row is pulled and
// no heap row is fetched.
type indexCountNode struct {
	sp  *srcPlan
	env []int64
	ns  *nodeStats
}

func (n *indexCountNode) statsNode() *nodeStats  { return n.ns }
func (n *indexCountNode) Open(ec *execCtx) error { return nil }
func (n *indexCountNode) Close() error           { return nil }

func (n *indexCountNode) Next(ec *execCtx) (bool, error) {
	return false, fmt.Errorf("sql: internal: an index-only count emits no rows")
}

func (n *indexCountNode) Count(ec *execCtx) (int64, error) {
	if start := ec.startTimer(); !start.IsZero() {
		defer n.ns.timeFrom(start)
	}
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
// binds; EXPLAIN, which never opens the pipeline, does not.
func newBlockNode(plan *selectPlan, binds bindVals, fill bool) (rowNode, error) {
	join, env, _ := newJoinOverPlan(plan)
	if fill {
		if err := plan.fillBinds(env, binds); err != nil {
			return nil, err
		}
	}
	if len(plan.items) == 0 {
		return &projectNode{joinExec: join, project: plan.project, env: env, out: make([]int64, len(plan.project))}, nil
	}
	n := &aggNode{join: join, env: env, keys: plan.groupBy, items: plan.items,
		ns: &nodeStats{label: "AGGREGATE", children: []*nodeStats{join.statsNode()}}}
	if len(plan.groupBy) > 0 {
		n.ns.label, n.ns.kind = "HASH GROUP BY", kindGroup
	}
	if plan.count {
		n.counter = join.(counterExec)
	}
	return n, nil
}

// projectNode computes the output row of one select block. It is a 1:1
// pass-through with no plan line of its own: its input join stands for it
// in the stats tree.
type projectNode struct {
	joinExec
	project []evalFn
	env     []int64
	out     []int64
}

func (n *projectNode) Next(ec *execCtx) (bool, error) {
	ok, err := n.joinExec.Next(ec)
	if !ok || err != nil {
		return false, err
	}
	for i, f := range n.project {
		n.out[i] = f(n.env)
	}
	return true, nil
}

func (n *projectNode) Row() []int64 { return n.out }

// concatNode streams its inputs in order — UNION ALL.
type concatNode struct {
	ins []rowNode
	cur int
	ns  *nodeStats
}

func (n *concatNode) statsNode() *nodeStats { return n.ns }

func (n *concatNode) Open(ec *execCtx) error {
	n.cur = 0
	if len(n.ins) == 0 {
		return nil
	}
	return n.ins[0].Open(ec)
}

func (n *concatNode) Next(ec *execCtx) (bool, error) {
	for n.cur < len(n.ins) {
		ok, err := n.ins[n.cur].Next(ec)
		if err != nil {
			return false, err
		}
		if ok {
			n.ns.addRowsOut(1)
			return true, nil
		}
		_ = n.ins[n.cur].Close()
		n.cur++
		if n.cur < len(n.ins) {
			if err := n.ins[n.cur].Open(ec); err != nil {
				return false, err
			}
		}
	}
	return false, nil
}

func (n *concatNode) Close() error {
	for _, in := range n.ins {
		_ = in.Close()
	}
	return nil
}

func (n *concatNode) Row() []int64 {
	if n.cur < len(n.ins) {
		return n.ins[n.cur].Row()
	}
	return nil
}

// sortKey is one resolved ORDER BY key over the output columns.
type sortKey struct {
	idx  int
	desc bool
}

// sortNode is the ORDER BY sink — a pipeline breaker: Open drains its
// input and orders the materialized rows, Next emits them. Unbounded, it
// keeps every row and sorts stably. Bounded by ORDER BY + LIMIT k, it is
// a top-k heap: a max-heap of the k best rows seen so far (root = the
// worst survivor), which each input row either displaces or is dropped
// against — O(n log k) with k rows retained.
type sortNode struct {
	in   rowNode
	keys []sortKey
	k    int64 // row bound; < 0: none
	rows [][]int64
	pos  int
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

// siftDown restores the max-heap property at i over n.rows: every parent
// sorts after (or equal to) its children, so rows[0] is the worst one.
func (n *sortNode) siftDown(i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(n.rows) && n.less(n.rows[worst], n.rows[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		n.rows[i], n.rows[worst] = n.rows[worst], n.rows[i]
		i = worst
	}
}

func (n *sortNode) Open(ec *execCtx) error {
	if start := ec.startTimer(); !start.IsZero() {
		defer n.ns.timeFrom(start)
	}
	n.rows, n.pos = nil, 0
	if n.k == 0 {
		return nil // TOP-K 0: never open the input
	}
	if err := n.in.Open(ec); err != nil {
		return err
	}
	for {
		ok, err := n.in.Next(ec)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		row := n.in.Row()
		switch {
		case n.k < 0 || int64(len(n.rows)) < n.k:
			n.rows = append(n.rows, append([]int64(nil), row...))
			if int64(len(n.rows)) == n.k {
				for i := len(n.rows)/2 - 1; i >= 0; i-- {
					n.siftDown(i)
				}
			}
		case n.less(row, n.rows[0]):
			// The heap is full: a row survives only by beating the worst.
			copy(n.rows[0], row)
			n.siftDown(0)
		}
	}
	_ = n.in.Close()
	// The retained rows are the pipeline's materialization cost.
	n.ns.addSpill(int64(len(n.rows)))
	less := func(i, j int) bool { return n.less(n.rows[i], n.rows[j]) }
	if n.k < 0 {
		sort.SliceStable(n.rows, less)
	} else {
		// The heap shuffled input order, but ties already fought for
		// survival through the same comparator, so a plain sort of the
		// survivors is all the ordering the bounded sink promises.
		sort.Slice(n.rows, less)
	}
	return nil
}

func (n *sortNode) Next(ec *execCtx) (bool, error) {
	if n.pos >= len(n.rows) {
		return false, nil
	}
	n.pos++
	n.ns.addRowsOut(1)
	return true, nil
}

func (n *sortNode) Close() error {
	n.rows = nil
	return n.in.Close()
}

func (n *sortNode) Row() []int64 { return n.rows[n.pos-1] }

// distinctNode streams its input, dropping rows already seen. It holds
// the set of distinct rows in memory but never the full input.
type distinctNode struct {
	in   rowNode
	seen map[string]struct{}
	key  []byte // reused encoding buffer; duplicates cost zero allocations
	ns   *nodeStats
}

func (n *distinctNode) statsNode() *nodeStats { return n.ns }

func (n *distinctNode) Open(ec *execCtx) error {
	n.seen = make(map[string]struct{})
	return n.in.Open(ec)
}

func (n *distinctNode) Next(ec *execCtx) (bool, error) {
	if start := ec.startTimer(); !start.IsZero() {
		defer n.ns.timeFrom(start)
	}
	for {
		ok, err := n.in.Next(ec)
		if !ok || err != nil {
			return false, err
		}
		key := n.key[:0]
		for _, v := range n.in.Row() {
			key = appendKey(key, v)
		}
		n.key = key
		// string(key) in the lookup does not allocate (map-access
		// optimization); the copy happens only when storing a new row.
		if _, dup := n.seen[string(key)]; dup {
			continue
		}
		n.seen[string(key)] = struct{}{}
		n.ns.addRowsOut(1)
		return true, nil
	}
}

// appendKey appends v's fixed-width encoding to a hash key.
func appendKey(key []byte, v int64) []byte {
	u := uint64(v)
	return append(key, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func (n *distinctNode) Close() error {
	n.seen = nil
	return n.in.Close()
}

func (n *distinctNode) Row() []int64 { return n.in.Row() }

// limitNode stops the pipeline after n rows. Because every node below it
// streams, stopping here abandons the leaf scans after O(n) work.
type limitNode struct {
	in      rowNode
	n       int64
	emitted int64
	ns      *nodeStats
}

func (n *limitNode) statsNode() *nodeStats { return n.ns }

func (n *limitNode) Open(ec *execCtx) error {
	n.emitted = 0
	if n.n <= 0 {
		return nil // LIMIT 0: never open the input
	}
	return n.in.Open(ec)
}

func (n *limitNode) Next(ec *execCtx) (bool, error) {
	if n.emitted >= n.n {
		return false, nil
	}
	ok, err := n.in.Next(ec)
	if !ok || err != nil {
		return false, err
	}
	n.emitted++
	n.ns.addRowsOut(1)
	return true, nil
}

func (n *limitNode) Close() error { return n.in.Close() }
func (n *limitNode) Row() []int64 { return n.in.Row() }

// drainPlan runs a compiled plan's join pipeline to completion, calling
// emit for each joined row. DELETE uses it to collect victims; SELECT
// streams through the Rows cursor instead. Runtime faults in compiled
// expressions surface as errors.
func drainPlan(plan *selectPlan, binds bindVals, emit func(env []int64, rids []rel.RowID) bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(sqlRuntimeError); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	join, env, rids := newJoinOverPlan(plan)
	if err := plan.fillBinds(env, binds); err != nil {
		return err
	}
	ec := &execCtx{ctx: context.Background()}
	if err := join.Open(ec); err != nil {
		return err
	}
	defer join.Close()
	for {
		ok, err := join.Next(ec)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if !emit(env, rids) {
			return nil
		}
	}
}
