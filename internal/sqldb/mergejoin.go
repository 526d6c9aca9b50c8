package sqldb

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"ritree/internal/interval"
	"ritree/internal/rel"
)

// The interval merge join: the sweeping-based sort-merge join of Piatov
// et al., "Cache-Efficient Sweeping-Based Interval Joins for Extended
// Allen Relation Predicates" (PAPERS.md), specialized per relation. Both
// inputs arrive in ascending lower-bound order — zero-sort off a
// start-sorted domain index through Reader.Ordered, or by an explicit
// sort of the source's ordinary access path — and a single
// forward sweep over the merged start/end events maintains the set of
// intervals whose span covers the sweep line in a gapless (dense
// array) active set. Each emitted pair costs O(1) beyond the predicate
// check, so the join runs in O(n log n + output) worst case and
// O(n + output) when both feeds are index-ordered, against the
// O(n * probe) of index nested loops.
//
// Relation specialization follows the paper's §4 dissection:
//
//   - BEFORE / AFTER pair a whole prefix of one side (ordered by upper
//     bound) with each row of the other — no active set at all;
//   - relations that fix the later-starting side (OVERLAPS, MEETS,
//     CONTAINS, FINISHED_BY, STARTS, EQUALS, STARTED_BY) emit at each
//     right start against the active left set;
//   - their inverses (DURING, FINISHES, OVERLAPPED_BY, MET_BY) emit at
//     each left start against the active right set;
//   - INTERSECTS emits in both directions unconditionally — every active
//     partner at a start event intersects the starting interval by
//     construction.
//
// The sweep assumes valid intervals (Lower <= Upper). Query-side rows
// violating that fault exactly like the nested-loops paths; subject-side
// violations (possible only in unchecked transient collections) denote no
// time span and are dropped as residuals.

// gaplessSet is the sweep's active set: dense parallel arrays of the
// active intervals' bounds and block-row indexes (cache-friendly linear
// scans, no tombstones), plus a direct-addressed slot table by block-row
// index for O(1) endpoint-ordered eviction via swap-with-last.
type gaplessSet struct {
	lo, hi []int64
	row    []int32
	slot   []int32 // block row -> dense slot; -1 when absent
}

func (g *gaplessSet) init(n int) {
	g.lo, g.hi, g.row = g.lo[:0], g.hi[:0], g.row[:0]
	g.slot = make([]int32, n)
	for i := range g.slot {
		g.slot[i] = -1
	}
}

func (g *gaplessSet) add(r int32, lo, hi int64) {
	g.slot[r] = int32(len(g.row))
	g.lo = append(g.lo, lo)
	g.hi = append(g.hi, hi)
	g.row = append(g.row, r)
}

func (g *gaplessSet) remove(r int32) {
	s := g.slot[r]
	if s < 0 {
		return
	}
	last := int32(len(g.row) - 1)
	moved := g.row[last]
	g.lo[s], g.hi[s], g.row[s] = g.lo[last], g.hi[last], g.row[last]
	g.slot[moved] = s
	g.lo, g.hi, g.row = g.lo[:last], g.hi[:last], g.row[:last]
	g.slot[r] = -1
}

func (g *gaplessSet) size() int { return len(g.row) }

// mjSide is one materialized, lower-bound-ordered join input: the full
// rows (for env binding and post filters), the join bounds in dedicated
// arrays (the sweep touches only these — the cache layout the paper's
// gapless hash is about), and a by-upper-bound permutation driving
// endpoint-ordered eviction and the BEFORE/AFTER prefix modes. A counting
// join binds no pairs, so it keeps the bounds only (w = 0: no rows, no
// rids).
type mjSide struct {
	sp     *srcPlan
	w      int
	rows   []int64
	rids   []rel.RowID
	lo, hi []int64
	byHi   []int32
	n      int
	// unordered records that the side's ordered stream turned out not to
	// be and the drain fell back to sorting. Atomic: the feed's plan line
	// reads it, and PlanStats may run on another goroutine.
	unordered atomic.Bool
	ns        *nodeStats
}

func (s *mjSide) release() {
	s.rows, s.rids, s.lo, s.hi, s.byHi, s.n = nil, nil, nil, nil, nil, 0
}

func (s *mjSide) sortByLo() {
	sort.Stable(sideByLo{s})
}

// sideByLo sorts a side's parallel arrays in place by lower bound.
type sideByLo struct{ s *mjSide }

func (b sideByLo) Len() int           { return b.s.n }
func (b sideByLo) Less(i, j int) bool { return b.s.lo[i] < b.s.lo[j] }
func (b sideByLo) Swap(i, j int) {
	s := b.s
	s.lo[i], s.lo[j] = s.lo[j], s.lo[i]
	s.hi[i], s.hi[j] = s.hi[j], s.hi[i]
	if s.w == 0 {
		return
	}
	s.rids[i], s.rids[j] = s.rids[j], s.rids[i]
	ri, rj := s.rows[i*s.w:(i+1)*s.w], s.rows[j*s.w:(j+1)*s.w]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

func (s *mjSide) buildByHi() {
	s.byHi = make([]int32, s.n)
	for i := range s.byHi {
		s.byHi[i] = int32(i)
	}
	hi := s.hi
	slices.SortFunc(s.byHi, func(a, b int32) int { return cmp.Compare(hi[a], hi[b]) })
}

// sweep emission modes.
const (
	modeSweep  = iota // event sweep with active set(s)
	modeBefore        // prefix of left (by upper) per right row
	modeAfter         // prefix of right (by upper) per left row
)

// mjMatch is a specialized relation predicate between a subject interval
// s and a query interval b, evaluated only for pairs the sweep already
// proved co-active (or prefix-ordered).
type mjMatch func(sLo, sHi, bLo, bHi int64) bool

// mergeJoinNode executes a selectPlan with a non-nil mergeSpec. It is a
// pipeline breaker on both inputs: a run drains and orders the two sides,
// then sweeps, pushing each pair as the sweep finds it, so a LIMIT or an
// early Close stops mid-sweep. Under a counting plan (selectPlan.count)
// the consumer calls count instead of run.
type mergeJoinNode struct {
	p    *selectPlan
	m    *mergeSpec
	env  []int64
	rids []rel.RowID

	left, right mjSide

	mode   int
	emitL  bool // emit at left starts, scanning the active right set
	emitR  bool // emit at right starts, scanning the active left set
	matchL mjMatch
	matchR mjMatch

	activeL, activeR gaplessSet
	li, ri           int // next start event per side
	le, re           int // next end event per side (index into byHi)
	prefixLen        int // the BEFORE/AFTER prefix of the opposite side
	peak             int64

	ns *nodeStats
}

// mjScan is one emission scan of the sweep: a started row (fixed) paired
// against a stable snapshot of the first n rows of the opposite active
// set — events advance only after the scan is done, so the dense arrays
// cannot move under it — or against a byHi prefix of n rows in the
// BEFORE/AFTER modes. onR marks a scan of the right side (fixed left row).
type mjScan struct {
	fixed int32
	onR   bool
	n     int
}

// newMergeJoinNode builds the merge-join pipeline of a compiled plan.
// The caller fills the bind tail before a run: drainSide evaluates
// per-side filters against n.env before the sweep starts.
func newMergeJoinNode(p *selectPlan) (*mergeJoinNode, []int64, []rel.RowID) {
	n := &mergeJoinNode{
		p:    p,
		m:    p.merge,
		env:  make([]int64, p.envLen()),
		rids: make([]rel.RowID, len(p.sources)),
	}
	n.left.sp = p.sources[p.merge.left]
	n.right.sp = p.sources[p.merge.right]
	for _, side := range [2]*mjSide{&n.left, &n.right} {
		s := side
		side.ns = &nodeStats{labelFn: func() string { return s.feedLine(p.count) }}
	}
	n.ns = &nodeStats{
		labelFn:  func() string { return mergeJoinLine(p) },
		kind:     kindMerge,
		children: []*nodeStats{n.left.ns, n.right.ns},
	}
	n.configure()
	return n, n.env, n.rids
}

// feedLine names a feed: a zero-sort ordered stream off a start-sorted
// domain index — bounds only when the join counts and the side has no
// filter of its own — or an explicit sort over the source's ordinary
// access path. It shows the planned feed until a drain falls back to the
// sort; that fact outlives the run, so EXPLAIN ANALYZE renders what ran.
func (s *mjSide) feedLine(count bool) string {
	if s.sp.custom != nil && !s.unordered.Load() {
		return orderedFeedLine(s.sp.custom, count && len(s.sp.filters) == 0)
	}
	return "SORT BY LOWER (" + accessLine(s.sp) + ")"
}

// mergeJoinLine is the plan line of a merge join: COUNT marks the
// counting sweep, which adds up pairs instead of emitting them.
func mergeJoinLine(p *selectPlan) string {
	if p.count {
		return "INTERVAL MERGE JOIN COUNT (" + p.merge.op.name + ")"
	}
	return "INTERVAL MERGE JOIN (" + p.merge.op.name + ")"
}

// orderedFeedLine names a zero-sort feed off a start-sorted domain index;
// BOUNDS ONLY marks one that took each row's bounds from the index entry
// and fetched no row.
func orderedFeedLine(ci Index, boundsOnly bool) string {
	what := "LOWER"
	if boundsOnly {
		what = "LOWER, BOUNDS ONLY"
	}
	return fmt.Sprintf("ORDERED DOMAIN INDEX SCAN %s (%s)", strings.ToUpper(ci.Name()), what)
}

// configure specializes the sweep for the plan's relation.
func (n *mergeJoinNode) configure() {
	if !n.m.op.exact {
		n.emitL, n.emitR = true, true
		return
	}
	switch n.m.op.rel {
	case interval.Before:
		n.mode = modeBefore
	case interval.After:
		n.mode = modeAfter
	case interval.Overlaps:
		n.emitR = true
		n.matchR = func(sLo, sHi, bLo, bHi int64) bool { return sLo < bLo && bLo < sHi && sHi < bHi }
	case interval.FinishedBy:
		n.emitR = true
		n.matchR = func(sLo, sHi, bLo, bHi int64) bool { return sLo < bLo && sHi == bHi }
	case interval.Contains:
		n.emitR = true
		n.matchR = func(sLo, sHi, bLo, bHi int64) bool { return sLo < bLo && bHi < sHi }
	case interval.Starts:
		n.emitR = true
		n.matchR = func(sLo, sHi, bLo, bHi int64) bool { return sLo == bLo && sHi < bHi }
	case interval.Equals:
		n.emitR = true
		n.matchR = func(sLo, sHi, bLo, bHi int64) bool { return sLo == bLo && sHi == bHi }
	case interval.StartedBy:
		n.emitR = true
		n.matchR = func(sLo, sHi, bLo, bHi int64) bool { return sLo == bLo && bHi < sHi }
	case interval.Meets:
		n.emitR = true
		n.matchR = func(sLo, sHi, bLo, bHi int64) bool { return sHi == bLo && sLo < bLo && sHi < bHi }
	case interval.During:
		n.emitL = true
		n.matchL = func(sLo, sHi, bLo, bHi int64) bool { return bLo < sLo && sHi < bHi }
	case interval.Finishes:
		n.emitL = true
		n.matchL = func(sLo, sHi, bLo, bHi int64) bool { return bLo < sLo && sHi == bHi }
	case interval.OverlappedBy:
		n.emitL = true
		n.matchL = func(sLo, sHi, bLo, bHi int64) bool { return bLo < sLo && sLo < bHi && bHi < sHi }
	case interval.MetBy:
		n.emitL = true
		n.matchL = func(sLo, sHi, bLo, bHi int64) bool { return sLo == bHi && bLo < sLo && bHi < sHi }
	}
}

func (n *mergeJoinNode) statsNode() *nodeStats { return n.ns }

// open drains and orders both sides and readies the sweep; reset, which
// every run defers, releases what it built.
func (n *mergeJoinNode) open(ec *execCtx) error {
	n.left.unordered.Store(false)
	n.right.unordered.Store(false)
	if err := n.drainSide(ec, &n.left, true); err != nil {
		return err
	}
	if err := n.drainSide(ec, &n.right, false); err != nil {
		return err
	}
	// The eviction streams exist only for maintained active sets; the
	// prefix modes order their prefix side by upper bound.
	if n.emitR || n.mode == modeBefore {
		n.left.buildByHi()
	}
	if n.emitL || n.mode == modeAfter {
		n.right.buildByHi()
	}
	if n.emitR {
		n.activeL.init(n.left.n)
	}
	if n.emitL {
		n.activeR.init(n.right.n)
	}
	return nil
}

func (n *mergeJoinNode) reset() {
	n.left.release()
	n.right.release()
	n.activeL, n.activeR = gaplessSet{}, gaplessSet{}
	n.li, n.ri, n.le, n.re = 0, 0, 0, 0
	n.peak, n.prefixLen = 0, 0
}

// drainSide materializes one input in ascending lower-bound order:
// through the side's ordered index stream when one is wired (already
// sorted — zero sort work), else by draining the source's access path and
// sorting, with the sorted rows accounted as spills. A counting join's
// side without a filter of its own takes the bounds the ordered stream
// delivers and fetches no row at all. Subject-side now-relative rows
// resolve against the side's table clock (frozen by the view under
// snapshot cursors); invalid results are dropped exactly like the
// nested-loops Allen runner drops them. The counters are added once per
// drain, and the context is polled every 1024 rows.
func (n *mergeJoinNode) drainSide(ec *execCtx, side *mjSide, subject bool) error {
	sp := side.sp
	width := len(sp.cols)
	side.w = width
	if n.p.count {
		side.w = 0
	}
	now := sp.now
	var leaf, residual int64
	defer func() {
		side.ns.addLeafRows(leaf)
		side.ns.addResidual(residual)
		side.ns.addRowsOut(int64(side.n))
	}()
	// poll reports the context's error at every 1024th leaf row.
	poll := func() error {
		if leaf&1023 != 0 {
			return nil
		}
		return ctxErr(ec.ctx)
	}
	// add admits one leaf row with its join bounds; row is nil on a
	// bounds-only feed.
	add := func(rid rel.RowID, row []int64, lo, hi int64) {
		leaf++
		if len(sp.filters) > 0 {
			copy(n.env[sp.base:sp.base+width], row)
			for _, f := range sp.filters {
				if f(n.env) == 0 {
					residual++
					return
				}
			}
		}
		if subject {
			if hi == interval.NowMarker {
				hi = now
			}
			if lo > hi {
				// Born in the future of the evaluation time (or malformed):
				// consumed, never emitted — intervalOp.holds's rule.
				residual++
				return
			}
		} else if lo > hi {
			// Query-side bounds fault as on the residual and index-served
			// paths — the answer must not depend on the join strategy.
			// (Query-side NowMarker stays a plain magnitude, as those paths
			// treat it.)
			_, err := n.m.op.bounds(lo, hi)
			panic(err)
		}
		if side.w > 0 {
			side.rows = append(side.rows, row...)
			side.rids = append(side.rids, rid)
		}
		side.lo = append(side.lo, lo)
		side.hi = append(side.hi, hi)
		side.n++
	}

	if sp.reader != nil {
		side.ns.addProbes(1)
		boundsOnly := n.p.count && len(sp.filters) == 0
		var buf []int64
		if !boundsOnly {
			buf = make([]int64, sp.tab.Schema().NumCols())
		}
		prev, mono := int64(math.MinInt64), true
		var inner error
		err := sp.reader.Ordered(func(rid rel.RowID, lo, hi int64) bool {
			if inner = poll(); inner != nil {
				return false
			}
			if lo < prev {
				mono = false
			}
			prev = lo
			if boundsOnly {
				add(rid, nil, lo, hi)
				return true
			}
			if inner = sp.tab.GetRawInto(rid, buf); inner != nil {
				return false
			}
			add(rid, buf, buf[sp.mjLo], buf[sp.mjHi])
			return true
		})
		if inner != nil {
			return inner
		}
		if err != nil {
			return err
		}
		if !mono {
			// Defensive: an ordered stream that lied still joins correctly.
			side.unordered.Store(true)
			side.sortByLo()
			side.ns.addSpill(int64(side.n))
		}
		return nil
	}

	if sp.coll != nil {
		for ri, row := range sp.coll.Rows {
			if err := poll(); err != nil {
				return err
			}
			if len(row) != width {
				return fmt.Errorf("sql: collection :%s row %d has %d columns, want %d",
					sp.ref.Collection, ri, len(row), width)
			}
			add(0, row, row[sp.mjLo], row[sp.mjHi])
		}
	} else {
		var inner error
		err := sp.tab.Scan(func(rid rel.RowID, row []int64) bool {
			if inner = poll(); inner != nil {
				return false
			}
			add(rid, row, row[sp.mjLo], row[sp.mjHi])
			return true
		})
		if inner != nil {
			return inner
		}
		if err != nil {
			return err
		}
	}
	side.sortByLo()
	// The sorted rows are the feed's spill, and the cursor's sweep
	// sort-rows (ExecStats folds a merge join's feed spills into them).
	side.ns.addSpill(int64(side.n))
	return nil
}

func (n *mergeJoinNode) notePeak() {
	if p := int64(n.activeL.size() + n.activeR.size()); p > n.peak {
		n.peak = p
		n.ns.setActive(p)
	}
}

func (n *mergeJoinNode) run(ec *execCtx, emit rowFn) error {
	emit, done := ec.clock(n.ns, emit)
	defer done()
	defer n.reset()
	if err := n.open(ec); err != nil {
		return err
	}
	for {
		if err := ctxErr(ec.ctx); err != nil {
			return err
		}
		sc, ok := n.advance()
		if !ok {
			return nil
		}
		if more, err := n.emitScan(ec, sc, emit); !more || err != nil {
			return err
		}
	}
}

// emitScan pushes the matching pairs of one emission scan, reporting
// whether the sweep goes on.
func (n *mergeJoinNode) emitScan(ec *execCtx, sc mjScan, emit rowFn) (bool, error) {
	switch n.mode {
	case modeBefore:
		for _, l := range n.left.byHi[:sc.n] {
			if more, err := n.emitPair(ec, l, sc.fixed, emit); !more || err != nil {
				return more, err
			}
		}
	case modeAfter:
		for _, r := range n.right.byHi[:sc.n] {
			if more, err := n.emitPair(ec, sc.fixed, r, emit); !more || err != nil {
				return more, err
			}
		}
	default:
		if sc.onR {
			sLo, sHi := n.left.lo[sc.fixed], n.left.hi[sc.fixed]
			for i := range sc.n {
				if n.matchL != nil && !n.matchL(sLo, sHi, n.activeR.lo[i], n.activeR.hi[i]) {
					continue
				}
				if more, err := n.emitPair(ec, sc.fixed, n.activeR.row[i], emit); !more || err != nil {
					return more, err
				}
			}
			break
		}
		bLo, bHi := n.right.lo[sc.fixed], n.right.hi[sc.fixed]
		for i := range sc.n {
			if n.matchR != nil && !n.matchR(n.activeL.lo[i], n.activeL.hi[i], bLo, bHi) {
				continue
			}
			if more, err := n.emitPair(ec, n.activeL.row[i], sc.fixed, emit); !more || err != nil {
				return more, err
			}
		}
	}
	return true, nil
}

// emitPair binds the pair (l, r), runs the join's post filters and pushes
// a passing pair, reporting whether the sweep goes on. The context is
// polled at every pair.
func (n *mergeJoinNode) emitPair(ec *execCtx, l, r int32, emit rowFn) (bool, error) {
	if err := ctxErr(ec.ctx); err != nil {
		return false, err
	}
	n.ns.addPairs(1)
	n.bindPair(l, r)
	for _, f := range n.m.post {
		if f(n.env) == 0 {
			n.ns.addResidual(1)
			return true, nil
		}
	}
	n.ns.addRowsOut(1)
	return emit(n.env), nil
}

// bindPair lands a pair's rows in the shared env/rids, exactly as the
// nested-loops scans would have.
func (n *mergeJoinNode) bindPair(l, r int32) {
	ls, rs := n.left.sp, n.right.sp
	copy(n.env[ls.base:ls.base+n.left.w], n.left.rows[int(l)*n.left.w:])
	copy(n.env[rs.base:rs.base+n.right.w], n.right.rows[int(r)*n.right.w:])
	n.rids[n.m.left] = n.left.rids[l]
	n.rids[n.m.right] = n.right.rids[r]
}

// count runs the whole sweep of a counting join and returns its pair
// count without emitting a pair: each emission scan adds its length when
// every scanned partner matches (INTERSECTS, the BEFORE/AFTER prefixes),
// else the hits of the relation's match in a tight loop. No pair is bound
// and no post filter runs — a counting plan has none. The sweep counters
// keep their meaning: SweepPairs is the count.
func (n *mergeJoinNode) count(ec *execCtx) (int64, error) {
	_, done := ec.clock(n.ns, nil)
	defer done()
	defer n.reset()
	if err := n.open(ec); err != nil {
		return 0, err
	}
	var total int64
	for scans := 0; ; scans++ {
		sc, ok := n.advance()
		if !ok {
			break
		}
		if scans&1023 == 0 {
			if err := ctxErr(ec.ctx); err != nil {
				return 0, err
			}
		}
		total += n.countScan(sc)
	}
	n.ns.addPairs(total)
	n.ns.addRowsOut(total)
	return total, nil
}

// countScan counts the pairs of one emission scan: what emitScan would
// push one at a time.
func (n *mergeJoinNode) countScan(sc mjScan) int64 {
	if n.mode != modeSweep || !n.m.op.exact {
		return int64(sc.n)
	}
	var c int64
	if sc.onR {
		sLo, sHi := n.left.lo[sc.fixed], n.left.hi[sc.fixed]
		lo, hi := n.activeR.lo[:sc.n], n.activeR.hi[:sc.n]
		for i := range lo {
			if n.matchL(sLo, sHi, lo[i], hi[i]) {
				c++
			}
		}
		return c
	}
	bLo, bHi := n.right.lo[sc.fixed], n.right.hi[sc.fixed]
	lo, hi := n.activeL.lo[:sc.n], n.activeL.hi[:sc.n]
	for i := range lo {
		if n.matchR(lo[i], hi[i], bLo, bHi) {
			c++
		}
	}
	return c
}

// advance processes sweep events until an emission scan starts (ok) or
// the sweep completes (!ok). Event order at equal values: starts before
// ends (touching intervals are co-active in the closed model), left
// starts before right starts (so equal-lower pairs emit exactly once, at
// the right start).
func (n *mergeJoinNode) advance() (mjScan, bool) {
	switch n.mode {
	case modeBefore:
		return n.advanceBefore()
	case modeAfter:
		return n.advanceAfter()
	}
	L, R := &n.left, &n.right
	for {
		if (!n.emitR || n.ri >= R.n) && (!n.emitL || n.li >= L.n) {
			return mjScan{}, false
		}
		const (
			evLS = iota
			evRS
			evLE
			evRE
			evNone
		)
		pick, pv := evNone, int64(0)
		better := func(ev int, v int64) bool {
			if pick == evNone {
				return true
			}
			if v != pv {
				return v < pv
			}
			return ev < pick // starts before ends, left start before right
		}
		if n.li < L.n && better(evLS, L.lo[n.li]) {
			pick, pv = evLS, L.lo[n.li]
		}
		if n.ri < R.n && better(evRS, R.lo[n.ri]) {
			pick, pv = evRS, R.lo[n.ri]
		}
		if n.emitR && n.le < L.n {
			if v := L.hi[L.byHi[n.le]]; better(evLE, v) {
				pick, pv = evLE, v
			}
		}
		if n.emitL && n.re < R.n {
			if v := R.hi[R.byHi[n.re]]; better(evRE, v) {
				pick, pv = evRE, v
			}
		}
		switch pick {
		case evLS:
			r := int32(n.li)
			n.li++
			if n.emitR {
				n.activeL.add(r, L.lo[r], L.hi[r])
				n.notePeak()
			}
			if n.emitL && n.activeR.size() > 0 {
				return mjScan{fixed: r, onR: true, n: n.activeR.size()}, true
			}
		case evRS:
			r := int32(n.ri)
			n.ri++
			if n.emitL {
				n.activeR.add(r, R.lo[r], R.hi[r])
				n.notePeak()
			}
			if n.emitR && n.activeL.size() > 0 {
				return mjScan{fixed: r, n: n.activeL.size()}, true
			}
		case evLE:
			n.activeL.remove(L.byHi[n.le])
			n.le++
		case evRE:
			n.activeR.remove(R.byHi[n.re])
			n.re++
		case evNone:
			return mjScan{}, false
		}
	}
}

// advanceBefore pairs each right row with the prefix of left rows (in
// upper-bound order) that end strictly before it starts: BEFORE in
// O(n + output), no active set.
func (n *mergeJoinNode) advanceBefore() (mjScan, bool) {
	L, R := &n.left, &n.right
	for n.ri < R.n {
		b := int32(n.ri)
		n.ri++
		for n.prefixLen < L.n && L.hi[L.byHi[n.prefixLen]] < R.lo[b] {
			n.prefixLen++
		}
		if n.prefixLen > 0 {
			return mjScan{fixed: b, n: n.prefixLen}, true
		}
	}
	return mjScan{}, false
}

// advanceAfter is the mirror: each left row against the prefix of right
// rows ending strictly before it starts.
func (n *mergeJoinNode) advanceAfter() (mjScan, bool) {
	L, R := &n.left, &n.right
	for n.li < L.n {
		s := int32(n.li)
		n.li++
		for n.prefixLen < R.n && R.hi[R.byHi[n.prefixLen]] < L.lo[s] {
			n.prefixLen++
		}
		if n.prefixLen > 0 {
			return mjScan{fixed: s, onR: true, n: n.prefixLen}, true
		}
	}
	return mjScan{}, false
}
