package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"ritree/internal/rel"
)

// evalFn evaluates an expression against the current join environment.
// Booleans are 0/1. Runtime faults (division by zero) panic with
// sqlRuntimeError and are converted to errors at the plan boundary.
type evalFn func(env []int64) int64

type sqlRuntimeError struct{ msg string }

func (e sqlRuntimeError) Error() string { return "sql: " + e.msg }

type accessKind int

const (
	accessFull accessKind = iota
	accessIndexRange
	accessCollection
	// accessDomain serves an interval operator (operators.go) through a
	// domain index: one intersection scan over the operator's region, and
	// for an Allen relation the exact relation as a residual check (§4.5).
	accessDomain
)

// srcPlan is the access plan for one FROM source.
type srcPlan struct {
	ref  TableRef
	cols []string
	base int // slot offset of this source's columns in the env
	kind accessKind
	tab  *rel.Table
	coll *Transient
	ix   *rel.Index
	eq   []evalFn // equality prefix values
	// lows/highs extend the composite start/stop keys beyond the equality
	// prefix: e.g. Figure 9's left branch scans (node, upper) from
	// (l.min, :lower) to (l.max, +inf) — exactly Oracle's access predicates.
	lows  []evalFn
	highs []evalFn

	// custom is the domain index serving this source: the region scan of
	// an accessDomain source, or — on a side of an interval merge join —
	// the index streaming it in lower-bound order (nil there: explicit
	// sort fallback). reader is that index bound to the state this
	// execution reads, and now the table's now-relative clock in that
	// state; both are set by bindPlan, per execution.
	custom Index
	reader Reader
	now    int64

	// Domain-index access (kind == accessDomain): the operator, its
	// compiled query arguments, and the row positions of the indexed
	// (lower, upper) columns the residual check reads.
	op         *intervalOp
	opArgs     []evalFn
	opLo, opHi int

	filters []evalFn // predicates checked once this source is bound

	// Interval merge join feed (selectPlan.merge non-nil): mjLo/mjHi are
	// the join interval's column positions within cols.
	mjLo, mjHi int
}

// mergeSpec describes an interval merge join between two sources: the
// operator linking them (one of the 13 extended Allen relations, or
// plain INTERSECTS), which source binds the subject (lower, upper)
// arguments and which the query arguments, and the residual filters that
// reference both sides.
type mergeSpec struct {
	op    *intervalOp
	left  int // source index of the subject (args[0:2]) side
	right int // source index of the query (args[2:4]) side
	post  []evalFn
}

// selectPlan is a compiled single SELECT block. Compiled expressions
// never capture bind values: every :name reference reads an env slot in
// the bind tail (after all source columns), filled per execution by
// fillBinds. That is what makes a plan reusable — and cacheable — across
// executions with different binds.
type selectPlan struct {
	eng     *Engine
	sources []*srcPlan
	merge   *mergeSpec // non-nil: interval merge join instead of nested loops
	project []evalFn
	outCols []string
	envSize int
	// bindSlots maps a bind name to its slot in the env's bind tail; the
	// absolute env position is envSize + slot. envSize is final before any
	// compile call (source bases are assigned first), so positions are
	// stable for the plan's lifetime. nowSlots shares the tail: it maps a
	// source index to the slot carrying that source's now-clock, for the
	// compiled interval-operator residuals that resolve now-relative rows.
	bindSlots map[string]int
	nowSlots  map[int]int

	// aggs are the compiled items of an ungrouped aggregating block (see
	// planAggregate): templates that each execution copies into fresh
	// accumulators. count marks a block whose lone COUNT(*) needs no row
	// at all — a merge join without post filters counts its sweep, a lone
	// domain-index source without filters calls Reader.Count. Both are
	// decided at plan time, so a cached plan keeps them.
	aggs  []*aggState
	count bool
}

// bindSlot returns the absolute env position of bind :name, allocating a
// tail slot on first reference.
func (p *selectPlan) bindSlot(name string) int {
	if p.bindSlots == nil {
		p.bindSlots = make(map[string]int)
	}
	slot, ok := p.bindSlots[name]
	if !ok {
		slot = p.tailLen()
		p.bindSlots[name] = slot
	}
	return p.envSize + slot
}

// nowSlot returns the absolute env position of source si's now-clock,
// allocating a tail slot on first reference.
func (p *selectPlan) nowSlot(si int) int {
	if p.nowSlots == nil {
		p.nowSlots = make(map[int]int)
	}
	slot, ok := p.nowSlots[si]
	if !ok {
		slot = p.tailLen()
		p.nowSlots[si] = slot
	}
	return p.envSize + slot
}

func (p *selectPlan) tailLen() int { return len(p.bindSlots) + len(p.nowSlots) }

// envLen is the full env width: all source columns plus the bind tail.
func (p *selectPlan) envLen() int { return p.envSize + p.tailLen() }

// fillBinds writes this execution's bind values, and the now-clocks
// bindPlan resolved, into env's bind tail. Planning no longer consumes
// scalar binds, so a missing or mistyped bind surfaces here — when the
// plan is instantiated.
func (p *selectPlan) fillBinds(env []int64, binds map[string]interface{}) error {
	for name, slot := range p.bindSlots {
		v, err := bindScalar(binds, name)
		if err != nil {
			return err
		}
		env[p.envSize+slot] = v
	}
	for si, slot := range p.nowSlots {
		env[p.envSize+slot] = p.sources[si].now
	}
	return nil
}

type conjunct struct {
	ex     Expr
	maxSrc int // highest source index referenced; -1 if none
	used   bool
}

// planSelect compiles one SELECT block against the current binds.
func (e *Engine) planSelect(s *SelectStmt, binds map[string]interface{}) (*selectPlan, error) {
	if len(s.From) == 0 {
		return nil, fmt.Errorf("sql: SELECT requires a FROM clause")
	}
	p := &selectPlan{eng: e}
	seen := map[string]bool{}
	for _, ref := range s.From {
		sp := &srcPlan{ref: ref, base: p.envSize}
		if ref.Collection != "" {
			coll, err := bindCollection(binds, ref.Collection)
			if err != nil {
				return nil, err
			}
			sp.coll = coll
			sp.cols = coll.Cols
			sp.kind = accessCollection
		} else {
			tab, err := e.db.Table(ref.Name)
			if err != nil {
				return nil, err
			}
			sp.tab = tab
			sp.cols = tab.Schema().Columns
			sp.kind = accessFull
		}
		name := strings.ToLower(ref.displayName())
		if seen[name] {
			return nil, fmt.Errorf("sql: duplicate table alias %q", name)
		}
		seen[name] = true
		p.sources = append(p.sources, sp)
	}
	// Join order: transient collections drive the nested loops (they are
	// uncorrelated bind values, and the indexed table must be probed per
	// collection row — the plan Oracle's optimizer picks for Figure 9).
	sort.SliceStable(p.sources, func(i, j int) bool {
		ci := p.sources[i].kind == accessCollection
		cj := p.sources[j].kind == accessCollection
		return ci && !cj
	})
	for _, sp := range p.sources {
		sp.base = p.envSize
		p.envSize += len(sp.cols)
	}

	// Split WHERE into conjuncts.
	var conjuncts []*conjunct
	var split func(ex Expr)
	split = func(ex Expr) {
		if b, ok := ex.(*BinaryExpr); ok && b.Op == "and" {
			split(b.L)
			split(b.R)
			return
		}
		conjuncts = append(conjuncts, &conjunct{ex: ex})
	}
	if s.Where != nil {
		split(s.Where)
	}
	for _, c := range conjuncts {
		m, err := p.maxSource(c.ex)
		if err != nil {
			return nil, err
		}
		c.maxSrc = m
	}

	// Interval merge join first: exactly two sources linked by one
	// interval predicate sweep together instead of nested-looping — the
	// sort-merge interval join of Piatov et al. (PAPERS.md). Detection
	// claims the linking conjunct; everything else becomes a per-side or
	// post-join filter below.
	if len(p.sources) == 2 && !e.mergeOff {
		if err := p.detectMergeJoin(conjuncts); err != nil {
			return nil, err
		}
	}

	if p.merge == nil {
		// Choose an access path per source, in FROM order (left-deep nested
		// loops, as the paper's plans are forced via optimizer hints).
		for i, sp := range p.sources {
			if sp.kind == accessCollection {
				continue
			}
			if err := e.chooseAccess(p, sp, i, conjuncts); err != nil {
				return nil, err
			}
		}

		// Attach every remaining conjunct as a filter at the last source it
		// references (access-predicate conjuncts are kept as residual filters:
		// cheap, and required for multi-node range pairs, §4.3).
		for _, c := range conjuncts {
			if c.used {
				continue
			}
			at := c.maxSrc
			if at < 0 {
				at = 0
			}
			f, err := p.compile(c.ex, at)
			if err != nil {
				return nil, err
			}
			p.sources[at].filters = append(p.sources[at].filters, f)
		}
	} else if err := p.attachMergeFilters(conjuncts); err != nil {
		return nil, err
	}

	// Projection.
	for _, item := range s.Items {
		if item.Star {
			for si, sp := range p.sources {
				if item.StarAlias != "" && !strings.EqualFold(item.StarAlias, sp.ref.displayName()) {
					continue
				}
				for ci, col := range sp.cols {
					slot := sp.base + ci
					p.project = append(p.project, func(env []int64) int64 { return env[slot] })
					p.outCols = append(p.outCols, col)
				}
				_ = si
			}
			if len(p.project) == 0 {
				return nil, fmt.Errorf("sql: %s.* matches no source", item.StarAlias)
			}
			continue
		}
		f, err := p.compile(item.Expr, len(p.sources)-1)
		if err != nil {
			return nil, err
		}
		p.project = append(p.project, f)
		name := item.As
		if name == "" {
			if ce, ok := item.Expr.(*ColumnExpr); ok {
				name = ce.Column
			} else {
				name = fmt.Sprintf("col%d", len(p.outCols)+1)
			}
		}
		p.outCols = append(p.outCols, name)
	}
	return p, nil
}

// detectMergeJoin looks for a single interval predicate — ALLEN_X or
// INTERSECTS over four plain column arguments, (lower, upper) of one
// source and (lower, upper) of the other — and claims it as the merge
// join's linking conjunct. Each side then records its feed: the ordered
// stream of a domain index on exactly the join columns when one has it
// (HasOrdered), the explicit sort fallback otherwise.
func (p *selectPlan) detectMergeJoin(conjuncts []*conjunct) error {
	for _, c := range conjuncts {
		call, ok := c.ex.(*CallExpr)
		if !ok || c.used || len(call.Args) != 4 {
			continue
		}
		op := lookupOp(call.Name)
		if op == nil || op.point {
			continue
		}
		var si, pos [4]int
		cols := true
		for k, a := range call.Args {
			ce, isCol := a.(*ColumnExpr)
			if !isCol {
				cols = false
				break
			}
			s, slot, err := p.resolve(ce)
			if err != nil {
				return err
			}
			si[k], pos[k] = s, slot-p.sources[s].base
		}
		if !cols || si[0] != si[1] || si[2] != si[3] || si[0] == si[2] {
			continue
		}
		m := &mergeSpec{op: op, left: si[0], right: si[2]}
		ls, rs := p.sources[m.left], p.sources[m.right]
		ls.mjLo, ls.mjHi = pos[0], pos[1]
		rs.mjLo, rs.mjHi = pos[2], pos[3]
		for _, sp := range [2]*srcPlan{ls, rs} {
			if sp.tab == nil {
				continue
			}
			for _, ci := range p.eng.customByTb[sp.ref.Name] {
				idxCols := ci.Columns()
				if ci.HasOrdered() && len(idxCols) == 2 &&
					strings.EqualFold(idxCols[0], sp.cols[sp.mjLo]) &&
					strings.EqualFold(idxCols[1], sp.cols[sp.mjHi]) {
					sp.custom = ci
					break
				}
			}
		}
		c.used = true
		p.merge = m
		return nil
	}
	return nil
}

// sourceMask returns a bitmask of the source indexes ex references.
func (p *selectPlan) sourceMask(ex Expr) (uint, error) {
	var mask uint
	var walk func(Expr) error
	walk = func(ex Expr) error {
		switch x := ex.(type) {
		case *ColumnExpr:
			si, _, err := p.resolve(x)
			if err != nil {
				return err
			}
			mask |= 1 << uint(si)
		case *UnaryExpr:
			return walk(x.X)
		case *BinaryExpr:
			if err := walk(x.L); err != nil {
				return err
			}
			return walk(x.R)
		case *BetweenExpr:
			for _, sub := range []Expr{x.X, x.Lo, x.Hi} {
				if err := walk(sub); err != nil {
					return err
				}
			}
		case *CallExpr:
			for _, a := range x.Args {
				if err := walk(a); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(ex); err != nil {
		return 0, err
	}
	return mask, nil
}

// attachMergeFilters distributes the non-linking conjuncts of a merge
// join: single-source conjuncts filter that side's feed before it enters
// the sweep, conjuncts over both sides run post-join on each emitted
// pair, and source-free conjuncts gate the left feed (any side works —
// a constant false empties the join either way).
func (p *selectPlan) attachMergeFilters(conjuncts []*conjunct) error {
	last := len(p.sources) - 1
	for _, c := range conjuncts {
		if c.used {
			continue
		}
		mask, err := p.sourceMask(c.ex)
		if err != nil {
			return err
		}
		switch mask {
		case 0, 1 << uint(p.merge.left):
			f, err := p.compile(c.ex, p.merge.left)
			if err != nil {
				return err
			}
			p.sources[p.merge.left].filters = append(p.sources[p.merge.left].filters, f)
		case 1 << uint(p.merge.right):
			f, err := p.compile(c.ex, last)
			if err != nil {
				return err
			}
			p.sources[p.merge.right].filters = append(p.sources[p.merge.right].filters, f)
		default:
			f, err := p.compile(c.ex, last)
			if err != nil {
				return err
			}
			p.merge.post = append(p.merge.post, f)
		}
	}
	return nil
}

// maxSource returns the highest source index referenced by ex (-1 if none).
func (p *selectPlan) maxSource(ex Expr) (int, error) {
	max := -1
	var walk func(Expr) error
	walk = func(ex Expr) error {
		switch x := ex.(type) {
		case *ColumnExpr:
			si, _, err := p.resolve(x)
			if err != nil {
				return err
			}
			if si > max {
				max = si
			}
		case *UnaryExpr:
			return walk(x.X)
		case *BinaryExpr:
			if err := walk(x.L); err != nil {
				return err
			}
			return walk(x.R)
		case *BetweenExpr:
			for _, sub := range []Expr{x.X, x.Lo, x.Hi} {
				if err := walk(sub); err != nil {
					return err
				}
			}
		case *CallExpr:
			for _, a := range x.Args {
				if err := walk(a); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(ex); err != nil {
		return -1, err
	}
	return max, nil
}

// resolve maps a column reference to (source index, env slot).
func (p *selectPlan) resolve(c *ColumnExpr) (int, int, error) {
	if c.Table != "" {
		for si, sp := range p.sources {
			if !strings.EqualFold(c.Table, sp.ref.displayName()) {
				continue
			}
			for ci, col := range sp.cols {
				if strings.EqualFold(col, c.Column) {
					return si, sp.base + ci, nil
				}
			}
			return 0, 0, fmt.Errorf("sql: no column %s in %s", c.Column, c.Table)
		}
		return 0, 0, fmt.Errorf("sql: unknown table or alias %q", c.Table)
	}
	foundSi, foundSlot := -1, -1
	for si, sp := range p.sources {
		for ci, col := range sp.cols {
			if strings.EqualFold(col, c.Column) {
				if foundSi >= 0 {
					return 0, 0, fmt.Errorf("sql: ambiguous column %q", c.Column)
				}
				foundSi, foundSlot = si, sp.base+ci
			}
		}
	}
	if foundSi < 0 {
		return 0, 0, fmt.Errorf("sql: unknown column %q", c.Column)
	}
	return foundSi, foundSlot, nil
}

// compile turns ex into an evalFn. Columns of sources > maxSrc are
// rejected (they are not bound yet at evaluation time). Bind references
// compile to env-slot reads (see bindSlot), never to captured values.
func (p *selectPlan) compile(ex Expr, maxSrc int) (evalFn, error) {
	switch x := ex.(type) {
	case *NumberExpr:
		v := x.Value
		return func([]int64) int64 { return v }, nil
	case *BindExpr:
		slot := p.bindSlot(x.Name)
		return func(env []int64) int64 { return env[slot] }, nil
	case *ColumnExpr:
		si, slot, err := p.resolve(x)
		if err != nil {
			return nil, err
		}
		if si > maxSrc {
			return nil, fmt.Errorf("sql: column %s of a later FROM source used too early", x.Column)
		}
		return func(env []int64) int64 { return env[slot] }, nil
	case *UnaryExpr:
		f, err := p.compile(x.X, maxSrc)
		if err != nil {
			return nil, err
		}
		if x.Op == "-" {
			return func(env []int64) int64 { return -f(env) }, nil
		}
		return func(env []int64) int64 { return b2i(f(env) == 0) }, nil
	case *BetweenExpr:
		xf, err := p.compile(x.X, maxSrc)
		if err != nil {
			return nil, err
		}
		lf, err := p.compile(x.Lo, maxSrc)
		if err != nil {
			return nil, err
		}
		hf, err := p.compile(x.Hi, maxSrc)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(env []int64) int64 {
			v := xf(env)
			in := v >= lf(env) && v <= hf(env)
			return b2i(in != not)
		}, nil
	case *BinaryExpr:
		lf, err := p.compile(x.L, maxSrc)
		if err != nil {
			return nil, err
		}
		rf, err := p.compile(x.R, maxSrc)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "+":
			return func(env []int64) int64 { return lf(env) + rf(env) }, nil
		case "-":
			return func(env []int64) int64 { return lf(env) - rf(env) }, nil
		case "*":
			return func(env []int64) int64 { return lf(env) * rf(env) }, nil
		case "/":
			return func(env []int64) int64 {
				d := rf(env)
				if d == 0 {
					panic(sqlRuntimeError{"division by zero"})
				}
				return lf(env) / d
			}, nil
		case "=":
			return func(env []int64) int64 { return b2i(lf(env) == rf(env)) }, nil
		case "<>":
			return func(env []int64) int64 { return b2i(lf(env) != rf(env)) }, nil
		case "<":
			return func(env []int64) int64 { return b2i(lf(env) < rf(env)) }, nil
		case "<=":
			return func(env []int64) int64 { return b2i(lf(env) <= rf(env)) }, nil
		case ">":
			return func(env []int64) int64 { return b2i(lf(env) > rf(env)) }, nil
		case ">=":
			return func(env []int64) int64 { return b2i(lf(env) >= rf(env)) }, nil
		case "and":
			return func(env []int64) int64 { return b2i(lf(env) != 0 && rf(env) != 0) }, nil
		case "or":
			return func(env []int64) int64 { return b2i(lf(env) != 0 || rf(env) != 0) }, nil
		}
		return nil, fmt.Errorf("sql: unsupported operator %q", x.Op)
	case *CallExpr:
		// Every interval operator evaluates as a plain predicate over any
		// expressions: the form for sources without a domain index
		// (transient collections, un-indexed tables, the outer side of a
		// join) and for conjuncts after the one that drove the access path.
		// chooseAccess picks the index-served form before compilation gets
		// here.
		op := lookupOp(x.Name)
		if op == nil {
			return nil, fmt.Errorf("sql: unknown operator %s (the interval operators are INTERSECTS, CONTAINS_POINT and ALLEN_*)", x.Name)
		}
		if len(x.Args) != op.arity() {
			want := "(lower, upper, :qlo, :qhi)"
			if op.point {
				want = "(lower, upper, :p)"
			}
			return nil, fmt.Errorf("sql: %s needs %s, got %d args", op.name, want, len(x.Args))
		}
		fns := make([]evalFn, len(x.Args))
		for i, a := range x.Args {
			f, err := p.compile(a, maxSrc)
			if err != nil {
				return nil, err
			}
			fns[i] = f
		}
		// Now-relative rows (§4.6) must evaluate against the same clock
		// here as on the index-served path, or the answer would depend on
		// which conjunct drove the access plan: when the upper argument is
		// a column, its source's clock resolves the NowMarker sentinel
		// (otherwise now = 0, like the executor).
		nowAt := -1
		if ce, ok := x.Args[1].(*ColumnExpr); ok {
			if si, _, err := p.resolve(ce); err == nil {
				nowAt = p.nowSlot(si)
			}
		}
		lo, hi, args := fns[0], fns[1], fns[2:]
		return func(env []int64) int64 {
			q, err := op.query(args, env)
			if err != nil {
				panic(err)
			}
			var now int64
			if nowAt >= 0 {
				now = env[nowAt]
			}
			return b2i(op.holds(lo(env), hi(env), now, q))
		}, nil
	}
	return nil, fmt.Errorf("sql: unsupported expression %T", ex)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sargable checks whether conjunct c constrains column col of source si
// with an expression evaluable from earlier sources. It returns the
// operator and the value expression.
func (p *selectPlan) sargable(c *conjunct, si int, col string) (string, Expr, Expr, bool) {
	colMatches := func(ex Expr) bool { return p.isColumn(ex, si, col) }
	evaluableBefore := func(ex Expr) bool {
		m, err := p.maxSource(ex)
		return err == nil && m < si
	}
	switch x := c.ex.(type) {
	case *BinaryExpr:
		flip := map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
		if colMatches(x.L) && evaluableBefore(x.R) {
			if _, ok := flip[x.Op]; ok {
				return x.Op, x.R, nil, true
			}
		}
		if colMatches(x.R) && evaluableBefore(x.L) {
			if f, ok := flip[x.Op]; ok {
				return f, x.L, nil, true
			}
		}
	case *BetweenExpr:
		if !x.Not && colMatches(x.X) && evaluableBefore(x.Lo) && evaluableBefore(x.Hi) {
			return "between", x.Lo, x.Hi, true
		}
	}
	return "", nil, nil, false
}

// isColumn reports whether ex is a reference to column col of source si.
func (p *selectPlan) isColumn(ex Expr, si int, col string) bool {
	ce, ok := ex.(*ColumnExpr)
	if !ok || !strings.EqualFold(ce.Column, col) {
		return false
	}
	csi, _, err := p.resolve(ce)
	return err == nil && csi == si
}

// domainMatch returns the interval operator of conjunct c and a domain
// index of source si that serves it: the operator's column arguments are
// the index's (lower, upper) columns of si, and its query arguments are
// bound by earlier sources. The index is nil when there is none.
func (p *selectPlan) domainMatch(c *conjunct, sp *srcPlan, si int) (*intervalOp, Index) {
	call, ok := c.ex.(*CallExpr)
	if !ok || c.used {
		return nil, nil
	}
	op := lookupOp(call.Name)
	if op == nil || len(call.Args) != op.arity() {
		return nil, nil
	}
	for _, a := range call.Args[2:] {
		if m, err := p.maxSource(a); err != nil || m >= si {
			return nil, nil
		}
	}
	for _, ci := range p.eng.customByTb[sp.ref.Name] {
		cols := ci.Columns()
		if len(cols) == 2 && p.isColumn(call.Args[0], si, cols[0]) && p.isColumn(call.Args[1], si, cols[1]) {
			return op, ci
		}
	}
	return nil, nil
}

// chooseAccess selects the cheapest available access path for source si.
func (e *Engine) chooseAccess(p *selectPlan, sp *srcPlan, si int, conjuncts []*conjunct) error {
	// Extensible indexing first (paper §5): an interval operator over a
	// domain index of this table runs as the index's region scan. An
	// operator the scan answers exactly (INTERSECTS, CONTAINS_POINT) is
	// preferred to an Allen relation that needs the residual check.
	var pick *conjunct
	var pickOp *intervalOp
	var pickIx Index
	for _, c := range conjuncts {
		if op, ci := p.domainMatch(c, sp, si); ci != nil && (pick == nil || pickOp.exact && !op.exact) {
			pick, pickOp, pickIx = c, op, ci
		}
	}
	if pick != nil {
		for _, a := range pick.ex.(*CallExpr).Args[2:] {
			f, err := p.compile(a, si-1)
			if err != nil {
				return err
			}
			sp.opArgs = append(sp.opArgs, f)
		}
		cols := pickIx.Columns()
		sp.kind, sp.custom, sp.op = accessDomain, pickIx, pickOp
		sp.opLo, sp.opHi = sp.tab.Schema().ColIndex(cols[0]), sp.tab.Schema().ColIndex(cols[1])
		pick.used = true
		return nil
	}

	// Built-in composite indexes: the longest usable equality prefix, one
	// range column, and — as in Oracle's composite access predicates — an
	// optional start/stop key extension into the following column
	// (Figure 9's left branch scans (node, upper) from (l.min, :lower)).
	type candidate struct {
		ix       *rel.Index
		eqEx     []Expr
		lowEx    []Expr
		hiEx     []Expr
		eqCount  int
		hasRange bool
	}
	// rangeOn collects the best low/high bound expressions on col.
	rangeOn := func(col string) (lowEx, hiEx Expr) {
		for _, c := range conjuncts {
			op, v1, v2, ok := p.sargable(c, si, col)
			if !ok {
				continue
			}
			switch op {
			case ">", ">=":
				if lowEx == nil {
					if op == ">" {
						v1 = &BinaryExpr{Op: "+", L: v1, R: &NumberExpr{Value: 1}}
					}
					lowEx = v1
				}
			case "<", "<=":
				if hiEx == nil {
					if op == "<" {
						v1 = &BinaryExpr{Op: "-", L: v1, R: &NumberExpr{Value: 1}}
					}
					hiEx = v1
				}
			case "between":
				if lowEx == nil {
					lowEx = v1
				}
				if hiEx == nil {
					hiEx = v2
				}
			}
		}
		return lowEx, hiEx
	}
	eqOn := func(col string) Expr {
		for _, c := range conjuncts {
			if op, v1, _, ok := p.sargable(c, si, col); ok && op == "=" {
				return v1
			}
		}
		return nil
	}

	var best *candidate
	for _, ix := range sp.tab.Indexes() {
		cand := &candidate{ix: ix}
		cols := ix.Cols()
		pos := 0
		for ; pos < len(cols); pos++ {
			col := sp.tab.Schema().Columns[cols[pos]]
			if eqEx := eqOn(col); eqEx != nil {
				cand.eqEx = append(cand.eqEx, eqEx)
				cand.eqCount++
				continue
			}
			lowEx, hiEx := rangeOn(col)
			if lowEx == nil && hiEx == nil {
				break
			}
			cand.hasRange = true
			if lowEx != nil {
				cand.lowEx = append(cand.lowEx, lowEx)
			}
			if hiEx != nil {
				cand.hiEx = append(cand.hiEx, hiEx)
			}
			// Key extension into the next column: the start key may grow
			// when this column has a low bound, the stop key when it has a
			// high bound.
			if pos+1 < len(cols) {
				nextCol := sp.tab.Schema().Columns[cols[pos+1]]
				nlow, nhigh := rangeOn(nextCol)
				if nEq := eqOn(nextCol); nEq != nil {
					if nlow == nil {
						nlow = nEq
					}
					if nhigh == nil {
						nhigh = nEq
					}
				}
				if lowEx != nil && nlow != nil {
					cand.lowEx = append(cand.lowEx, nlow)
				}
				if hiEx != nil && nhigh != nil {
					cand.hiEx = append(cand.hiEx, nhigh)
				}
			}
			break
		}
		if cand.eqCount == 0 && !cand.hasRange {
			continue
		}
		// Score: longest equality prefix, then a usable range, then the
		// deepest composite start/stop keys (Figure 9's left branch must
		// pick upperIndex over lowerIndex because its start key extends to
		// (l.min, :lower)).
		better := best == nil ||
			cand.eqCount > best.eqCount ||
			(cand.eqCount == best.eqCount && cand.hasRange && !best.hasRange) ||
			(cand.eqCount == best.eqCount && cand.hasRange == best.hasRange &&
				len(cand.lowEx)+len(cand.hiEx) > len(best.lowEx)+len(best.hiEx))
		if better {
			best = cand
		}
	}
	if best == nil {
		return nil // full table scan
	}
	sp.kind = accessIndexRange
	sp.ix = best.ix
	for _, ex := range best.eqEx {
		f, err := p.compile(ex, si-1)
		if err != nil {
			return err
		}
		sp.eq = append(sp.eq, f)
	}
	for _, ex := range best.lowEx {
		f, err := p.compile(ex, si-1)
		if err != nil {
			return err
		}
		sp.lows = append(sp.lows, f)
	}
	for _, ex := range best.hiEx {
		f, err := p.compile(ex, si-1)
		if err != nil {
			return err
		}
		sp.highs = append(sp.highs, f)
	}
	return nil
}

// sortKeys resolves ORDER BY items against the output columns. Keys may
// be output column names, select aliases, or 1-based ordinals.
func sortKeys(items []OrderItem, cols []string) ([]sortKey, error) {
	var keys []sortKey
	for _, item := range items {
		switch x := item.Expr.(type) {
		case *NumberExpr:
			if x.Value < 1 || int(x.Value) > len(cols) {
				return nil, fmt.Errorf("sql: ORDER BY ordinal %d out of range", x.Value)
			}
			keys = append(keys, sortKey{int(x.Value) - 1, item.Desc})
		case *ColumnExpr:
			found := -1
			for i, c := range cols {
				if strings.EqualFold(c, x.Column) {
					found = i
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("sql: ORDER BY column %q not in the select list", x.Column)
			}
			keys = append(keys, sortKey{found, item.Desc})
		default:
			return nil, fmt.Errorf("sql: ORDER BY supports output columns and ordinals")
		}
	}
	return keys, nil
}

// explain renders the Figure 10-style execution plan of a SELECT,
// including the streaming pipeline's explicit sinks (SORT, DISTINCT,
// LIMIT) above the per-block join trees.
func (e *Engine) explain(s *SelectStmt, binds map[string]interface{}) (string, error) {
	var sb strings.Builder
	sb.WriteString("SELECT STATEMENT\n")
	indent := 1
	switch {
	case s.Limit != nil && len(s.OrderBy) > 0:
		// ORDER BY + LIMIT k execute as one fused top-k heap sink.
		n, err := evalConst(s.Limit, binds)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%sSORT TOP-K %d\n", strings.Repeat("  ", indent), n)
		indent++
	case s.Limit != nil:
		n, err := evalConst(s.Limit, binds)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%sLIMIT %d\n", strings.Repeat("  ", indent), n)
		indent++
	case len(s.OrderBy) > 0:
		sb.WriteString(strings.Repeat("  ", indent) + "SORT ORDER BY\n")
		indent++
	}
	if s.Union != nil {
		sb.WriteString(strings.Repeat("  ", indent) + "UNION-ALL\n")
		indent++
	}
	for blk := s; blk != nil; blk = blk.Union {
		bi := indent
		if blk.Distinct {
			sb.WriteString(strings.Repeat("  ", bi) + "DISTINCT\n")
			bi++
		}
		if len(blk.GroupBy) > 0 || isAggregate(blk) {
			// Grouped and aggregating blocks plan their FROM/WHERE as a
			// SELECT * input under the aggregation sink, exactly as
			// execution does.
			var plan *selectPlan
			var err error
			sink := "AGGREGATE"
			if len(blk.GroupBy) > 0 {
				sink = "HASH GROUP BY"
				plan, err = e.planInput(blk, binds)
			} else {
				plan, err = e.planAggregate(blk, binds)
			}
			if err != nil {
				return "", err
			}
			sb.WriteString(strings.Repeat("  ", bi) + sink + "\n")
			printJoin(&sb, plan, bi+1)
			continue
		}
		plan, err := e.planSelect(blk, binds)
		if err != nil {
			return "", err
		}
		printJoin(&sb, plan, bi)
	}
	return sb.String(), nil
}

// printJoin renders a block's join tree: the interval merge join with its
// two ordered feeds, an index-only count, or the left-deep nested-loop
// tree NL(NL(s0,s1),s2).
func printJoin(sb *strings.Builder, p *selectPlan, indent int) {
	switch {
	case p.merge != nil:
		sb.WriteString(strings.Repeat("  ", indent) + mergeJoinLine(p) + "\n")
		pad := strings.Repeat("  ", indent+1)
		sb.WriteString(pad + mergeFeedLine(p.sources[p.merge.left], p.count) + "\n")
		sb.WriteString(pad + mergeFeedLine(p.sources[p.merge.right], p.count) + "\n")
	case p.count:
		sb.WriteString(strings.Repeat("  ", indent) + indexCountLine(p.sources[0]) + "\n")
	default:
		printNested(sb, p.sources, indent)
	}
}

// printNested renders the left-deep nested-loop tree NL(NL(s0,s1),s2)...
func printNested(sb *strings.Builder, sources []*srcPlan, indent int) {
	pad := strings.Repeat("  ", indent)
	if len(sources) == 1 {
		sb.WriteString(pad + accessLine(sources[0]) + "\n")
		return
	}
	sb.WriteString(pad + "NESTED LOOPS\n")
	printNested(sb, sources[:len(sources)-1], indent+1)
	sb.WriteString(strings.Repeat("  ", indent+1) + accessLine(sources[len(sources)-1]) + "\n")
}

// mergeFeedLine names one merge-join feed: a zero-sort ordered stream off
// a start-sorted domain index — bounds only when the join counts and the
// side has no filter of its own — or an explicit sort over the source's
// ordinary access path.
func mergeFeedLine(sp *srcPlan, count bool) string {
	if sp.custom != nil {
		return orderedFeedLine(sp.custom, count && len(sp.filters) == 0)
	}
	return "SORT BY LOWER (" + accessLine(sp) + ")"
}

// indexCountLine names an index-only COUNT(*) of a domain-index operator.
func indexCountLine(sp *srcPlan) string {
	return fmt.Sprintf("DOMAIN INDEX COUNT %s (%s)", strings.ToUpper(sp.custom.Name()), sp.op.name)
}

// evalConst evaluates an expression that may reference only literals and
// bind variables (INSERT value lists).
func evalConst(ex Expr, binds map[string]interface{}) (int64, error) {
	switch x := ex.(type) {
	case *NumberExpr:
		return x.Value, nil
	case *BindExpr:
		return bindScalar(binds, x.Name)
	case *UnaryExpr:
		v, err := evalConst(x.X, binds)
		if err != nil {
			return 0, err
		}
		if x.Op == "-" {
			return -v, nil
		}
		return b2i(v == 0), nil
	case *BinaryExpr:
		l, err := evalConst(x.L, binds)
		if err != nil {
			return 0, err
		}
		r, err := evalConst(x.R, binds)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, sqlRuntimeError{"division by zero"}
			}
			return l / r, nil
		}
	}
	return 0, fmt.Errorf("sql: expression not constant (columns are not allowed here)")
}

func accessLine(sp *srcPlan) string {
	switch sp.kind {
	case accessCollection:
		return "COLLECTION ITERATOR :" + strings.ToUpper(sp.ref.Collection)
	case accessIndexRange:
		return "INDEX RANGE SCAN " + strings.ToUpper(sp.ix.Name())
	case accessDomain:
		if sp.op.exact {
			return fmt.Sprintf("DOMAIN INDEX %s (%s VIA INTERSECTS REGION + RESIDUAL)",
				strings.ToUpper(sp.custom.Name()), sp.op.name)
		}
		return fmt.Sprintf("DOMAIN INDEX %s (%s)", strings.ToUpper(sp.custom.Name()), sp.op.name)
	default:
		return "TABLE ACCESS FULL " + strings.ToUpper(sp.ref.Name)
	}
}
