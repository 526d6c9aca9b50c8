package sqldb

import (
	"context"
	"fmt"
	"time"
)

// Rows is a streaming SELECT cursor: rows are produced one at a time by
// the volcano pipeline, so the underlying access-method scans advance
// only as far as the consumer pulls. The usage contract mirrors
// database/sql:
//
//	rows, err := eng.Query(ctx, "SELECT id FROM iv WHERE intersects(lower, upper, :a, :b) LIMIT 10", binds)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var id int64
//		_ = rows.Scan(&id)
//	}
//	if err := rows.Err(); err != nil { ... }
//
// The cursor holds NO lock while streaming: it reads from a pinned
// page-store snapshot (see view.go), so concurrent writers commit freely
// and the cursor keeps answering from its snapshot. Still always call
// Close (it is idempotent; Next auto-closes on exhaustion and error) —
// an open cursor pins its snapshot's pre-image retention. A cancelled
// ctx surfaces as Err() after Next returns false, including mid-scan:
// the pipeline polls the context at every leaf row and abandoning the
// cursor stops the suspended access-method scan.
type Rows struct {
	root   rowNode
	ec     *execCtx
	cols   []string
	err    error
	opened bool
	closed bool
	// planRoot is the root of the per-operator stats tree: the one set of
	// counters behind Stats and PlanStats.
	planRoot *nodeStats
	// cachedPlan records that this cursor executes a plan-cache hit (an
	// EXPLAIN ANALYZE annotation and a driver-visible fact).
	cachedPlan bool
	// closers run once on Close, LIFO — lock releases pushed by Query.
	closers []func()
}

// CachedPlan reports whether this cursor reused a cached plan.
func (r *Rows) CachedPlan() bool { return r.cachedPlan }

// Columns names the projected columns.
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row, reporting whether one is available. On
// false, the cursor has auto-closed; consult Err.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	ok, err := r.step()
	if err != nil {
		r.err = err
		_ = r.Close()
		return false
	}
	if !ok {
		_ = r.Close()
		return false
	}
	return true
}

// step opens the pipeline lazily and advances it, converting runtime
// faults in compiled expressions (division by zero, inverted Allen query
// bounds from join columns) into errors.
func (r *Rows) step() (ok bool, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if re, isRE := rec.(sqlRuntimeError); isRE {
				ok, err = false, re
				return
			}
			panic(rec)
		}
	}()
	if !r.opened {
		r.opened = true
		if err := ctxErr(r.ec.ctx); err != nil {
			return false, err
		}
		if err := r.root.Open(r.ec); err != nil {
			return false, err
		}
	}
	return r.root.Next(r.ec)
}

// Row returns the current output row. It is valid only after a true
// Next and until the following Next or Close; copy it to retain it.
func (r *Rows) Row() []int64 { return r.root.Row() }

// Scan copies the current row into dest, one pointer per column.
func (r *Rows) Scan(dest ...*int64) error {
	row := r.Row()
	if len(dest) != len(row) {
		return fmt.Errorf("sql: Scan got %d destinations for %d columns", len(dest), len(row))
	}
	for i, d := range dest {
		*d = row[i]
	}
	return nil
}

// Err returns the error that terminated iteration, if any. A cancelled
// context surfaces here as its context error.
func (r *Rows) Err() error { return r.err }

// Stats returns the work counters of this cursor (see ExecStats): the
// fold of its plan tree. The counters are maintained atomically, so Stats
// may be called from a different goroutine than the one driving Next.
func (r *Rows) Stats() ExecStats { return r.planRoot.execStats() }

// PlanStats returns the executed plan tree with per-operator counters —
// the data behind EXPLAIN ANALYZE. Wall times are populated only when
// the statement ran as EXPLAIN ANALYZE; the counters are always live.
func (r *Rows) PlanStats() PlanNodeStats { return snapshotNode(r.planRoot) }

// Close stops the pipeline — terminating any suspended access-method
// scans — and releases the locks the cursor holds. Idempotent.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.root.Close()
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	if err != nil && r.err == nil {
		r.err = err
	}
	return err
}

// onClose registers fn to run once when the cursor closes (LIFO).
func (r *Rows) onClose(fn func()) { r.closers = append(r.closers, fn) }

// Query opens a SELECT cursor on the engine's default session.
func (e *Engine) Query(ctx context.Context, sql string, binds map[string]interface{}) (*Rows, error) {
	return e.def.Query(ctx, sql, binds)
}

// Query parses and executes a SELECT statement, returning a streaming
// cursor. Non-SELECT statements are rejected — use Exec. The engine's
// statement lock is held only while planning: the returned cursor reads
// from a snapshot view pinned at the current committed state (or the
// session's transaction view), so it never blocks concurrent writers and
// concurrent writers never shift its results.
func (s *Session) Query(ctx context.Context, sql string, binds map[string]interface{}) (*Rows, error) {
	st, err := s.parse(sql)
	if err != nil {
		return nil, err
	}
	return st.query(ctx, st.mapBinds(binds))
}

// query opens the statement's cursor: the one SELECT path, under Query
// and under Exec, which drains it.
func (st *Stmt) query(ctx context.Context, b bindVals) (*Rows, error) {
	sel, ok := st.st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: Query requires a SELECT statement, got %T (use Exec)", st.st)
	}
	s, e, sql := st.s, st.s.e, st.sql
	e.mu.Lock()
	v, err := e.acquireViewLocked(s)
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	rows, err := e.buildRowsLocked(ctx, sel, sql, b, v)
	if err != nil {
		e.mu.Unlock()
		e.releaseView(v)
		return nil, err
	}
	rows.onClose(func() { e.releaseView(v) })
	// Statement telemetry spans Query to Close. Closers run LIFO, so the
	// observation fires before the view reference above is dropped.
	start := time.Now()
	nbinds := len(b.names)
	rows.onClose(func() {
		e.observeStmt(sql, "select", nbinds, time.Since(start), rows.Stats(), rows.PlanStats)
	})
	e.mu.Unlock()
	return rows, nil
}

// buildRowsLocked compiles the union chain of s into a streaming
// pipeline whose every plan is bound onto the view's snapshot handles.
// Caller holds e.mu; the returned cursor releases nothing on Close unless
// closers are registered. A nil view builds the pipeline unbound, for
// EXPLAIN to render and never open.
//
// sqlText keys the plan cache: eligible statements (stmtCacheable) reuse
// their compiled per-block plans across executions, always through a
// clone — bindPlan mutates storage handles in place, so the cached
// template must stay pristine.
func (e *Engine) buildRowsLocked(ctx context.Context, s *SelectStmt, sqlText string, binds bindVals, v *execView) (*Rows, error) {
	var cached []*selectPlan
	cacheHit := false
	cacheKey := ""
	if sqlText != "" && e.plans.enabled() && stmtCacheable(s) {
		cacheKey = sqlText
		cached, cacheHit = e.plans.get(cacheKey)
		if m := e.sqlMet.Load(); m != nil {
			if cacheHit {
				m.planHits.Inc()
			} else {
				m.planMisses.Inc()
			}
		}
	}
	var templates []*selectPlan
	var branches []rowNode
	var cols []string
	for blk, i := s, 0; blk != nil; blk, i = blk.Union, i+1 {
		// One block's executable plan: a clone of the cached template on a
		// hit, a fresh compilation (with a pristine clone recorded for the
		// cache) otherwise.
		var plan *selectPlan
		if cacheHit {
			plan = clonePlan(cached[i])
		} else {
			planBlock := e.planSelect
			if len(blk.GroupBy) > 0 || isAggregate(blk) {
				planBlock = e.planAggregate
			}
			var err error
			if plan, err = planBlock(blk, binds); err != nil {
				return nil, err
			}
			if cacheKey != "" {
				templates = append(templates, clonePlan(plan))
			}
		}
		if v != nil {
			if err := bindPlan(plan, &v.readState); err != nil {
				return nil, err
			}
		}
		bn, err := newBlockNode(plan, binds, v != nil)
		if err != nil {
			return nil, err
		}
		if blk.Distinct {
			bn = &distinctNode{in: bn, ns: statsOver("DISTINCT", bn)}
		}
		if cols == nil {
			cols = plan.outCols
		} else if len(cols) != len(plan.outCols) {
			return nil, fmt.Errorf("sql: UNION ALL branches project %d vs %d columns", len(cols), len(plan.outCols))
		}
		branches = append(branches, bn)
	}
	root := branches[0]
	if len(branches) > 1 {
		cn := &concatNode{ins: branches, ns: &nodeStats{label: "UNION-ALL"}}
		for _, b := range branches {
			cn.ns.children = append(cn.ns.children, b.statsNode())
		}
		root = cn
	}
	var limit int64 = -1
	if s.Limit != nil {
		n, err := evalConst(s.Limit, binds)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("sql: LIMIT must not be negative, got %d", n)
		}
		limit = n
	}
	if len(s.OrderBy) > 0 {
		keys, err := sortKeys(s.OrderBy, cols)
		if err != nil {
			return nil, err
		}
		// ORDER BY + LIMIT k fuse into one bounded sort: O(n log k) and k
		// retained rows instead of a full sort feeding a limit.
		sn := &sortNode{in: root, keys: keys, k: limit, ns: statsOver("SORT ORDER BY", root)}
		if k := limit; k >= 0 {
			sn.ns.labelFn = func() string { return fmt.Sprintf("SORT TOP-K %d", k) }
			limit = -1
		}
		root = sn
	}
	if n := limit; n >= 0 {
		ns := statsOver("", root)
		ns.labelFn = func() string { return fmt.Sprintf("LIMIT %d", n) }
		root = &limitNode{in: root, n: n, ns: ns}
	}
	if cacheKey != "" && !cacheHit {
		if evicted := e.plans.put(cacheKey, templates); evicted > 0 {
			if m := e.sqlMet.Load(); m != nil {
				m.planEvictions.Add(evicted)
			}
		}
	}
	return &Rows{root: root, ec: &execCtx{ctx: ctx}, cols: cols, planRoot: root.statsNode(), cachedPlan: cacheHit}, nil
}

// explain renders the Figure 10-style execution plan of a SELECT: the
// node tree of the very pipeline a cursor would run, built unbound and
// never opened — EXPLAIN ANALYZE's tree without its counters.
func (e *Engine) explain(s *SelectStmt, binds bindVals) (string, error) {
	rows, err := e.buildRowsLocked(context.Background(), s, "", binds, nil)
	if err != nil {
		return "", err
	}
	return rows.PlanStats().render("SELECT STATEMENT", false), nil
}

// statsOver builds a stats record labelled label whose child is in's
// record.
func statsOver(label string, in rowNode) *nodeStats {
	return &nodeStats{label: label, children: []*nodeStats{in.statsNode()}}
}
