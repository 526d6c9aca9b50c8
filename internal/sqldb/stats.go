package sqldb

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Execution statistics. Every operator of the pipeline carries one
// nodeStats record, and the records form the plan tree EXPLAIN prints.
// That tree is the only set of counters: EXPLAIN ANALYZE and
// Rows.PlanStats() snapshot it, and Rows.Stats() folds it into one
// ExecStats.
//
// Counters are always on: each is a single uncontended atomic add on a
// hot path that already does a heap fetch per row, and atomic because
// Stats() and PlanStats() may run while another goroutine drives Next.
// Wall-clock timing is not — time.Now() twice per row is the one cost
// that would break the <=5% overhead budget, so it runs only when the
// execCtx is timed (EXPLAIN ANALYZE).

// ExecStats counts the work one cursor performed — the observable
// evidence that LIMIT and early Close actually stop the leaf scans. It
// is a plain value snapshot; Rows.Stats() may be called while another
// goroutine is still advancing the cursor.
type ExecStats struct {
	// LeafRows is the number of rows pulled from leaf access paths
	// (before residual filtering). A SELECT ... LIMIT k served by an
	// index scan pulls O(k) leaf rows, not O(n).
	LeafRows int64
	// RowsOut is the number of rows the cursor yielded.
	RowsOut int64
	// IndexProbes is the number of access-path bindings that hit an
	// index (range, domain, or Allen-region scans); a nested-loops inner
	// side probes once per outer row.
	IndexProbes int64
	// JoinRebinds is the number of inner-source re-opens the
	// nested-loops join performed.
	JoinRebinds int64
	// ResidualDrops counts rows an access path consumed but dropped in a
	// residual filter (the exact-relation check over an Allen generating
	// region, or a scan filter) — work the index could not avoid.
	ResidualDrops int64
	// SpillRows is the number of rows materialized by pipeline-breaking
	// sinks (SORT ORDER BY buffers, aggregate input rows, merge-join feed
	// sorts).
	SpillRows int64
	// SweepPairs counts the candidate pairs the interval merge join's
	// sweep examined (emitted rows plus post-filter drops).
	SweepPairs int64
	// SweepActivePeak is the largest combined active-set population the
	// sweep reached — the join's working-set high-water mark.
	SweepActivePeak int64
	// SweepSortRows counts rows the merge join had to explicitly sort
	// because a feed offered no ordered index stream; 0 means every feed
	// came pre-sorted off its domain index.
	SweepSortRows int64
	// GroupedRows is the number of groups hash aggregation emitted.
	GroupedRows int64
	// JoinStrategy names the join algorithm the plan used: "merge" for the
	// interval merge join, "nested_loops" for multi-source plans joined by
	// nested loops, "" for single-source plans. Benches assert on it.
	JoinStrategy string
}

// nodeKind marks the nodes the ExecStats fold treats specially.
type nodeKind uint8

const (
	kindPlain  nodeKind = iota
	kindNested          // a NESTED LOOPS join
	kindMerge           // an interval merge join; its children are its feeds
	kindGroup           // a HASH GROUP BY sink; its rows are the groups
)

// nodeStats is the per-operator record of the pipeline. The struct is
// built once with the pipeline and never reallocated, so child pointers
// need no locking. A nil *nodeStats is valid and all methods are no-ops —
// operators that render no plan line (projection) simply carry none.
type nodeStats struct {
	// label names the operator's plan line. Sites whose label needs
	// formatting set labelFn instead, deferring the string build to the
	// first snapshot — pipelines are compiled per statement, so an eager
	// Sprintf here would cost every query what only analyzed ones use.
	label    string
	labelFn  func() string
	kind     nodeKind
	rowsOut  atomic.Int64
	leafRows atomic.Int64
	probes   atomic.Int64
	rebinds  atomic.Int64
	residual atomic.Int64
	spill    atomic.Int64
	pairs    atomic.Int64 // merge-join sweep pairs examined
	active   atomic.Int64 // merge-join active-set peak
	elapsed  atomic.Int64 // wall ns; recorded only under EXPLAIN ANALYZE
	children []*nodeStats
}

func (n *nodeStats) addRowsOut(d int64) {
	if n != nil {
		n.rowsOut.Add(d)
	}
}
func (n *nodeStats) addLeafRows(d int64) {
	if n != nil {
		n.leafRows.Add(d)
	}
}
func (n *nodeStats) addProbes(d int64) {
	if n != nil {
		n.probes.Add(d)
	}
}
func (n *nodeStats) addRebinds(d int64) {
	if n != nil {
		n.rebinds.Add(d)
	}
}
func (n *nodeStats) addResidual(d int64) {
	if n != nil {
		n.residual.Add(d)
	}
}
func (n *nodeStats) addSpill(d int64) {
	if n != nil {
		n.spill.Add(d)
	}
}
func (n *nodeStats) addPairs(d int64) {
	if n != nil {
		n.pairs.Add(d)
	}
}
func (n *nodeStats) setActive(v int64) {
	if n != nil {
		n.active.Store(v)
	}
}

// execStats folds the tree rooted at n into the cursor's ExecStats: the
// root's rows, sums of every other count, the largest active-set peak,
// and the join strategy of the plan (a merge join wins over nested
// loops). SweepSortRows are the spills of merge-join feeds and
// GroupedRows the rows of HASH GROUP BY sinks.
func (n *nodeStats) execStats() ExecStats {
	st := ExecStats{RowsOut: n.rowsOut.Load()}
	n.fold(&st)
	return st
}

func (n *nodeStats) fold(st *ExecStats) {
	st.LeafRows += n.leafRows.Load()
	st.IndexProbes += n.probes.Load()
	st.JoinRebinds += n.rebinds.Load()
	st.ResidualDrops += n.residual.Load()
	st.SpillRows += n.spill.Load()
	st.SweepPairs += n.pairs.Load()
	st.SweepActivePeak = max(st.SweepActivePeak, n.active.Load())
	switch n.kind {
	case kindMerge:
		st.JoinStrategy = "merge"
		for _, c := range n.children {
			st.SweepSortRows += c.spill.Load()
		}
	case kindNested:
		if st.JoinStrategy == "" {
			st.JoinStrategy = "nested_loops"
		}
	case kindGroup:
		st.GroupedRows += n.rowsOut.Load()
	}
	for _, c := range n.children {
		c.fold(st)
	}
}

// PlanNodeStats is one operator's snapshot in an executed plan tree —
// the value form of nodeStats, returned by Rows.PlanStats and rendered
// by EXPLAIN ANALYZE.
type PlanNodeStats struct {
	// Label is the plan line of the operator, matching EXPLAIN output
	// ("NESTED LOOPS", "INDEX RANGE SCAN IV_LOWER", ...).
	Label string
	// RowsOut is the number of rows this operator produced.
	RowsOut int64
	// LeafRows, Probes, Residual are scan-level counters (see ExecStats).
	LeafRows int64
	Probes   int64
	Residual int64
	// Rebinds counts inner re-opens (join operators only).
	Rebinds int64
	// Spill counts materialized rows (sort/aggregate sinks, merge-join
	// feed sorts).
	Spill int64
	// Pairs counts the sweep's examined pairs and ActivePeak its largest
	// active-set population (interval merge join nodes only).
	Pairs      int64
	ActivePeak int64
	// Elapsed is the operator's cumulative wall time, populated only for
	// timed executions (EXPLAIN ANALYZE); zero otherwise.
	Elapsed time.Duration
	// Children are the operator's inputs in plan order.
	Children []PlanNodeStats
}

// labelName resolves the operator's plan line (see labelFn above).
func (n *nodeStats) labelName() string {
	if n.labelFn != nil {
		return n.labelFn()
	}
	return n.label
}

// snapshotNode converts a nodeStats tree into its value form.
func snapshotNode(n *nodeStats) PlanNodeStats {
	s := PlanNodeStats{
		Label:      n.labelName(),
		RowsOut:    n.rowsOut.Load(),
		LeafRows:   n.leafRows.Load(),
		Probes:     n.probes.Load(),
		Residual:   n.residual.Load(),
		Rebinds:    n.rebinds.Load(),
		Spill:      n.spill.Load(),
		Pairs:      n.pairs.Load(),
		ActivePeak: n.active.Load(),
		Elapsed:    time.Duration(n.elapsed.Load()),
	}
	for _, c := range n.children {
		s.Children = append(s.Children, snapshotNode(c))
	}
	return s
}

// Render formats the executed plan tree in the EXPLAIN layout, each line
// annotated with the operator's counters:
//
//	SELECT STATEMENT (ANALYZED)
//	  LIMIT 10 (rows=10 time=412µs)
//	    DOMAIN INDEX IV_IDX (INTERSECTS) (rows=10 leaf=12 probes=1 residual=2)
func (s PlanNodeStats) Render() string { return s.render("SELECT STATEMENT (ANALYZED)", true) }

// render writes header and then one line per operator; EXPLAIN prints the
// same tree without counters.
func (s PlanNodeStats) render(header string, counters bool) string {
	var sb strings.Builder
	sb.WriteString(header + "\n")
	renderNode(&sb, s, 1, counters)
	return sb.String()
}

func renderNode(sb *strings.Builder, s PlanNodeStats, indent int, counters bool) {
	sb.WriteString(strings.Repeat("  ", indent))
	sb.WriteString(s.Label)
	if counters {
		fmt.Fprintf(sb, " (rows=%d", s.RowsOut)
		if s.LeafRows > 0 {
			fmt.Fprintf(sb, " leaf=%d", s.LeafRows)
		}
		if s.Probes > 0 {
			fmt.Fprintf(sb, " probes=%d", s.Probes)
		}
		if s.Residual > 0 {
			fmt.Fprintf(sb, " residual=%d", s.Residual)
		}
		if s.Rebinds > 0 {
			fmt.Fprintf(sb, " rebinds=%d", s.Rebinds)
		}
		if s.Spill > 0 {
			fmt.Fprintf(sb, " spill=%d", s.Spill)
		}
		if s.Pairs > 0 {
			fmt.Fprintf(sb, " pairs=%d", s.Pairs)
		}
		if s.ActivePeak > 0 {
			fmt.Fprintf(sb, " active=%d", s.ActivePeak)
		}
		if s.Elapsed > 0 {
			fmt.Fprintf(sb, " time=%s", s.Elapsed.Round(time.Microsecond))
		}
		sb.WriteString(")")
	}
	sb.WriteString("\n")
	for _, c := range s.Children {
		renderNode(sb, c, indent+1, counters)
	}
}
