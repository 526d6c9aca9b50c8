package sqldb

import (
	"sync"
	"time"

	"ritree/internal/obs"
)

// Statement-level telemetry: every executed statement records a latency
// observation into the engine's metrics registry (keyed by statement
// kind) and, when it ran longer than the configured threshold, a full
// trace — SQL text, bind count, duration, cursor counters, and the
// executed operator tree — into a bounded ring buffer drained by
// SlowQueries. The registry also accumulates the cursor work counters
// ("sql.leaf_rows", ...), which is what lets a bench run assert that the
// registry agrees with Rows.Stats().

// SlowQuery is one captured slow statement.
type SlowQuery struct {
	// SQL is the statement text as submitted.
	SQL string
	// Binds is the number of bind variables supplied.
	Binds int
	// Duration is the statement's wall time (for cursors: Query to Close).
	Duration time.Duration
	// Stats are the cursor work counters (zero for DDL/DML).
	Stats ExecStats
	// Plan is the executed operator tree (zero Label when the statement
	// produced no cursor).
	Plan PlanNodeStats
	// When is the capture time.
	When time.Time
}

// slowRingCap bounds the slow-query ring; older entries are overwritten.
const slowRingCap = 64

// telemetry is the engine's slow-query ring. It has its own mutex (not
// e.mu) because cursor-close observation may need to run while a future
// caller already waits on the statement lock.
type telemetry struct {
	mu        sync.Mutex
	threshold time.Duration // <= 0: capture disabled
	ring      []SlowQuery
	start     int // index of the oldest entry once the ring is full
}

func (t *telemetry) setThreshold(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.threshold = d
}

func (t *telemetry) getThreshold() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.threshold
}

// maybeCapture records sq if it crossed the threshold.
func (t *telemetry) maybeCapture(sq SlowQuery) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.threshold <= 0 || sq.Duration < t.threshold {
		return
	}
	if len(t.ring) < slowRingCap {
		t.ring = append(t.ring, sq)
		return
	}
	t.ring[t.start] = sq
	t.start = (t.start + 1) % slowRingCap
}

// drain returns the captured slow queries oldest-first and clears the ring.
func (t *telemetry) drain() []SlowQuery {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) == 0 {
		return nil
	}
	out := make([]SlowQuery, 0, len(t.ring))
	out = append(out, t.ring[t.start:]...)
	out = append(out, t.ring[:t.start]...)
	t.ring, t.start = nil, 0
	return out
}

// sqlMetrics holds resolved registry handles for the per-statement
// counter families, built once in SetMetricsRegistry. Observation then
// costs a handful of uncontended atomic adds — no name concatenation,
// no registry map lookups on the per-statement path.
type sqlMetrics struct {
	reg                                                        *obs.Registry
	leafRows, rowsOut, indexProbes, joinRebinds, residualDrops *obs.Counter
	spillRows, groupedRows                                     *obs.Counter
	joinMerge, joinNested                                      *obs.Counter
	sweepPairs, sweepSortRows                                  *obs.Counter
	joinLatency, sweepActivePeak                               *obs.Histogram
	planHits, planMisses, planEvictions                        *obs.Counter
	parses                                                     *obs.Counter
	viewsPinned, viewsReleased                                 *obs.Counter
	viewsActive                                                *obs.Gauge
	stmt                                                       map[string]*obs.Counter
	latency                                                    map[string]*obs.Histogram
}

// stmtKinds enumerates every value stmtKind can return, so the handle
// maps are complete at build time.
var stmtKinds = []string{"select", "insert", "delete", "explain", "txn", "ddl"}

func newSQLMetrics(reg *obs.Registry) *sqlMetrics {
	m := &sqlMetrics{
		reg:           reg,
		leafRows:      reg.Counter("sql.leaf_rows"),
		rowsOut:       reg.Counter("sql.rows_out"),
		indexProbes:   reg.Counter("sql.index_probes"),
		joinRebinds:   reg.Counter("sql.join_rebinds"),
		residualDrops: reg.Counter("sql.residual_drops"),
		spillRows:     reg.Counter("sql.spill_rows"),
		groupedRows:   reg.Counter("sql.grouped_rows"),
		joinMerge:     reg.Counter("sql.join.merge"),
		joinNested:    reg.Counter("sql.join.nested_loops"),
		sweepPairs:    reg.Counter("sql.join_sweep.pairs"),
		sweepSortRows: reg.Counter("sql.join_sweep.sort_rows"),
		joinLatency:   reg.Histogram("sql.latency.join"),
		// active_peak is a histogram, not a counter: each joining cursor
		// contributes one sample, so the distribution of working-set
		// high-water marks across queries stays visible.
		sweepActivePeak: reg.Histogram("sql.join_sweep.active_peak"),
		planHits:        reg.Counter("sql.plancache.hits"),
		planMisses:      reg.Counter("sql.plancache.misses"),
		planEvictions:   reg.Counter("sql.plancache.evictions"),
		// parses counts statement texts parsed: one per Prepare and per
		// text-path statement, none per execution of a prepared one.
		parses: reg.Counter("sql.parses"),
		// Snapshot-view lifecycle: active is the leak detector — every
		// pinned view must eventually be released, so a drained engine
		// (no cursors, no transaction, cache invalidated) reads 0 or 1
		// (the cached current view).
		viewsPinned:   reg.Counter("sql.views.pinned"),
		viewsReleased: reg.Counter("sql.views.released"),
		viewsActive:   reg.Gauge("sql.views.active"),
		stmt:          make(map[string]*obs.Counter, len(stmtKinds)),
		latency:       make(map[string]*obs.Histogram, len(stmtKinds)),
	}
	for _, k := range stmtKinds {
		m.stmt[k] = reg.Counter("sql.stmt." + k)
		m.latency[k] = reg.Histogram("sql.latency." + k)
	}
	return m
}

// observe records one statement's latency and cursor work counters.
func (m *sqlMetrics) observe(kind string, d time.Duration, st ExecStats) {
	h, ok := m.latency[kind]
	if !ok { // unknown kind: fall back to a registry lookup
		h = m.reg.Histogram("sql.latency." + kind)
	}
	h.Record(d.Nanoseconds())
	c, ok := m.stmt[kind]
	if !ok {
		c = m.reg.Counter("sql.stmt." + kind)
	}
	c.Inc()
	m.leafRows.Add(st.LeafRows)
	m.rowsOut.Add(st.RowsOut)
	m.indexProbes.Add(st.IndexProbes)
	m.joinRebinds.Add(st.JoinRebinds)
	m.residualDrops.Add(st.ResidualDrops)
	m.spillRows.Add(st.SpillRows)
	m.groupedRows.Add(st.GroupedRows)
	m.sweepPairs.Add(st.SweepPairs)
	m.sweepSortRows.Add(st.SweepSortRows)
	// Joining cursors additionally feed the per-strategy counters and the
	// join-latency histogram (ROADMAP: per-kind join latency).
	switch st.JoinStrategy {
	case "merge":
		m.joinMerge.Inc()
	case "nested_loops":
		m.joinNested.Inc()
	default:
		return
	}
	m.joinLatency.Record(d.Nanoseconds())
	if st.SweepActivePeak > 0 {
		m.sweepActivePeak.Record(st.SweepActivePeak)
	}
}

// SetMetricsRegistry configures the registry statement telemetry and
// layer metric families publish into, and hands it to every attached
// custom index (Index.BindMetrics). It must be set before
// AttachCatalogIndexes for reopened indexes to bind (indexes attached
// later bind at attach time).
func (e *Engine) SetMetricsRegistry(reg *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reg = reg
	if reg == nil {
		e.sqlMet.Store(nil)
		return
	}
	e.sqlMet.Store(newSQLMetrics(reg))
	for name, ci := range e.custom {
		ci.BindMetrics(reg, "index."+name)
	}
}

// SetSlowQueryThreshold enables slow-query capture for statements running
// at least d (0 disables).
func (e *Engine) SetSlowQueryThreshold(d time.Duration) { e.tel.setThreshold(d) }

// SlowQueryThreshold returns the current slow-query threshold.
func (e *Engine) SlowQueryThreshold() time.Duration { return e.tel.getThreshold() }

// SlowQueries drains the slow-query ring, oldest first.
func (e *Engine) SlowQueries() []SlowQuery { return e.tel.drain() }

// stmtKind buckets a statement for the per-kind latency histograms.
func stmtKind(st Statement) string {
	switch st.(type) {
	case *SelectStmt:
		return "select"
	case *InsertStmt:
		return "insert"
	case *DeleteStmt:
		return "delete"
	case *ExplainStmt:
		return "explain"
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return "txn"
	default:
		return "ddl"
	}
}

// observeStmt records one finished statement: kind-keyed latency, the
// cursor work counters, and (over threshold) a slow-query trace. It runs
// without e.mu for cursors (the close hook fires on the reader's
// goroutine now that cursors don't hold the statement lock), which is why
// sqlMet is an atomic pointer and the telemetry ring has its own mutex.
// plan is a thunk (nil for plan-less statements): the per-operator tree
// is snapshotted only when the statement actually crossed the slow-query
// threshold, keeping the always-on path free of that allocation.
func (e *Engine) observeStmt(sql, kind string, nbinds int, d time.Duration, st ExecStats, plan func() PlanNodeStats) {
	if m := e.sqlMet.Load(); m != nil {
		m.observe(kind, d, st)
	}
	if th := e.tel.getThreshold(); th <= 0 || d < th {
		return
	}
	var ps PlanNodeStats
	if plan != nil {
		ps = plan()
	}
	e.tel.maybeCapture(SlowQuery{
		SQL:      sql,
		Binds:    nbinds,
		Duration: d,
		Stats:    st,
		Plan:     ps,
		When:     time.Now(),
	})
}
