package sqldb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ritree/internal/obs"
	"ritree/internal/rel"
)

// Transient is a transient, session-state relation passed as a bind
// variable and scanned via TABLE(:name) — the leftNodes/rightNodes
// mechanism of paper §4.2 ("managed in the transient session state thus
// causing no I/O effort"). It was formerly named Collection; that name now
// belongs to the persistent, access-method-backed interval collections of
// the unified API (see collection.go and the root ritree package).
type Transient struct {
	Cols []string
	Rows [][]int64
}

// Result is the outcome of one statement.
type Result struct {
	// Cols names the projected columns (SELECT only).
	Cols []string
	// Rows holds the materialized result set (SELECT only).
	Rows [][]int64
	// Affected is the number of rows inserted or deleted (DML only).
	Affected int64
	// Plan is the execution plan text (EXPLAIN only).
	Plan string
}

// Engine executes SQL statements against a rel.DB. Statements run on a
// Session (see txn.go) and are serialized by mu, the one statement lock:
// every statement, DDL and write holds its write side, and the live reads
// of ReadCollection share its read side.
type Engine struct {
	mu         sync.RWMutex
	db         *rel.DB
	indexTypes map[string]IndexType
	custom     map[string]Index   // by index name
	customByTb map[string][]Index // by table name

	// viewLk guards the reference counts of execViews and the curView
	// cache. It nests inside mu (mu → viewLk) but is also taken alone by
	// releaseView, which runs on reader goroutines as cursors close.
	viewLk  sync.Mutex
	curView *execView
	// def is the session Exec and Query run on.
	def *Session

	// reg is the DB-level metrics registry statement telemetry publishes
	// into (nil: metrics off). Guarded by mu.
	reg *obs.Registry
	// tel is the slow-query ring (own mutex — see telemetry.go).
	tel telemetry
	// sqlMet caches the registry handles of the per-statement counter
	// families, so the per-statement observation performs no name
	// concatenation or registry map lookups. Atomic: observeStmt runs on
	// reader goroutines without mu since cursors stopped holding it.
	sqlMet atomic.Pointer[sqlMetrics]
	// mergeOff disables interval merge join planning (nested loops only):
	// the nested-loops reference the merge-vs-nested parity tests compare
	// against. Zero value = merge join enabled. Guarded by mu.
	mergeOff bool
	// ixSnapOff disables persisted index snapshots: PersistIndexSnapshots
	// becomes a no-op and indextypes skip their snapshot fast path on
	// attach. Atomic (not mu): indextype attach code reads it while the
	// engine already holds mu. Zero value = snapshots enabled.
	ixSnapOff atomic.Bool
	// plans caches compiled SELECT plans by SQL text (see plancache.go).
	// Guarded by mu.
	plans *planCache
}

// NewEngine creates an Engine over db.
func NewEngine(db *rel.DB) *Engine {
	e := &Engine{
		db:         db,
		indexTypes: make(map[string]IndexType),
		custom:     make(map[string]Index),
		customByTb: make(map[string][]Index),
		plans:      newPlanCache(DefaultPlanCacheSize),
	}
	e.def = e.NewSession()
	return e
}

// DB exposes the underlying relational database.
func (e *Engine) DB() *rel.DB { return e.db }

// SetIndexSnapshotsEnabled toggles persisted index snapshots. Disabled,
// PersistIndexSnapshots does nothing and attaching indextypes ignore any
// persisted snapshot, always rebuilding from the heap. No plan epoch bump:
// snapshots change how an index is materialized at attach time, never
// what a cached plan would choose.
func (e *Engine) SetIndexSnapshotsEnabled(on bool) { e.ixSnapOff.Store(!on) }

// IndexSnapshotsEnabled reports whether persisted index snapshots are
// enabled (the default). Safe to call while the engine holds its
// statement lock — indextype attach implementations consult it.
func (e *Engine) IndexSnapshotsEnabled() bool { return !e.ixSnapOff.Load() }

// SetMergeJoinEnabled toggles interval merge join planning. Disabled,
// every two-source interval join runs as nested loops — the reference the
// merge-vs-nested parity tests compare against.
func (e *Engine) SetMergeJoinEnabled(on bool) {
	e.mu.Lock()
	e.mergeOff = !on
	// Cached plans baked the other strategy in; they must not survive.
	e.bumpPlanEpochLocked()
	e.mu.Unlock()
}

// Exec runs one statement on the engine's default session.
func (e *Engine) Exec(sql string, binds map[string]interface{}) (*Result, error) {
	return e.def.Exec(sql, binds)
}

// Exec parses and executes one statement. binds supplies scalar bind
// variables (int64 or int) and transient relations (Transient or
// *Transient). A SELECT is Query drained into the Result. Write statements
// outside the session's transaction auto-commit: their pages reach the
// WAL (group commit) before Exec returns, and the cached snapshot view is
// invalidated so later readers see them.
func (s *Session) Exec(sql string, binds map[string]interface{}) (*Result, error) {
	st, err := s.parse(sql)
	if err != nil {
		return nil, err
	}
	return st.exec(st.mapBinds(binds))
}

// exec runs a parsed statement: a SELECT is its cursor drained, anything
// else runs under the statement lock.
func (stmt *Stmt) exec(binds bindVals) (*Result, error) {
	s, e, st, sql := stmt.s, stmt.s.e, stmt.st, stmt.sql
	if _, ok := st.(*SelectStmt); ok {
		rows, err := stmt.query(context.Background(), binds)
		if err != nil {
			return nil, err
		}
		defer rows.Close()
		res := &Result{Cols: rows.Columns()}
		for rows.Next() {
			res.Rows = append(res.Rows, append([]int64(nil), rows.Row()...))
		}
		if err := rows.Err(); err != nil {
			return nil, err
		}
		return res, nil
	}
	e.mu.Lock()
	start := time.Now()
	// An EXPLAIN ANALYZE hands back the counters of the cursor it ran
	// (SELECT cursors observe themselves at Close).
	var stats ExecStats
	var plan func() PlanNodeStats
	var res *Result
	var err error
	if ex, ok := st.(*ExplainStmt); ok && ex.Analyze {
		var ps PlanNodeStats
		res, stats, ps, err = e.explainAnalyze(s, ex.Query, sql, binds)
		plan = func() PlanNodeStats { return ps }
	} else {
		res, err = s.execStmt(st, sql, binds)
	}
	var seq uint64
	var cerr error
	if s.txn == nil && stmtWrites(st) {
		// Commit even when the statement failed: partially applied DML
		// (e.g. a DELETE aborting mid-batch after a consistent prefix)
		// must still land at a committed boundary before mu is released,
		// or the next snapshot could capture torn pages.
		seq, cerr = e.commitWriteLocked()
	}
	if err == nil {
		e.observeStmt(sql, stmtKind(st), len(binds.names), time.Since(start), stats, plan)
	}
	e.mu.Unlock()
	// Group-commit durability wait happens outside mu, so concurrent
	// statements batch into the same fsync instead of serializing on it.
	if err = firstErr(err, cerr, e.db.Store().WaitDurable(seq)); err != nil {
		return nil, err
	}
	return res, nil
}

// stmtWrites reports whether a statement (potentially) mutates storage
// and therefore needs a commit boundary. COMMIT itself writes — it is
// where buffered transaction ops are applied.
func stmtWrites(st Statement) bool {
	switch st.(type) {
	case *ExplainStmt, *BeginStmt, *RollbackStmt:
		return false
	}
	return true
}

// commitWriteLocked seals a write at its commit boundary: the cached
// snapshot view is retired and the dirty pages are handed to the WAL's
// group commit. The caller waits for durability after releasing mu.
// Caller holds e.mu.
func (e *Engine) commitWriteLocked() (uint64, error) {
	e.invalidateViewLocked()
	return e.db.Store().CommitAsync()
}

// MustExec is Exec for statements that cannot fail in tests and examples;
// it panics on error.
func (e *Engine) MustExec(sql string, binds map[string]interface{}) *Result {
	r, err := e.Exec(sql, binds)
	if err != nil {
		panic(err)
	}
	return r
}

func (s *Session) execStmt(st Statement, sql string, binds bindVals) (*Result, error) {
	e := s.e
	if s.txn != nil {
		switch st.(type) {
		case *CreateTableStmt, *CreateIndexStmt, *DropStmt,
			*CreateCollectionStmt, *DropCollectionStmt:
			// Catalog changes cannot be buffered or validated by the
			// content-checksum scheme.
			return nil, fmt.Errorf("sql: DDL is not allowed inside a transaction (COMMIT or ROLLBACK first)")
		}
	}
	// Any DDL changes the catalog that cached plans compiled against;
	// purge up front (even a failed DDL may have partially mutated — a
	// cascade drop aborting midway — so purging unconditionally is the
	// safe order).
	switch st.(type) {
	case *CreateTableStmt, *CreateIndexStmt, *DropStmt,
		*CreateCollectionStmt, *DropCollectionStmt:
		e.bumpPlanEpochLocked()
	}
	switch x := st.(type) {
	case *BeginStmt:
		return s.begin()
	case *CommitStmt:
		return s.commit()
	case *RollbackStmt:
		return s.rollback()
	case *CreateTableStmt:
		if _, err := e.db.CreateTable(x.Name, x.Columns); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CreateIndexStmt:
		if x.IndexType != "" {
			return e.createCustomIndex(x)
		}
		if _, err := e.db.CreateIndex(x.Name, x.Table, x.Columns); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *DropStmt:
		if x.Index {
			if ci, ok := e.custom[x.Name]; ok {
				return &Result{}, e.dropCustomIndex(ci)
			}
			// A catalog definition that is not attached (e.g. its attach failed as stale) must still be droppable —
			// it is the recovery path the attach errors advise.
			if def, ok := e.db.CustomIndex(x.Name); ok {
				return &Result{}, e.dropUnattachedDef(def)
			}
			return &Result{}, e.db.DropIndex(x.Name)
		}
		return &Result{}, e.dropTableCascadeLocked(x.Name)
	case *CreateCollectionStmt:
		return &Result{}, e.createCollectionLocked(x.Name, x.Method, x.Params)
	case *DropCollectionStmt:
		return &Result{}, e.dropCollectionLocked(x.Name)
	case *InsertStmt:
		if s.txn != nil {
			return s.txnInsert(x, binds)
		}
		return e.execInsert(x, binds)
	case *DeleteStmt:
		if s.txn != nil {
			return s.txnDelete(x, binds)
		}
		return e.execDelete(x, binds)
	case *ExplainStmt: // EXPLAIN ANALYZE runs from Exec
		plan, err := e.explain(x.Query, binds)
		if err != nil {
			return nil, err
		}
		return &Result{Plan: plan}, nil
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", st)
}

// dropTableCascadeLocked drops a table, cascading to its domain indexes:
// leaving them registered would keep their maintenance hooks and hidden
// storage alive, and a recreated same-named table would then serve stale
// results through them. Attached ones first (iterate over a copy —
// dropCustomIndex mutates customByTb), then catalog definitions this
// engine never attached. Caller holds e.mu.
func (e *Engine) dropTableCascadeLocked(name string) error {
	for _, ci := range append([]Index(nil), e.customByTb[strings.ToLower(name)]...) {
		if err := e.dropCustomIndex(ci); err != nil {
			return err
		}
	}
	for _, def := range e.db.CustomIndexes() {
		if strings.EqualFold(def.Table, name) {
			if err := e.dropUnattachedDef(def); err != nil {
				return err
			}
		}
	}
	return e.db.DropTable(name)
}

func (e *Engine) execInsert(s *InsertStmt, binds bindVals) (*Result, error) {
	row, err := e.insertValues(s, binds)
	if err != nil {
		return nil, err
	}
	if _, err := e.applyLocked(s.Table, [][]int64{row}, nil); err != nil {
		return nil, err
	}
	return &Result{Affected: 1}, nil
}

// insertValues evaluates an INSERT's value list against the table schema.
func (e *Engine) insertValues(s *InsertStmt, binds bindVals) ([]int64, error) {
	tab, err := e.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if len(s.Values) != tab.Schema().NumCols() {
		return nil, fmt.Errorf("sql: INSERT supplies %d values, table %s has %d columns",
			len(s.Values), s.Table, tab.Schema().NumCols())
	}
	row := make([]int64, len(s.Values))
	for i, ex := range s.Values {
		if row[i], err = evalConst(ex, binds); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// applyLocked is the one write path: it appends the ins rows to table,
// removes the del rows, and triggers domain-index maintenance for the
// whole batch — extensible indexing (§5): "the object-relational database
// server automatically triggers the maintenance ... of custom indexes". A
// single-row statement is a batch of one; a COMMIT is one batch per table.
//
// The order keeps row ids stable for the undo: heap appends first (an
// index rebuilding itself from the heap must find the new rows), then
// every index's Apply, then the heap removals. An index refusing the
// batch must not leave the heap and the domain indexes divergent: the
// indexes already maintained get the inverse batch and the appended rows
// leave the heap before the failure surfaces. A heap removal failing
// midway (a storage fault) hands the rows still in the heap back to the
// indexes, so the batch ends after a consistent prefix. It returns the
// appended rows with their row ids. Caller holds e.mu.
func (e *Engine) applyLocked(table string, ins [][]int64, del []Entry) (added []Entry, err error) {
	tab, err := e.db.Table(table)
	if err != nil {
		return nil, err
	}
	added = make([]Entry, 0, len(ins))
	undoHeap := func() error {
		var first error
		for _, en := range added {
			if _, err := tab.DeleteRow(en.RID); err != nil && first == nil {
				first = fmt.Errorf("heap rollback failed: %w", err)
			}
		}
		return first
	}
	for i, row := range ins {
		rid, err := tab.Insert(row)
		if err != nil {
			return nil, withUndo(fmt.Errorf("sql: insert into %s failed at row %d of %d: %w", table, i, len(ins), err), undoHeap())
		}
		added = append(added, Entry{RID: rid, Row: row})
	}
	custom := e.customByTb[strings.ToLower(table)]
	// reapply hands every index in done the batch (ins, del), reporting the
	// first failure.
	reapply := func(done []Index, ins, del []Entry) error {
		var first error
		for j := len(done) - 1; j >= 0; j-- {
			if err := done[j].Apply(ins, del); err != nil && first == nil {
				first = fmt.Errorf("restore of index %s failed: %w", done[j].Name(), err)
			}
		}
		return first
	}
	for n, ci := range custom {
		if err := ci.Apply(added, del); err != nil {
			undoErr := reapply(custom[:n], del, added)
			if herr := undoHeap(); undoErr == nil {
				undoErr = herr
			}
			return nil, withUndo(fmt.Errorf("sql: maintenance of index %s: %w", ci.Name(), err), undoErr)
		}
	}
	for i, en := range del {
		if _, err := tab.DeleteRow(en.RID); err != nil {
			return nil, withUndo(err, reapply(custom, del[i:], nil))
		}
	}
	return added, nil
}

// withUndo surfaces a failed undo alongside the original error — silent
// heap/index divergence is the one outcome the undo paths exist to
// prevent.
func withUndo(err, undoErr error) error {
	if undoErr != nil {
		return fmt.Errorf("%w (and %v — table and indexes may diverge)", err, undoErr)
	}
	return err
}

// victimsLocked resolves a DELETE's WHERE clause against rs — the live
// database for an auto-commit DELETE, the transaction's view inside one.
// The clause is planned like a single-table SELECT so deletes can use
// index range scans (Figure 5's single-statement delete). Caller holds
// e.mu.
func (e *Engine) victimsLocked(s *DeleteStmt, binds bindVals, rs *readState) ([]Entry, error) {
	sel := &SelectStmt{
		Items: []SelectItem{{Star: true}},
		From:  []TableRef{{Name: s.Table}},
		Where: s.Where,
	}
	plan, err := e.planSelect(sel, binds)
	if err != nil {
		return nil, err
	}
	if err := bindPlan(plan, rs); err != nil {
		return nil, err
	}
	width := len(plan.sources[0].cols)
	var victims []Entry
	err = drainPlan(plan, binds, func(env []int64, rids []rel.RowID) bool {
		victims = append(victims, Entry{RID: rids[0], Row: append([]int64(nil), env[:width]...)})
		return true
	})
	return victims, err
}

func (e *Engine) execDelete(s *DeleteStmt, binds bindVals) (*Result, error) {
	// The victim scan reads live, under e.mu: the index Readers are bound
	// to the live database, the same call a view makes with its shadow.
	rs := newReadState(e.db)
	if err := rs.bindTable(s.Table, e.customByTb[s.Table]); err != nil {
		return nil, err
	}
	victims, err := e.victimsLocked(s, binds, &rs)
	if err != nil {
		return nil, err
	}
	if _, err := e.applyLocked(s.Table, nil, victims); err != nil {
		return nil, err
	}
	return &Result{Affected: int64(len(victims))}, nil
}

// explainAnalyze really executes the query — through the same pipeline a
// cursor would use, with per-operator timing enabled — and renders the
// plan tree annotated with the measured counters. The query's rows are
// discarded; the plan text is the result, and the cursor's counters and
// tree come back for the statement's observation. Caller holds e.mu.
func (e *Engine) explainAnalyze(ss *Session, s *SelectStmt, sql string, binds bindVals) (*Result, ExecStats, PlanNodeStats, error) {
	v, err := e.acquireViewLocked(ss)
	if err != nil {
		return nil, ExecStats{}, PlanNodeStats{}, err
	}
	defer e.releaseView(v)
	rows, err := e.buildRowsLocked(context.Background(), s, sql, binds, v)
	if err != nil {
		return nil, ExecStats{}, PlanNodeStats{}, err
	}
	rows.ec.timed = true
	defer rows.Close()
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		return nil, ExecStats{}, PlanNodeStats{}, err
	}
	ps := rows.PlanStats()
	header := "SELECT STATEMENT (ANALYZED)"
	if rows.cachedPlan {
		header += " (cached plan)"
	}
	return &Result{Plan: ps.render(header, true)}, rows.Stats(), ps, nil
}
