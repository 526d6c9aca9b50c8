package sqldb

import (
	"errors"
	"fmt"
	"strings"

	"ritree/internal/rel"
)

// Explicit transactions: BEGIN / COMMIT / ROLLBACK with snapshot-isolated
// reads and optimistic, first-committer-wins writes.
//
// BEGIN pins a snapshot view (see view.go): every SELECT inside the
// transaction answers from it, so reads are repeatable regardless of
// concurrent auto-commit writers. INSERT and DELETE are buffered — DELETE
// resolves its victims against the snapshot, INSERT records the row — and
// nothing touches live storage until COMMIT. COMMIT validates that no
// concurrent writer changed a touched table since BEGIN (compared by the
// tables' content checksums, the same incrementally maintained XOR the
// domain-index attach verification uses) and only then applies the
// buffered operations; a validation failure aborts with ErrTxnConflict
// and applies nothing. ROLLBACK discards the buffer.
//
// Scope and limits, deliberately documented rather than hidden:
//
//   - One transaction per Engine (session) at a time. SQL DML issued while
//     it is open joins it, whichever goroutine issues it; programmatic
//     collection writes (InsertRow, BulkInsert, DeleteRowID) stay
//     auto-commit and are exactly the concurrent writers COMMIT detects.
//   - Reads do not see the transaction's own buffered writes (snapshot
//     semantics without a private workspace).
//   - DDL (CREATE/DROP) is rejected inside a transaction.
//   - Buffered inserts are validated against the table schema at
//     statement time, but domain-index validation runs at COMMIT, which
//     applies one batch per touched table: a table whose batch an index
//     refuses is left untouched and the error surfaces after the tables
//     already applied (a consistent prefix).

// ErrTxnConflict aborts a COMMIT whose touched tables were changed by a
// concurrent writer after BEGIN: the first committer won.
var ErrTxnConflict = errors.New("sql: transaction conflict: table changed since BEGIN (first committer wins)")

// txnBatch is the buffered mutations of one table.
type txnBatch struct {
	ins [][]int64
	del []Entry
	// deleted dedupes victims across the transaction's DELETE statements:
	// the snapshot keeps serving a row this transaction already deleted,
	// so a second WHERE match must not buffer it twice.
	deleted map[rel.RowID]bool
}

// txnState is an open transaction. All fields are guarded by e.mu.
type txnState struct {
	view *execView
	base map[string]uint64 // content checksum per table at BEGIN
	// batches holds one batch per touched table (lower-cased name), order
	// the tables in first-touch order — the order COMMIT applies them.
	batches map[string]*txnBatch
	order   []string
}

// batch returns table's batch, marking the table touched.
func (t *txnState) batch(table string) *txnBatch {
	b, ok := t.batches[table]
	if !ok {
		b = &txnBatch{deleted: make(map[rel.RowID]bool)}
		t.batches[table] = b
		t.order = append(t.order, table)
	}
	return b
}

// txnCounter bumps a txn.* metric. Caller holds e.mu (which guards e.reg).
func (e *Engine) txnCounter(name string) {
	if e.reg != nil {
		e.reg.Counter(name).Inc()
	}
}

func (e *Engine) execBegin() (*Result, error) {
	if e.txn != nil {
		return nil, fmt.Errorf("sql: a transaction is already open (COMMIT or ROLLBACK it first)")
	}
	v, err := e.acquireViewLocked()
	if err != nil {
		return nil, err
	}
	// The base checksums are read from the live tables, which equal the
	// snapshot state: the view was pinned (or reused) at a committed
	// boundary under e.mu, and no write has run since.
	base := make(map[string]uint64)
	for _, name := range e.db.Tables() {
		tab, err := e.db.Table(name)
		if err != nil {
			e.releaseView(v)
			return nil, err
		}
		base[strings.ToLower(name)] = tab.ContentChecksum()
	}
	e.txn = &txnState{view: v, base: base, batches: make(map[string]*txnBatch)}
	e.txnCounter("txn.begins")
	return &Result{}, nil
}

func (e *Engine) execCommit() (*Result, error) {
	t := e.txn
	if t == nil {
		return nil, fmt.Errorf("sql: COMMIT without an open transaction")
	}
	e.txn = nil
	defer e.releaseView(t.view)
	// First-committer-wins validation: any change to a touched table since
	// BEGIN aborts. The checksum is content-derived, so it catches
	// insert-then-delete churn that nets to the same row count.
	for _, tl := range t.order {
		tab, err := e.db.Table(tl)
		if err != nil {
			e.txnCounter("txn.conflicts")
			return nil, fmt.Errorf("%w: table %s was dropped", ErrTxnConflict, tl)
		}
		if tab.ContentChecksum() != t.base[tl] {
			e.txnCounter("txn.conflicts")
			return nil, fmt.Errorf("%w: table %s", ErrTxnConflict, tl)
		}
	}
	var affected int64
	for _, tl := range t.order {
		b := t.batches[tl]
		if _, err := e.applyLocked(tl, b.ins, b.del); err != nil {
			return nil, err
		}
		affected += int64(len(b.ins) + len(b.del))
	}
	e.txnCounter("txn.commits")
	return &Result{Affected: affected}, nil
}

func (e *Engine) execRollback() (*Result, error) {
	t := e.txn
	if t == nil {
		return nil, fmt.Errorf("sql: ROLLBACK without an open transaction")
	}
	e.txn = nil
	e.releaseView(t.view)
	e.txnCounter("txn.rollbacks")
	return &Result{}, nil
}

// txnInsert buffers an INSERT: schema-validated now, index-validated when
// COMMIT applies it. Caller holds e.mu with e.txn open.
func (e *Engine) txnInsert(s *InsertStmt, binds map[string]interface{}) (*Result, error) {
	row, err := e.insertValues(s, binds)
	if err != nil {
		return nil, err
	}
	b := e.txn.batch(s.Table)
	b.ins = append(b.ins, row)
	return &Result{Affected: 1}, nil
}

// txnDelete buffers a DELETE: the WHERE clause is evaluated against the
// transaction's snapshot view, so the victim set is repeatable. Caller
// holds e.mu with e.txn open.
func (e *Engine) txnDelete(s *DeleteStmt, binds map[string]interface{}) (*Result, error) {
	victims, err := e.victimsLocked(s, binds, &e.txn.view.readState)
	if err != nil {
		return nil, err
	}
	b := e.txn.batch(s.Table)
	var n int64
	for _, v := range victims {
		if b.deleted[v.RID] {
			continue // already deleted earlier in this transaction
		}
		b.deleted[v.RID] = true
		b.del = append(b.del, v)
		n++
	}
	return &Result{Affected: n}, nil
}
