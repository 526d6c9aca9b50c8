package sqldb

import (
	"errors"
	"fmt"
	"strings"

	"ritree/internal/rel"
)

// Explicit transactions: BEGIN / COMMIT / ROLLBACK with snapshot-isolated
// reads and optimistic, first-committer-wins writes. A transaction belongs
// to a Session: a statement joins only its own session's transaction, and
// any number of sessions may hold one at once.
//
// BEGIN pins a snapshot view (see view.go): every SELECT inside the
// transaction answers from it, so reads are repeatable regardless of
// concurrent writers. INSERT and DELETE are buffered — DELETE resolves
// its victims against the snapshot, INSERT records the row — and nothing
// touches live storage until COMMIT. COMMIT validates that every touched
// table is still the table BEGIN saw and that no concurrent writer changed
// it since (compared by the tables' content checksums, the same
// incrementally maintained XOR the domain-index attach verification
// uses); a validation failure aborts with ErrTxnConflict and applies
// nothing. ROLLBACK discards the buffer.
//
// Scope and limits, deliberately documented rather than hidden:
//
//   - Programmatic collection writes (BulkInsert, DeleteCollectionRow)
//     are auto-commit: exactly the concurrent writers COMMIT detects.
//   - Reads do not see the transaction's own buffered writes (snapshot
//     semantics without a private workspace).
//   - DDL is rejected inside the session's own transaction. DDL from
//     elsewhere makes reads of the changed table, and COMMIT, conflict.
//   - Buffered inserts are validated against the table schema at
//     statement time, but domain-index validation runs at COMMIT: a batch
//     an index refuses fails the COMMIT, which then undoes the tables it
//     already applied.

// ErrTxnConflict aborts a COMMIT, or a read inside the transaction, whose
// table was changed by a concurrent writer after BEGIN: the first
// committer won.
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

// Session is one connection's statement context and the owner of its
// explicit transaction. Safe for concurrent use.
type Session struct {
	e   *Engine
	txn *txnState // the open transaction, nil outside BEGIN…COMMIT; guarded by e.mu
}

// NewSession returns a session of its own for one connection.
func (e *Engine) NewSession() *Session { return &Session{e: e} }

// Close rolls back the session's open transaction, if any.
func (s *Session) Close() error {
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	if s.txn != nil {
		_, _ = s.rollback() // cannot fail with a transaction open
	}
	return nil
}

// txnState is an open transaction. All fields are guarded by e.mu.
type txnState struct {
	view *execView
	base map[string]tableAt // every table at BEGIN, by lower-cased name
	// batches holds one batch per touched table (lower-cased name), order
	// the tables in first-touch order — the order COMMIT applies them.
	batches map[string]*txnBatch
	order   []string
}

// tableAt is one table and its content checksum at BEGIN.
type tableAt struct {
	tab *rel.Table
	sum uint64
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

func (s *Session) begin() (*Result, error) {
	e := s.e
	if s.txn != nil {
		return nil, fmt.Errorf("sql: a transaction is already open (COMMIT or ROLLBACK it first)")
	}
	// The base checksums are read from the live tables, which equal the
	// snapshot state: the view is pinned (or reused) at a committed
	// boundary under e.mu, and no write runs in between.
	base := make(map[string]tableAt)
	for _, name := range e.db.Tables() {
		tab, err := e.db.Table(name)
		if err != nil {
			return nil, err
		}
		base[strings.ToLower(name)] = tableAt{tab: tab, sum: tab.ContentChecksum()}
	}
	v, err := e.acquireViewLocked(s)
	if err != nil {
		return nil, err
	}
	s.txn = &txnState{view: v, base: base, batches: make(map[string]*txnBatch)}
	e.txnCounter("txn.begins")
	return &Result{}, nil
}

func (s *Session) commit() (*Result, error) {
	e := s.e
	t := s.txn
	if t == nil {
		return nil, fmt.Errorf("sql: COMMIT without an open transaction")
	}
	s.txn = nil
	defer e.releaseView(t.view)
	// First-committer-wins validation: a touched table must still be the
	// one BEGIN saw (no DDL from another session), with the same content.
	// The checksum catches insert-then-delete churn that nets to the same
	// row count.
	for _, tl := range t.order {
		at := t.base[tl]
		if tab, err := e.db.Table(tl); err != nil || tab != at.tab || tab.ContentChecksum() != at.sum {
			e.txnCounter("txn.conflicts")
			return nil, fmt.Errorf("%w: table %s", ErrTxnConflict, tl)
		}
	}
	// One batch per table. A refused batch has undone itself; the tables
	// applied before it get their inverse batches, newest first.
	added := make([][]Entry, len(t.order))
	var affected int64
	for i, tl := range t.order {
		b := t.batches[tl]
		var err error
		if added[i], err = e.applyLocked(tl, b.ins, b.del); err != nil {
			var undoErr error
			for j := i - 1; j >= 0; j-- {
				del := t.batches[t.order[j]].del
				rows := make([][]int64, len(del))
				for k, en := range del {
					rows[k] = en.Row
				}
				if _, err := e.applyLocked(t.order[j], rows, added[j]); err != nil && undoErr == nil {
					undoErr = fmt.Errorf("undo of table %s failed: %w", t.order[j], err)
				}
			}
			return nil, withUndo(err, undoErr)
		}
		affected += int64(len(b.ins) + len(b.del))
	}
	e.txnCounter("txn.commits")
	return &Result{Affected: affected}, nil
}

func (s *Session) rollback() (*Result, error) {
	t := s.txn
	if t == nil {
		return nil, fmt.Errorf("sql: ROLLBACK without an open transaction")
	}
	s.txn = nil
	s.e.releaseView(t.view)
	s.e.txnCounter("txn.rollbacks")
	return &Result{}, nil
}

// txnInsert buffers an INSERT: schema-validated now, index-validated when
// COMMIT applies it. Caller holds e.mu with s.txn open.
func (s *Session) txnInsert(x *InsertStmt, binds bindVals) (*Result, error) {
	row, err := s.e.insertValues(x, binds)
	if err != nil {
		return nil, err
	}
	b := s.txn.batch(x.Table)
	b.ins = append(b.ins, row)
	return &Result{Affected: 1}, nil
}

// txnDelete buffers a DELETE: the WHERE clause is evaluated against the
// transaction's snapshot view, so the victim set is repeatable. Caller
// holds e.mu with s.txn open.
func (s *Session) txnDelete(x *DeleteStmt, binds bindVals) (*Result, error) {
	victims, err := s.e.victimsLocked(x, binds, &s.txn.view.readState)
	if err != nil {
		return nil, err
	}
	b := s.txn.batch(x.Table)
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
