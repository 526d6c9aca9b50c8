package main

import (
	"fmt"
	"sync/atomic"

	"ritree/internal/interval"
)

// twinBase is the first id of the rows written in two-row transactions.
// The two rows of a transaction carry the same interval, so a query sees
// both or neither: an odd count of such ids in one result is a torn
// snapshot.
const twinBase = int64(1) << 40

var (
	stmtBegin    = newStmt("BEGIN")
	stmtCommit   = newStmt("COMMIT")
	stmtRollback = newStmt("ROLLBACK")
)

// writer is the one client that writes. Its operations cycle through
// INSERT of the next arrival, DELETE of the oldest row (so the collection
// keeps its size), and as every tenth operation a two-row transaction. It
// keeps the model of acknowledged writes: after an operation is
// acknowledged the model changes, never before.
type writer struct {
	tgt            target
	insert, delete stmt
	arrivals       []interval.Interval // arrival k has id k; the first n were bulk-loaded
	n              int
	inserted       int // arrivals[n : n+inserted] were inserted
	deleted        int // arrivals[:deleted] were deleted
	twins          int // completed two-row transactions; the pair is live when odd
	twinIv         interval.Interval
	ops            int
	// front is the start of the newest arrival, for readers that favour
	// recent data.
	front atomic.Int64
}

func newWriter(tgt target, table string, arrivals []interval.Interval, n int) *writer {
	w := &writer{
		tgt:      tgt,
		insert:   newStmt("INSERT INTO " + table + " VALUES (:lo, :hi, :id)"),
		delete:   newStmt("DELETE FROM " + table + " WHERE intersects(lower, upper, :lo, :hi) AND id = :id"),
		arrivals: arrivals,
		n:        n,
	}
	w.front.Store(arrivals[n-1].Lower)
	return w
}

func (w *writer) arrival(k int) interval.Interval {
	if k < len(w.arrivals) {
		return w.arrivals[k]
	}
	// Past the generated arrivals (a run far longer than planned): reuse
	// the streamed ones under fresh ids.
	return w.arrivals[w.n+(k-w.n)%(len(w.arrivals)-w.n)]
}

func (w *writer) expectOne(st stmt, iv interval.Interval, id int64) error {
	affected, err := w.tgt.exec(st, iv.Lower, iv.Upper, id)
	if err != nil {
		return err
	}
	if affected != 1 {
		return fmt.Errorf("%s (%d, %d, %d) affected %d rows, want 1", st.sql[:6], iv.Lower, iv.Upper, id, affected)
	}
	return nil
}

// step performs the next write. It is a runFn: the index is ignored.
func (w *writer) step(int) (int64, error) {
	defer func() { w.ops++ }()
	switch {
	case w.ops%10 == 9:
		return 0, w.twinTxn()
	case w.ops%2 == 0:
		k := w.n + w.inserted
		iv := w.arrival(k)
		if err := w.expectOne(w.insert, iv, int64(k)); err != nil {
			return 0, err
		}
		w.inserted++
		w.front.Store(iv.Lower)
	default:
		if err := w.expectOne(w.delete, w.arrival(w.deleted), int64(w.deleted)); err != nil {
			return 0, err
		}
		w.deleted++
	}
	return 0, nil
}

// twinTxn inserts the twin rows in one transaction, or deletes them in
// one when the previous transaction inserted them.
func (w *writer) twinTxn() error {
	st := w.insert
	if w.twins%2 == 1 {
		st = w.delete
	} else {
		w.twinIv = w.arrival(w.n + w.inserted)
	}
	if _, err := w.tgt.exec(stmtBegin); err != nil {
		return err
	}
	for id := twinBase; id < twinBase+2; id++ {
		// Inside a transaction writes are buffered; the affected count is
		// known only at COMMIT.
		if _, err := w.tgt.exec(st, w.twinIv.Lower, w.twinIv.Upper, id); err != nil {
			w.tgt.exec(stmtRollback)
			return err
		}
	}
	affected, err := w.tgt.exec(stmtCommit)
	if err != nil {
		return err
	}
	if affected != 2 {
		return fmt.Errorf("two-row transaction affected %d rows", affected)
	}
	w.twins++
	return nil
}

// live returns the rows the model says the collection holds.
func (w *writer) live() (ivs []interval.Interval, ids []int64) {
	for k := w.deleted; k < w.n+w.inserted; k++ {
		ivs = append(ivs, w.arrival(k))
		ids = append(ids, int64(k))
	}
	if w.twins%2 == 1 {
		ivs = append(ivs, w.twinIv, w.twinIv)
		ids = append(ids, twinBase, twinBase+1)
	}
	return ivs, ids
}
