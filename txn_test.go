package ritree

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCursorNeverBlocksWriters is the PR's core acceptance: a reader
// holding an open streaming cursor must never block a concurrent
// InsertMany / Delete commit, and the cursor keeps answering from its
// snapshot regardless.
func TestCursorNeverBlocksWriters(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := db.CreateCollection("resv")
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	rows := make([]IntervalRow, n)
	for i := range rows {
		rows[i] = IntervalRow{NewInterval(int64(i), int64(i)+10), int64(i)}
	}
	if err := c.InsertMany(rows); err != nil {
		t.Fatal(err)
	}

	cur, err := db.Query(context.Background(),
		"SELECT id FROM resv WHERE intersects(lower, upper, :a, :b)",
		map[string]interface{}{"a": 0, "b": 10000})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Next() {
		t.Fatalf("cursor empty: %v", cur.Err())
	}

	// With the cursor suspended mid-stream, writes must commit promptly.
	done := make(chan error, 1)
	go func() {
		extra := make([]IntervalRow, 100)
		for i := range extra {
			extra[i] = IntervalRow{NewInterval(int64(n+i), int64(n+i)+10), int64(n + i)}
		}
		if err := c.InsertMany(extra); err != nil {
			done <- err
			return
		}
		_, err := c.Delete(NewInterval(0, 10), 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer blocked behind an open cursor")
	}

	// The cursor's snapshot is unshifted: it drains exactly the original
	// n rows — not the 100 inserted nor minus the 1 deleted.
	got := 1
	for cur.Next() {
		got++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("snapshot cursor drained %d rows, want %d", got, n)
	}
	// A fresh cursor sees the writes.
	if cnt := c.Count(); cnt != n+100-1 {
		t.Fatalf("live count = %d, want %d", cnt, n+100-1)
	}
}

// TestSnapshotReadersSeeWholeCommits races snapshot readers against two
// writers that each commit two rows at a time: one through InsertMany, one
// through BEGIN/COMMIT, retrying from Begin whenever the other writer wins
// the first-committer check. The base is even-sized, so every cursor must
// observe an even number of rows; an odd count is a torn snapshot that
// saw half of a commit. The run is bounded by commit counts, not time.
func TestSnapshotReadersSeeWholeCommits(t *testing.T) {
	const (
		base    = 1000
		commits = 100 // per writer
		readers = 4
	)
	db := openMemoryDB(t)
	c, err := db.CreateCollection("snap", AccessMethod(AccessMethodHINTSharded))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]IntervalRow, base)
	for i := range rows {
		rows[i] = IntervalRow{NewInterval(int64(i%500), int64(i%500)+50), int64(i)}
	}
	if err := c.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	pair := func(w, seq int) (int64, int64, int64) {
		lo := int64((seq * 37) % 500)
		return lo, int64(1_000_000 + w*10_000 + seq*2), lo + 7
	}

	var (
		writers sync.WaitGroup
		stop    = make(chan struct{})
		errs    = make(chan error, readers+2) // one send at most per goroutine
	)
	writers.Add(2)
	go func() { // auto-commit batches of two
		defer writers.Done()
		for seq := 0; seq < commits; seq++ {
			lo, id, lo2 := pair(0, seq)
			if err := c.InsertMany([]IntervalRow{
				{NewInterval(lo, lo+40), id}, {NewInterval(lo2, lo2+90), id + 1},
			}); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // two-statement transactions
		defer writers.Done()
		for seq := 0; seq < commits; {
			lo, id, lo2 := pair(1, seq)
			txn, err := db.Begin()
			if err != nil {
				errs <- err
				return
			}
			for _, row := range [][3]int64{{lo, lo + 40, id}, {lo2, lo2 + 90, id + 1}} {
				if _, err := txn.Exec(fmt.Sprintf("INSERT INTO snap VALUES (%d, %d, %d)", row[0], row[1], row[2]), nil); err != nil {
					txn.Rollback()
					errs <- err
					return
				}
			}
			switch err := txn.Commit(); {
			case err == nil:
				seq++
			case !errors.Is(err, ErrTxnConflict):
				errs <- err
				return
			}
		}
	}()

	var (
		rd     sync.WaitGroup
		rounds atomic.Int64
	)
	// read drains one cursor and returns how many rows it streamed, or for
	// a COUNT(*) the value of its single row.
	read := func(sql string, isCount bool) (int64, error) {
		cur, err := db.Query(context.Background(), sql, nil)
		if err != nil {
			return 0, err
		}
		defer cur.Close()
		var n int64
		for cur.Next() {
			if isCount {
				n = cur.Row()[0]
			} else {
				n++
			}
		}
		return n, cur.Err()
	}
	for r := 0; r < readers; r++ {
		rd.Add(1)
		go func() {
			defer rd.Done()
			for {
				for _, q := range []struct {
					sql     string
					isCount bool
				}{
					{"SELECT id FROM snap WHERE intersects(lower, upper, 0, 1000)", false},
					{"SELECT COUNT(*) FROM snap", true},
				} {
					n, err := read(q.sql, q.isCount)
					if err != nil {
						errs <- err
						return
					}
					if n%2 != 0 {
						errs <- fmt.Errorf("torn snapshot: %q saw %d rows", q.sql, n)
						return
					}
				}
				rounds.Add(1)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	rd.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if rounds.Load() < readers {
		t.Fatalf("readers completed %d rounds, want at least %d", rounds.Load(), readers)
	}
	if got, want := c.Count(), int64(base+2*2*commits); got != want {
		t.Fatalf("count after the writers = %d, want %d", got, want)
	}
}

// TestCloseWithOpenCursor: DB.Close must not panic or deadlock against an
// open cursor; the cursor fails cleanly through Rows.Err.
func TestCloseWithOpenCursor(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("resv")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]IntervalRow, 2000)
	for i := range rows {
		rows[i] = IntervalRow{NewInterval(int64(i), int64(i)+5), int64(i)}
	}
	if err := c.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	cur, err := db.Query(context.Background(),
		"SELECT id FROM resv WHERE intersects(lower, upper, :a, :b)",
		map[string]interface{}{"a": 0, "b": 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("cursor empty: %v", cur.Err())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	if cur.Err() == nil {
		t.Fatal("cursor survived DB.Close without an error")
	}
	_ = cur.Close()
}

func TestTransactionCommitAndRollback(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := db.CreateCollection("resv")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(NewInterval(10, 20), 1); err != nil {
		t.Fatal(err)
	}

	// Commit applies buffered writes; reads inside the txn stay on the
	// BEGIN snapshot and do not see them.
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("INSERT INTO resv VALUES (30, 40, 2)", nil); err != nil {
		t.Fatal(err)
	}
	r, err := txn.Exec("SELECT COUNT(*) FROM resv", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0] != 1 {
		t.Fatalf("read inside txn saw %d rows, want the BEGIN snapshot's 1", r.Rows[0][0])
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if cnt := c.Count(); cnt != 2 {
		t.Fatalf("count after commit = %d, want 2", cnt)
	}

	// Rollback discards.
	txn, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("DELETE FROM resv WHERE id = 1", nil); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if cnt := c.Count(); cnt != 2 {
		t.Fatalf("count after rollback = %d, want 2", cnt)
	}

	// Buffered DELETE resolves victims against the snapshot and applies
	// at commit.
	txn, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	r, err = txn.Exec("DELETE FROM resv WHERE id = 2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 1 {
		t.Fatalf("buffered delete affected %d, want 1", r.Affected)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if cnt := c.Count(); cnt != 1 {
		t.Fatalf("count after delete commit = %d, want 1", cnt)
	}
}

// TestTransactionConflict: a programmatic write that lands between BEGIN
// and COMMIT on a touched table aborts the transaction — first committer
// wins.
func TestTransactionConflict(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := db.CreateCollection("resv")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(NewInterval(10, 20), 1); err != nil {
		t.Fatal(err)
	}

	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("INSERT INTO resv VALUES (30, 40, 2)", nil); err != nil {
		t.Fatal(err)
	}
	// Concurrent auto-commit writer touches the same table first.
	if err := c.Insert(NewInterval(50, 60), 3); err != nil {
		t.Fatal(err)
	}
	err = txn.Commit()
	if !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("Commit = %v, want ErrTxnConflict", err)
	}
	// The aborted transaction applied nothing: only rows 1 and 3 exist.
	ids, err := c.Intersecting(NewInterval(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("rows after aborted commit = %v, want [1 3]", ids)
	}

	// A transaction whose touched tables saw no concurrent write still
	// commits after unrelated activity.
	txn, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("INSERT INTO resv VALUES (70, 80, 4)", nil); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if cnt := c.Count(); cnt != 3 {
		t.Fatalf("count = %d, want 3", cnt)
	}
}

func TestTransactionRejectsDDLAndNesting(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateCollection("resv"); err != nil {
		t.Fatal(err)
	}
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Rollback()
	if _, err := txn.Exec("CREATE TABLE t2 (a, b)", nil); err == nil {
		t.Fatal("DDL inside a transaction did not error")
	}
	if _, err := db.Begin(); err == nil {
		t.Fatal("nested Begin did not error")
	}
	if _, err := db.CreateCollection("other"); err == nil {
		t.Fatal("CreateCollection inside a transaction did not error")
	}
}

// TestTxnCommitHoldsDBLock races the synchronous collection reads, which
// walk live pages under the database's read lock, against transactions
// whose COMMIT rewrites those pages. Txn methods take the same lock as
// DB.Exec, so every answer is a committed prefix: ids 0..k-1 for some k,
// and a count equal to one such k.
func TestTxnCommitHoldsDBLock(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const cycles = 100
	var colls []*Collection
	for _, m := range []string{AccessMethodRITree, AccessMethodHINT} {
		c, err := db.CreateCollection("c_"+m, AccessMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		colls = append(colls, c)
	}
	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		q := NewInterval(0, 1000)
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, c := range colls {
				ids, err := c.Intersecting(q)
				if err != nil {
					errc <- err
					return
				}
				slices.Sort(ids)
				for i, id := range ids {
					if id != int64(i) {
						errc <- fmt.Errorf("%s: ids %v are not a committed prefix", c.Name(), ids)
						return
					}
				}
				n, err := c.CountIntersecting(q)
				if err != nil {
					errc <- err
					return
				}
				if n < 0 || n > cycles {
					errc <- fmt.Errorf("%s: count %d is not a committed prefix", c.Name(), n)
					return
				}
			}
		}
	}()
	for i := 0; i < cycles; i++ {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range colls {
			if _, err := txn.Exec("INSERT INTO "+c.Name()+" VALUES (:lo, :hi, :id)",
				map[string]interface{}{"lo": 10 + i, "hi": 20 + i, "id": i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	for _, c := range colls {
		if n, err := c.CountIntersecting(NewInterval(0, 1000)); err != nil || n != cycles {
			t.Fatalf("%s: final count %d (%v), want %d", c.Name(), n, err, cycles)
		}
	}
}
