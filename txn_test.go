package ritree

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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

// TestTransactionRejectsDDLAndNesting: DDL and BEGIN inside the
// transaction's own session are refused. Another Begin is a transaction
// of its own, and DDL from outside on an untouched table does not disturb
// the open transaction.
func TestTransactionRejectsDDLAndNesting(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	resv, err := db.CreateCollection("resv")
	if err != nil {
		t.Fatal(err)
	}
	side, err := db.CreateCollection("side")
	if err != nil {
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
	if _, err := txn.Exec("BEGIN", nil); err == nil {
		t.Fatal("BEGIN inside a transaction did not error")
	}
	txn2, err := db.Begin()
	if err != nil {
		t.Fatalf("second Begin: %v", err)
	}
	if _, err := txn2.Exec("INSERT INTO side VALUES (1, 2, 1)", nil); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Commit(); err != nil {
		t.Fatalf("second transaction's Commit: %v", err)
	}
	if _, err := db.CreateCollection("other"); err != nil {
		t.Fatalf("CreateCollection beside an open transaction: %v", err)
	}
	if _, err := txn.Exec("INSERT INTO resv VALUES (3, 4, 2)", nil); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("first transaction's Commit: %v", err)
	}
	if resv.Count() != 1 || side.Count() != 1 {
		t.Fatalf("counts resv=%d side=%d, want 1 and 1", resv.Count(), side.Count())
	}
}

// TestCommitConflictsOnRecreatedTable: a table dropped and created again
// by another session after BEGIN is not the table the transaction wrote
// to. Both are empty, so only the table's identity tells them apart.
func TestCommitConflictsOnRecreatedTable(t *testing.T) {
	for _, ddl := range [][2]string{
		{"DROP TABLE t", "CREATE TABLE t (lower, upper, id)"},
		{"DROP COLLECTION t", "CREATE COLLECTION t USING hint"},
	} {
		t.Run(ddl[0], func(t *testing.T) {
			db := openMemoryDB(t)
			if _, err := db.Exec(ddl[1], nil); err != nil {
				t.Fatal(err)
			}
			s := db.Session()
			defer s.Close()
			for _, st := range []string{"BEGIN", "INSERT INTO t VALUES (1, 2, 1)"} {
				if _, err := s.Exec(st, nil); err != nil {
					t.Fatalf("%s: %v", st, err)
				}
			}
			for _, st := range ddl {
				if _, err := db.Exec(st, nil); err != nil {
					t.Fatalf("%s: %v", st, err)
				}
			}
			if _, err := s.Exec("COMMIT", nil); !errors.Is(err, ErrTxnConflict) {
				t.Fatalf("COMMIT = %v, want ErrTxnConflict", err)
			}
			r, err := db.Exec("SELECT COUNT(*) FROM t", nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := r.Rows[0][0]; n != 0 {
				t.Fatalf("recreated t holds %d rows, want 0", n)
			}
		})
	}
}

// TestForeignDDLInsideTransaction: a transaction's reads plan against
// the live catalog but read its BEGIN snapshot. An index another session
// created since, or a table it recreated, is not in that snapshot, so the
// read fails with ErrTxnConflict instead of reading the old table
// through the new plan.
func TestForeignDDLInsideTransaction(t *testing.T) {
	db := openMemoryDB(t)
	for _, st := range []string{"CREATE TABLE t (lower, upper, id)", "INSERT INTO t VALUES (1, 5, 1)"} {
		if _, err := db.Exec(st, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := db.Session()
	defer s.Close()
	if _, err := s.Exec("BEGIN", nil); err != nil {
		t.Fatal(err)
	}
	for _, step := range [][2]string{
		{"CREATE INDEX t_iv ON t (lower, upper) INDEXTYPE IS hint", "SELECT id FROM t WHERE intersects(lower, upper, 3, 4)"},
		{"DROP TABLE t", ""},
		{"CREATE TABLE t (a, b, c, d)", "SELECT * FROM t WHERE d > 0"},
		{"", "DELETE FROM t WHERE d > 0"},
	} {
		if step[0] != "" {
			if _, err := db.Exec(step[0], nil); err != nil {
				t.Fatalf("%s: %v", step[0], err)
			}
		}
		if step[1] != "" {
			if _, err := s.Exec(step[1], nil); !errors.Is(err, ErrTxnConflict) {
				t.Fatalf("%s after %q = %v, want ErrTxnConflict", step[1], step[0], err)
			}
		}
	}
}

// TestCommitIsAtomicAcrossTables: an index refusing one table's batch at
// COMMIT undoes the batches of the tables applied before it. Every table
// then holds the rows it held before, and every index gives the same
// answers.
func TestCommitIsAtomicAcrossTables(t *testing.T) {
	db := openMemoryDB(t)
	a, err := db.CreateCollection("a", AccessMethod(AccessMethodRITree))
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateCollection("b", AccessMethod(AccessMethodHINT))
	if err != nil {
		t.Fatal(err)
	}
	for i, iv := range []Interval{NewInterval(10, 20), NewInterval(15, 40), NewInterval(3, 5)} {
		if err := a.Insert(iv, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Insert(NewInterval(7, 9), 200); err != nil {
		t.Fatal(err)
	}
	queries := []Interval{NewInterval(0, 100), NewInterval(1, 2), NewInterval(12, 12), NewInterval(30, 50)}
	state := func() string {
		var out strings.Builder
		for _, c := range []*Collection{a, b} {
			r, err := db.Exec("SELECT lower, upper, id FROM "+c.Name()+" ORDER BY id", nil)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s rows %v count %d;", c.Name(), r.Rows, c.Count())
			for _, q := range queries {
				ids, err := c.Intersecting(q)
				if err != nil {
					t.Fatal(err)
				}
				slices.Sort(ids)
				r, err := db.Exec(fmt.Sprintf("SELECT id FROM %s WHERE intersects(lower, upper, %d, %d) ORDER BY id",
					c.Name(), q.Lower, q.Upper), nil)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, " %v: %v %v;", q, ids, r.Rows)
			}
		}
		return out.String()
	}
	before := state()

	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []string{
		"INSERT INTO a VALUES (1, 2, 1)",
		"DELETE FROM a WHERE id = 100",
		fmt.Sprintf("INSERT INTO b VALUES (1, %d, 2)", NowMarker),
	} {
		if _, err := txn.Exec(st, nil); err != nil {
			t.Fatalf("%s: %v", st, err)
		}
	}
	err = txn.Commit()
	if err == nil || !strings.Contains(err.Error(), "now-relative") {
		t.Fatalf("Commit = %v, want HINT's refusal of a now-relative row", err)
	}
	if after := state(); after != before {
		t.Fatalf("refused COMMIT changed the database:\nbefore %s\nafter  %s", before, after)
	}
	// The database stays writable, by transactions too.
	txn, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("INSERT INTO a VALUES (1, 2, 1)", nil); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := a.Count(); n != 4 {
		t.Fatalf("a holds %d rows after a later commit, want 4", n)
	}
}

// TestSessionsOwnTransactions runs three sessions, one goroutine each,
// through interleaved BEGIN / SELECT / INSERT / DELETE / COMMIT against
// two collections. Each transaction reads only the tables it writes, and
// its writes depend on what it read. The committed history must be
// serial in commit order: replaying it, every transaction read exactly
// the state its predecessors left, and the replay ends in the database's
// final state, by the heap and by the index.
func TestSessionsOwnTransactions(t *testing.T) {
	db := openMemoryDB(t)
	colls := map[string]*Collection{}
	for name, m := range map[string]string{"a": AccessMethodHINT, "b": AccessMethodRITree} {
		c, err := db.CreateCollection(name, AccessMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		colls[name] = c
	}
	type committed struct {
		reads   map[string][]int64 // ids per table at BEGIN
		inserts map[string]int64
		deletes map[string]int64 // absent: the table was empty
	}
	const (
		sessions = 3
		rounds   = 30
	)
	var (
		commitMu  sync.Mutex // orders the log exactly as COMMITs apply
		history   []committed
		conflicts atomic.Int64
		wg        sync.WaitGroup
		errs      = make(chan error, sessions)
	)
	ids := func(s *Session, table string) ([]int64, error) {
		r, err := s.Exec("SELECT id FROM "+table+" ORDER BY id", nil)
		if err != nil {
			return nil, err
		}
		out := []int64{}
		for _, row := range r.Rows {
			out = append(out, row[0])
		}
		return out, nil
	}
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			run := func(k int) error {
				tables := [][]string{{"a"}, {"b"}, {"a", "b"}}[(g+k)%3]
				if _, err := s.Exec("BEGIN", nil); err != nil {
					return err
				}
				c := committed{reads: map[string][]int64{}, inserts: map[string]int64{}, deletes: map[string]int64{}}
				for i, table := range tables {
					seen, err := ids(s, table)
					if err != nil {
						return err
					}
					c.reads[table] = seen
					runtime.Gosched()
					id := int64(g*10_000 + k*10 + i)
					if _, err := s.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, %d)", table, id%997, id%997+5, id), nil); err != nil {
						return err
					}
					c.inserts[table] = id
					if len(seen) > 0 {
						if _, err := s.Exec(fmt.Sprintf("DELETE FROM %s WHERE id = %d", table, seen[0]), nil); err != nil {
							return err
						}
						c.deletes[table] = seen[0]
					}
					runtime.Gosched()
				}
				commitMu.Lock()
				defer commitMu.Unlock()
				_, err := s.Exec("COMMIT", nil)
				switch {
				case err == nil:
					history = append(history, c)
				case errors.Is(err, ErrTxnConflict):
					conflicts.Add(1)
				default:
					return err
				}
				return nil
			}
			for k := 0; k < rounds; k++ {
				if err := run(k); err != nil {
					errs <- fmt.Errorf("session %d round %d: %w", g, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(history) == 0 {
		t.Fatal("no transaction committed")
	}
	t.Logf("%d commits, %d conflicts", len(history), conflicts.Load())

	model := map[string]map[int64]bool{"a": {}, "b": {}}
	sorted := func(set map[int64]bool) []int64 { return slices.Sorted(maps.Keys(set)) }
	for i, c := range history {
		for table, seen := range c.reads {
			if got := sorted(model[table]); !slices.Equal(got, seen) {
				t.Fatalf("commit %d read %s = %v, but the serial history leaves %v", i, table, seen, got)
			}
			model[table][c.inserts[table]] = true
			if id, ok := c.deletes[table]; ok {
				delete(model[table], id)
			}
		}
	}
	s := db.Session()
	for table, c := range colls {
		want := sorted(model[table])
		got, err := ids(s, table)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s holds %v, serial history %v", table, got, want)
		}
		byIndex, err := c.Intersecting(NewInterval(0, 2000))
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(byIndex)
		if !slices.Equal(byIndex, want) {
			t.Fatalf("%s index answers %v, serial history %v", table, byIndex, want)
		}
	}
}

// TestTxnCommitHoldsDBLock races the synchronous collection reads, which
// walk live pages under the read side of the engine's statement lock,
// against transactions whose COMMIT rewrites those pages. Txn statements
// take the write side of that lock, as DB.Exec does, so every answer is a
// committed prefix: ids 0..k-1 for some k, and a count equal to one such
// k.
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

// TestConcurrentSessionsShareFsyncs runs auto-commit INSERTs from eight
// sessions at once on a file-backed database. Each write waits for its
// WAL fsync outside the statement lock, so writers that commit while a
// sync is in flight ride the next one: fewer fsyncs than commits.
func TestConcurrentSessionsShareFsyncs(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "fsync.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id int, v int)", nil); err != nil {
		t.Fatal(err)
	}
	const sessions, inserts = 8, 100
	before := db.Metrics()
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			for i := 0; i < inserts; i++ {
				if _, err := s.Exec("INSERT INTO t VALUES (:id, :v)", map[string]interface{}{"id": w*inserts + i, "v": w}); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	d := db.Metrics().Sub(before)
	fsyncs, commits := d.Counter("wal.fsyncs"), d.Counter("wal.commits")
	if commits < sessions*inserts {
		t.Fatalf("wal.commits = %d, want at least %d", commits, sessions*inserts)
	}
	if fsyncs >= commits {
		t.Fatalf("wal.fsyncs = %d for %d commits: concurrent writers did not share an fsync", fsyncs, commits)
	}
	t.Logf("%d fsyncs for %d commits", fsyncs, commits)
	res, err := db.Exec("SELECT COUNT(*) FROM t", nil)
	if err != nil || res.Rows[0][0] != sessions*inserts {
		t.Fatalf("COUNT(*) = %v, %v; want %d", res, err, sessions*inserts)
	}
}
