package ritree

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// openSnapshotDB creates a file-backed database with one hint collection
// of n intervals and returns it with its path.
func openSnapshotDB(t *testing.T, method string, n int, opts ...Option) (*DB, *Collection, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.db")
	db, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("resv", AccessMethod(method))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]IntervalRow, n)
	for i := range rows {
		rows[i] = IntervalRow{NewInterval(int64(i*3), int64(i*3+10)), int64(i)}
	}
	if err := c.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	return db, c, path
}

// reopenAndCompare reopens path (with opts) and asserts its query results
// match a snapshot-free reopen of a copy of the same files.
func reopenAndCompare(t *testing.T, path string, opts ...Option) *DB {
	t.Helper()
	refPath := filepath.Join(filepath.Dir(path), "ref.db")
	copyFile(t, path, refPath)
	if _, err := os.Stat(path + ".wal"); err == nil {
		copyFile(t, path+".wal", refPath+".wal")
	}
	db, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open(refPath, WithIndexSnapshots(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	c, err := db.Collection("resv")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ref.Collection("resv")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Interval{NewInterval(0, 50), NewInterval(100, 130), NewInterval(-10, 1000000), Point(299)} {
		want, err1 := rc.Intersecting(q)
		got, err2 := c.Intersecting(q)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %v: snapshot reopen %v, rebuild reopen %v", q, got, want)
		}
	}
	return db
}

func TestReopenServesFromIndexSnapshot(t *testing.T) {
	for _, method := range []string{AccessMethodHINT, AccessMethodHINTSharded} {
		t.Run(method, func(t *testing.T) {
			db, _, path := openSnapshotDB(t, method, 400)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			rdb := reopenAndCompare(t, path)
			defer rdb.Close()
			m := rdb.Metrics()
			if c := m.Counter("index.resv$am.snapshot.loads"); c != 1 {
				t.Fatalf("snapshot.loads = %d, want 1 (counters: %v)", c, m.CounterNames())
			}
			if c := m.Counter("index.resv$am.snapshot.rebuild_fallbacks"); c != 0 {
				t.Fatalf("snapshot.rebuild_fallbacks = %d, want 0", c)
			}
			if c := m.Counter("index.resv$am.snapshot.tail_rows"); c != 0 {
				t.Fatalf("snapshot.tail_rows = %d, want 0", c)
			}
		})
	}
}

func TestReopenSnapshotsOptOut(t *testing.T) {
	db, _, path := openSnapshotDB(t, AccessMethodHINT, 100, WithIndexSnapshots(false))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rdb := reopenAndCompare(t, path, WithIndexSnapshots(false))
	defer rdb.Close()
	if c := rdb.Metrics().Counter("index.resv$am.snapshot.loads"); c != 0 {
		t.Fatalf("opted-out reopen loaded a snapshot (loads = %d)", c)
	}
}

func TestReopenSnapshotReplaysCrashedTail(t *testing.T) {
	// Flush persists the snapshot; rows inserted after it live only in the
	// WAL. A crash then loses nothing committed — and the reopen must
	// serve those tail rows on top of the (now stale) snapshot.
	db, c, path := openSnapshotDB(t, AccessMethodHINT, 300)
	defer db.Close()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 300; i < 350; i++ {
		if err := c.Insert(NewInterval(int64(i*3), int64(i*3+10)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	crashed := snapshotFiles(t, path, filepath.Dir(path))

	rdb := reopenAndCompare(t, crashed)
	defer rdb.Close()
	m := rdb.Metrics()
	if v := m.Counter("wal.recovered_pages"); v == 0 {
		t.Fatal("reopen replayed no WAL pages — the test lost its premise")
	}
	if v := m.Counter("index.resv$am.snapshot.loads"); v != 1 {
		t.Fatalf("snapshot.loads = %d, want 1", v)
	}
	if v := m.Counter("index.resv$am.snapshot.tail_rows"); v != 50 {
		t.Fatalf("snapshot.tail_rows = %d, want 50", v)
	}
	rc, err := rdb.Collection("resv")
	if err != nil {
		t.Fatal(err)
	}
	if cnt := rc.Count(); cnt != 350 {
		t.Fatalf("recovered %d rows, want 350", cnt)
	}
}

func TestCrashBetweenSnapshotPersistAndCommit(t *testing.T) {
	// The snapshot blob is written through the same WAL as everything
	// else. Tearing the WAL inside the persist's commit batch must drop
	// the whole batch atomically: the reopened database sees no snapshot
	// (or a stale-but-valid one), never a half-written blob — and serves
	// exactly the committed rows either way.
	db, _, path := openSnapshotDB(t, AccessMethodHINT, 200)
	defer db.Close()
	// Persist the snapshot WITHOUT the page flush Close/Flush would do:
	// the blob now exists only as WAL records.
	if err := db.eng.PersistIndexSnapshots(); err != nil {
		t.Fatal(err)
	}
	crashed := snapshotFiles(t, path, filepath.Dir(path))
	fi, err := os.Stat(crashed + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the final commit record: the persist's batch is torn.
	if err := os.Truncate(crashed+".wal", fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	rdb := reopenAndCompare(t, crashed)
	defer rdb.Close()
	m := rdb.Metrics()
	if v := m.Counter("index.resv$am.snapshot.rebuild_fallbacks"); v != 0 {
		t.Fatalf("torn persist produced a readable-but-bad snapshot (fallbacks = %d)", v)
	}
	if v := m.Counter("index.resv$am.snapshot.loads"); v != 0 {
		t.Fatalf("torn persist batch survived recovery (loads = %d)", v)
	}
	rc, err := rdb.Collection("resv")
	if err != nil {
		t.Fatal(err)
	}
	if cnt := rc.Count(); cnt != 200 {
		t.Fatalf("recovered %d rows, want 200", cnt)
	}
}

func TestCheckpointThresholdThroughDB(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetCheckpointThreshold(64 << 10)
	c, err := db.CreateCollection("resv", AccessMethod(AccessMethodHINT))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := c.Insert(NewInterval(int64(i), int64(i+5)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	if v := m.Counter("wal.checkpoints"); v == 0 {
		t.Fatal("no threshold checkpoint fired over 2000 single-row commits")
	}
	fi, err := os.Stat(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	// The WAL may hold a post-checkpoint tail, but it must be bounded by
	// the threshold plus one commit batch, not the whole history.
	if fi.Size() > 256<<10 {
		t.Fatalf("WAL grew to %d bytes despite a 64 KiB checkpoint threshold", fi.Size())
	}
	ids, err := c.Intersecting(NewInterval(500, 510))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 16 {
		t.Fatalf("query after checkpoints returned %d ids, want 16", len(ids))
	}
}

// TestFlushBetweenStatements loops Flush while two sessions INSERT and
// InsertMany loads the same HINT collection. A page flush seals whatever
// is pending as a commit boundary, so it must only ever run between
// statements: after Close and a reopen every acknowledged row is there,
// and the collection attaches from its persisted snapshot.
func TestFlushBetweenStatements(t *testing.T) {
	db, c, path := openSnapshotDB(t, AccessMethodHINT, 10)
	const perWriter = 60
	var acked [3][]int64
	var writers, flusher sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			s := db.Session()
			defer s.Close()
			for i := 0; i < perWriter; i++ {
				id := int64(1000*(w+1) + i)
				if _, err := s.Exec("INSERT INTO resv VALUES (:lo, :hi, :id)", map[string]interface{}{"lo": id, "hi": id + 5, "id": id}); err != nil {
					errc <- err
					return
				}
				acked[w] = append(acked[w], id)
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < perWriter; i += 6 {
			rows := make([]IntervalRow, 6)
			for j := range rows {
				id := int64(3000 + i + j)
				rows[j] = IntervalRow{NewInterval(id, id+5), id}
			}
			if err := c.InsertMany(rows); err != nil {
				errc <- err
				return
			}
			for _, r := range rows {
				acked[2] = append(acked[2], r.ID)
			}
		}
	}()
	stop := make(chan struct{})
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Flush(); err != nil {
				errc <- err
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	flusher.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rdb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if v := rdb.Metrics().Counter("index.resv$am.snapshot.loads"); v != 1 {
		t.Fatalf("snapshot.loads = %d, want 1", v)
	}
	rc, err := rdb.Collection("resv")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rc.Intersecting(NewInterval(1000, 4000))
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, ids := range acked {
		want = append(want, ids...)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("reopened collection holds %d rows in [1000, 4000], want the %d acknowledged ones", len(got), len(want))
	}
}
