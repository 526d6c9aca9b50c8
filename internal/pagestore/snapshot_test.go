package pagestore

import (
	"errors"
	"sync"
	"testing"
)

func TestSnapshotSeesOnlyCommittedState(t *testing.T) {
	s, _ := New(NewMemBackend(), Options{PageSize: 256, CacheSize: 64, WAL: NewMemWAL()})
	id, _ := s.Allocate()
	writePage(t, s, id, 0, 0x01)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	snap, err := s.AcquireSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	// Mutate and commit twice after the snapshot was taken.
	for i := byte(2); i <= 3; i++ {
		writePage(t, s, id, 0, i)
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	buf := make([]byte, 256)
	if err := snap.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x01 {
		t.Fatalf("snapshot sees %#x, want pre-mutation 0x01", buf[0])
	}
	// The live store sees the latest committed state.
	if got := readPageByte(t, s, id, 0); got != 0x03 {
		t.Fatalf("live store sees %#x, want 0x03", got)
	}
}

func TestSnapshotIgnoresUncommittedMutations(t *testing.T) {
	s, _ := New(NewMemBackend(), Options{PageSize: 256, CacheSize: 64, WAL: NewMemWAL()})
	id, _ := s.Allocate()
	writePage(t, s, id, 0, 0x10)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	snap, _ := s.AcquireSnapshot()
	defer snap.Release()
	// Uncommitted mutation after acquire.
	writePage(t, s, id, 0, 0x20)

	buf := make([]byte, 256)
	if err := snap.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x10 {
		t.Fatalf("snapshot sees uncommitted %#x, want 0x10", buf[0])
	}
}

func TestSnapshotSurvivesFreeAndReuse(t *testing.T) {
	s, _ := New(NewMemBackend(), Options{PageSize: 256, CacheSize: 64, WAL: NewMemWAL()})
	id, _ := s.Allocate()
	writePage(t, s, id, 5, 0x42)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	snap, _ := s.AcquireSnapshot()
	defer snap.Release()

	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	id2, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("allocator did not reuse freed page: got %d, want %d", id2, id)
	}
	writePage(t, s, id2, 5, 0x99)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 256)
	if err := snap.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[5] != 0x42 {
		t.Fatalf("snapshot sees reused page content %#x, want original 0x42", buf[5])
	}
}

func TestSnapshotHeaderIsSynthetic(t *testing.T) {
	s, _ := New(NewMemBackend(), Options{PageSize: 256, CacheSize: 64, WAL: NewMemWAL()})
	a, _ := s.Allocate()
	writePage(t, s, a, 0, 1)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	snap, _ := s.AcquireSnapshot()
	defer snap.Release()
	// Allocate more pages after the snapshot; its view of "next" must not move.
	for i := 0; i < 4; i++ {
		id, _ := s.Allocate()
		writePage(t, s, id, 0, 1)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// A shadow store opened over the snapshot decodes the synthetic header.
	shadow, err := New(snap, Options{PageSize: 256, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := shadow.NumAllocated(); got != 1 {
		t.Fatalf("shadow NumAllocated = %d, want 1 (as of snapshot)", got)
	}
	p, err := shadow.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Data()[0] != 1 {
		t.Fatalf("shadow read = %#x, want 1", p.Data()[0])
	}
	p.Release()
}

func TestSnapshotWriteRejected(t *testing.T) {
	s, _ := New(NewMemBackend(), Options{PageSize: 256, CacheSize: 16, WAL: NewMemWAL()})
	snap, _ := s.AcquireSnapshot()
	defer snap.Release()
	if err := snap.WritePage(1, make([]byte, 256)); !errors.Is(err, ErrSnapshotWrite) {
		t.Fatalf("WritePage = %v, want ErrSnapshotWrite", err)
	}
}

func TestSnapshotReleasePrunesVersions(t *testing.T) {
	s, _ := New(NewMemBackend(), Options{PageSize: 256, CacheSize: 64, WAL: NewMemWAL()})
	id, _ := s.Allocate()
	writePage(t, s, id, 0, 1)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	snap, _ := s.AcquireSnapshot()
	writePage(t, s, id, 0, 2)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	nv := len(s.versions)
	s.mu.Unlock()
	if nv == 0 {
		t.Fatal("expected stashed versions while snapshot live")
	}
	snap.Release()
	s.mu.Lock()
	nv = len(s.versions)
	s.mu.Unlock()
	if nv != 0 {
		t.Fatalf("versions not pruned after release: %d", nv)
	}
	// Double release is a no-op.
	snap.Release()
	buf := make([]byte, 256)
	if err := snap.ReadPage(id, buf); err == nil {
		t.Fatal("read after release succeeded")
	}
}

func TestSnapshotReadAfterStoreClose(t *testing.T) {
	s, _ := New(NewMemBackend(), Options{PageSize: 256, CacheSize: 16, WAL: NewMemWAL()})
	id, _ := s.Allocate()
	writePage(t, s, id, 0, 1)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	snap, _ := s.AcquireSnapshot()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if err := snap.ReadPage(id, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadPage after store close = %v, want ErrClosed", err)
	}
	snap.Release()
}

// TestSnapshotReadersDoNotBlockWriters runs concurrent snapshot readers
// against a committing writer under -race; correctness is that every
// snapshot read observes exactly the value that was committed at or before
// its acquire epoch.
func TestSnapshotReadersDoNotBlockWriters(t *testing.T) {
	s, _ := New(NewMemBackend(), Options{PageSize: 256, CacheSize: 64, WAL: NewMemWAL()})
	id, _ := s.Allocate()
	var mu sync.Mutex // engine write lock
	commit := func(v byte) {
		mu.Lock()
		p, err := s.GetMut(id)
		if err != nil {
			mu.Unlock()
			t.Error(err)
			return
		}
		p.Data()[0] = v
		// Tag the page with the value so readers can check consistency.
		p.Data()[100] = v
		p.Release()
		seq, err := s.CommitAsync()
		mu.Unlock()
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.WaitDurable(seq); err != nil {
			t.Error(err)
		}
	}
	commit(1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 256)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Acquire at a committed boundary, as the engine does: under
				// the lock that serializes writers. A snapshot acquired
				// between GetMut and CommitAsync would read the frame the
				// writer is mutating.
				mu.Lock()
				snap, err := s.AcquireSnapshot()
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				if err := snap.ReadPage(id, buf); err != nil {
					t.Error(err)
					snap.Release()
					return
				}
				if buf[0] != buf[100] {
					t.Errorf("torn snapshot read: %d vs %d", buf[0], buf[100])
				}
				snap.Release()
			}
		}()
	}
	for v := byte(2); v < 60; v++ {
		commit(v)
	}
	close(stop)
	wg.Wait()
}
