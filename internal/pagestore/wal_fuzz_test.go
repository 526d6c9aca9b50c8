package pagestore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// walSeedLog runs the crash-matrix workload of wal_test.go — commits
// that allocate a page each and rewrite every earlier one — and returns
// the log.
func walSeedLog(tb testing.TB, commits int) []byte {
	tb.Helper()
	wal := NewMemWAL()
	s, err := New(NewMemBackend(), Options{PageSize: 256, CacheSize: 64, WAL: wal})
	if err != nil {
		tb.Fatal(err)
	}
	var ids []PageID
	write := func(id PageID, v byte) {
		p, err := s.GetMut(id)
		if err != nil {
			tb.Fatal(err)
		}
		p.Data()[7] = v
		p.Release()
	}
	for c := 1; c <= commits; c++ {
		id, err := s.Allocate()
		if err != nil {
			tb.Fatal(err)
		}
		ids = append(ids, id)
		for i, id := range ids {
			write(id, byte(c*16+i))
		}
		if err := s.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	return append([]byte(nil), wal.Bytes()...)
}

// FuzzWALReplay replays arbitrary bytes as a MemWAL. Replay must never
// panic, and it may apply a page image only when a valid commit record
// closes the image's batch. A log that does not end on a commit record
// reports Torn or an error.
func FuzzWALReplay(f *testing.F) {
	full := walSeedLog(f, 4)
	for _, seed := range [][]byte{
		full, full[:len(full)/2], full[:len(full)-1],
		appendPageRecord(walSeedLog(f, 1), 1, make([]byte, 256)), // an image with no commit
		appendCommitRecord(nil), {},
	} {
		f.Add(seed)
	}
	commit := appendCommitRecord(nil)
	const pageSize = 256
	f.Fuzz(func(t *testing.T, log []byte) {
		log = log[:len(log):len(log)] // cap == len: an image's offset is cap arithmetic
		w := NewMemWAL()
		w.SetBytes(log)
		var starts, ends []int // record bounds of each applied image
		rs, err := w.Replay(pageSize, func(id PageID, data []byte) error {
			at := len(log) - cap(data)
			start, end := at-9, at+len(data)+4
			if start < 0 || end > len(log) || len(data) != pageSize {
				t.Fatalf("applied image at %d..%d of a %d-byte log", start, end, len(log))
			}
			rec := log[start:end]
			if rec[0] != recPage || PageID(binary.LittleEndian.Uint32(rec[1:5])) != id ||
				crc32.ChecksumIEEE(rec[:len(rec)-4]) != binary.LittleEndian.Uint32(rec[len(rec)-4:]) {
				t.Fatalf("applied a malformed page record at %d", start)
			}
			starts, ends = append(starts, start), append(ends, end)
			return nil
		})
		if rs.Pages != len(ends) {
			t.Fatalf("RecoveryStats.Pages = %d, applied %d", rs.Pages, len(ends))
		}
		// Each applied image is followed by the next applied image of its
		// batch or by the commit record that closes the batch.
		for i, end := range ends {
			next := i+1 < len(starts) && starts[i+1] == end
			if !next && !bytes.HasPrefix(log[end:], commit) {
				t.Fatalf("image record ending at %d applied without a commit record behind it", end)
			}
		}
		if err == nil && !rs.Torn && len(log) > 0 && !bytes.HasSuffix(log, commit) {
			t.Fatalf("a log not ending on a commit record replayed clean: %+v", rs)
		}
	})
}
