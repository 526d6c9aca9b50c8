package hint

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ritree/internal/interval"
	"ritree/internal/obs"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	"ritree/internal/sqldb"
)

// --- format-level round trip ---

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shards := range []int{1, 4} {
		s, err := NewSharded(Options{Bits: 12, Levels: 6, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		n := 5000
		ivs := make([]interval.Interval, n)
		ids := make([]int64, n)
		for i := range ivs {
			lo := rng.Int63n(3000)
			ivs[i] = interval.New(lo, lo+rng.Int63n(200))
			ids[i] = int64(i)
		}
		if err := s.BulkLoad(ivs, ids); err != nil {
			t.Fatal(err)
		}
		// A few deletes so the flat arrays carry dead capacity (seg != ents).
		for i := 0; i < 100; i++ {
			if ok, err := s.Delete(ivs[i], ids[i]); err != nil || !ok {
				t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
			}
		}
		data, ok := encodeSnapshot(s, -37, 4900, 0xabcdef)
		if !ok {
			t.Fatal("encodeSnapshot refused an optimized index")
		}
		got, info, err := decodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		if info.bits != 12 || info.m != 6 || info.shards != shards ||
			info.off != -37 || info.tableRows != 4900 || info.tableChk != 0xabcdef {
			t.Fatalf("info = %+v", info)
		}
		if got.Count() != s.Count() || got.Entries() != s.Entries() || got.Replicas() != s.Replicas() {
			t.Fatalf("counters: got (%d,%d,%d), want (%d,%d,%d)",
				got.Count(), got.Entries(), got.Replicas(), s.Count(), s.Entries(), s.Replicas())
		}
		for trial := 0; trial < 50; trial++ {
			qlo := rng.Int63n(3200)
			q := interval.New(qlo, qlo+rng.Int63n(300))
			a, err1 := s.Intersecting(q)
			b, err2 := got.Intersecting(q)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("shards=%d query %v: original %d ids, decoded %d ids", shards, q, len(a), len(b))
			}
		}
	}
}

func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	s, _ := NewSharded(Options{Bits: 10, Levels: 5, Shards: 2})
	ivs := []interval.Interval{interval.New(1, 5), interval.New(100, 300), interval.New(2, 900)}
	if err := s.BulkLoad(ivs, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	data, ok := encodeSnapshot(s, 0, 3, 42)
	if !ok {
		t.Fatal("encode refused")
	}
	if _, _, err := decodeSnapshot(data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	// Every single-byte flip must be caught by the CRC.
	for _, pos := range []int{0, 5, len(data) / 2, len(data) - 5} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x40
		if _, _, err := decodeSnapshot(bad); err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
	// Truncations at any point must be rejected too.
	for _, cut := range []int{0, 3, 10, len(data) / 2, len(data) - 1} {
		if _, _, err := decodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

// --- indextype-level attach paths ---

// snapEnv is one engine session over a shared relational database, with
// its own metrics registry.
type snapEnv struct {
	e   *sqldb.Engine
	reg *obs.Registry
}

func newSnapDB(t *testing.T) *rel.DB {
	t.Helper()
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 512})
	db, err := rel.CreateDB(st)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func newSnapEnv(t *testing.T, db *rel.DB, attach bool) *snapEnv {
	t.Helper()
	e := sqldb.NewEngine(db)
	RegisterIndexType(e)
	RegisterShardedIndexType(e, 4)
	reg := obs.NewRegistry()
	e.SetMetricsRegistry(reg)
	if attach {
		if err := e.AttachCatalogIndexes(); err != nil {
			t.Fatal(err)
		}
	}
	return &snapEnv{e: e, reg: reg}
}

func (v *snapEnv) insertRange(t *testing.T, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		v.e.MustExec("INSERT INTO ev VALUES (:lo, :hi, :id)",
			map[string]interface{}{"lo": i * 3, "hi": i*3 + 10, "id": i})
	}
}

func (v *snapEnv) queryIDs(t *testing.T, lo, hi int) []interface{} {
	t.Helper()
	r := v.e.MustExec("SELECT id FROM ev WHERE intersects(lo, hi, :a, :b) ORDER BY id",
		map[string]interface{}{"a": lo, "b": hi})
	ids := make([]interface{}, len(r.Rows))
	for i, row := range r.Rows {
		ids[i] = row[0]
	}
	return ids
}

// parity asserts that got answers the same queries as a snapshot-free
// rebuild session over the same database.
func snapParity(t *testing.T, db *rel.DB, got *snapEnv) {
	t.Helper()
	ref := sqldb.NewEngine(db)
	RegisterIndexType(ref)
	RegisterShardedIndexType(ref, 4)
	ref.SetIndexSnapshotsEnabled(false)
	if err := ref.AttachCatalogIndexes(); err != nil {
		t.Fatal(err)
	}
	refEnv := &snapEnv{e: ref}
	for _, q := range [][2]int{{0, 50}, {100, 130}, {0, 100000}, {299, 299}, {-50, -1}} {
		want := refEnv.queryIDs(t, q[0], q[1])
		have := got.queryIDs(t, q[0], q[1])
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("query [%d,%d]: snapshot path %v, rebuild path %v", q[0], q[1], have, want)
		}
	}
}

func snapIndexSQL(method string) string {
	return "CREATE INDEX ev_iv ON ev (lo, hi) INDEXTYPE IS " + method
}

func TestSnapshotAttachServesQueries(t *testing.T) {
	for _, method := range []string{IndexTypeName, ShardedIndexTypeName} {
		t.Run(method, func(t *testing.T) {
			db := newSnapDB(t)
			a := newSnapEnv(t, db, false)
			a.e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
			a.e.MustExec(snapIndexSQL(method), nil)
			a.insertRange(t, 0, 400)
			if err := a.e.PersistIndexSnapshots(); err != nil {
				t.Fatal(err)
			}
			if c := a.reg.Snapshot().Counter("index.ev_iv.snapshot.persists"); c != 1 {
				t.Fatalf("persists = %d, want 1", c)
			}

			b := newSnapEnv(t, db, true)
			m := b.reg.Snapshot()
			if c := m.Counter("index.ev_iv.snapshot.loads"); c != 1 {
				t.Fatalf("loads = %d, want 1 (counters: %v)", c, m.CounterNames())
			}
			if c := m.Counter("index.ev_iv.snapshot.rebuild_fallbacks"); c != 0 {
				t.Fatalf("rebuild_fallbacks = %d, want 0", c)
			}
			if c := m.Counter("index.ev_iv.snapshot.tail_rows"); c != 0 {
				t.Fatalf("tail_rows = %d, want 0", c)
			}
			if m.Counter("index.ev_iv.snapshot.bytes") == 0 {
				t.Fatal("snapshot.bytes = 0 after a load")
			}
			snapParity(t, db, b)
		})
	}
}

func TestSnapshotStaleTailReplay(t *testing.T) {
	for _, method := range []string{IndexTypeName, ShardedIndexTypeName} {
		t.Run(method, func(t *testing.T) {
			db := newSnapDB(t)
			a := newSnapEnv(t, db, false)
			a.e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
			a.e.MustExec(snapIndexSQL(method), nil)
			a.insertRange(t, 0, 300)
			if err := a.e.PersistIndexSnapshots(); err != nil {
				t.Fatal(err)
			}
			// Rows written after the snapshot live only in the heap: the next
			// attach must replay them on top of the loaded snapshot.
			a.insertRange(t, 300, 380)

			b := newSnapEnv(t, db, true)
			m := b.reg.Snapshot()
			if c := m.Counter("index.ev_iv.snapshot.loads"); c != 1 {
				t.Fatalf("loads = %d, want 1", c)
			}
			if c := m.Counter("index.ev_iv.snapshot.tail_rows"); c != 80 {
				t.Fatalf("tail_rows = %d, want 80", c)
			}
			snapParity(t, db, b)

			// The tail rows must actually be served.
			got := b.queryIDs(t, 350*3, 350*3)
			if len(got) == 0 {
				t.Fatal("tail row not visible through the snapshot attach")
			}
		})
	}
}

func TestSnapshotDeletedRowForcesRebuild(t *testing.T) {
	for _, method := range []string{IndexTypeName, ShardedIndexTypeName} {
		t.Run(method, func(t *testing.T) {
			db := newSnapDB(t)
			a := newSnapEnv(t, db, false)
			a.e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
			a.e.MustExec(snapIndexSQL(method), nil)
			a.insertRange(t, 0, 200)
			if err := a.e.PersistIndexSnapshots(); err != nil {
				t.Fatal(err)
			}
			// Deleting a snapshotted row cannot be replayed (the snapshot
			// holds its replicas); the attach must fall back to a rebuild —
			// and still answer correctly.
			a.e.MustExec("DELETE FROM ev WHERE id = 50", nil)
			a.insertRange(t, 200, 210)

			b := newSnapEnv(t, db, true)
			m := b.reg.Snapshot()
			if c := m.Counter("index.ev_iv.snapshot.rebuild_fallbacks"); c != 1 {
				t.Fatalf("rebuild_fallbacks = %d, want 1", c)
			}
			if c := m.Counter("index.ev_iv.snapshot.loads"); c != 0 {
				t.Fatalf("loads = %d, want 0", c)
			}
			if got := b.queryIDs(t, 150, 150); len(got) != 0 {
				// id 50 covered [150, 160]; nothing else covers 150 except
				// neighbours — just assert the deleted id is absent.
				for _, id := range got {
					if id == int64(50) {
						t.Fatal("deleted row served after snapshot attach")
					}
				}
			}
			snapParity(t, db, b)
		})
	}
}

func TestSnapshotCorruptionFallsBack(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"bitflip":  func(d []byte) []byte { d = append([]byte(nil), d...); d[len(d)/2] ^= 0x01; return d },
		"truncate": func(d []byte) []byte { return d[:len(d)/3] },
		"empty":    func(d []byte) []byte { return nil },
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			db := newSnapDB(t)
			a := newSnapEnv(t, db, false)
			a.e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
			a.e.MustExec(snapIndexSQL(IndexTypeName), nil)
			a.insertRange(t, 0, 250)
			if err := a.e.PersistIndexSnapshots(); err != nil {
				t.Fatal(err)
			}
			data, found, err := db.GetBlob("hintsnap.ev_iv")
			if err != nil || !found {
				t.Fatalf("snapshot blob missing: found=%v err=%v", found, err)
			}
			if err := db.PutBlob("hintsnap.ev_iv", hurt(data)); err != nil {
				t.Fatal(err)
			}

			b := newSnapEnv(t, db, true)
			m := b.reg.Snapshot()
			if c := m.Counter("index.ev_iv.snapshot.rebuild_fallbacks"); c != 1 {
				t.Fatalf("rebuild_fallbacks = %d, want 1", c)
			}
			if c := m.Counter("index.ev_iv.snapshot.loads"); c != 0 {
				t.Fatalf("loads = %d, want 0", c)
			}
			snapParity(t, db, b)
		})
	}
}

func TestSnapshotGeometryMismatchFallsBack(t *testing.T) {
	// A snapshot persisted under one shard fan-out must not be adopted by
	// a session whose indextype was registered with a different one.
	db := newSnapDB(t)
	a := newSnapEnv(t, db, false) // hint_sharded registered with 4 shards
	a.e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
	a.e.MustExec(snapIndexSQL(ShardedIndexTypeName), nil)
	a.insertRange(t, 0, 100)
	if err := a.e.PersistIndexSnapshots(); err != nil {
		t.Fatal(err)
	}

	b := sqldb.NewEngine(db)
	RegisterIndexType(b)
	RegisterShardedIndexType(b, 2) // different fan-out
	reg := obs.NewRegistry()
	b.SetMetricsRegistry(reg)
	if err := b.AttachCatalogIndexes(); err != nil {
		t.Fatal(err)
	}
	m := reg.Snapshot()
	if c := m.Counter("index.ev_iv.snapshot.rebuild_fallbacks"); c != 1 {
		t.Fatalf("rebuild_fallbacks = %d, want 1", c)
	}
	snapParity(t, db, &snapEnv{e: b})
}

func TestSnapshotDisabledNeverTouchesBlobs(t *testing.T) {
	db := newSnapDB(t)
	a := newSnapEnv(t, db, false)
	a.e.SetIndexSnapshotsEnabled(false)
	a.e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
	a.e.MustExec(snapIndexSQL(IndexTypeName), nil)
	a.insertRange(t, 0, 50)
	if err := a.e.PersistIndexSnapshots(); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := db.GetBlob("hintsnap.ev_iv"); found {
		t.Fatal("disabled engine persisted a snapshot")
	}
	// And a disabled attach ignores one persisted by an enabled session.
	a.e.SetIndexSnapshotsEnabled(true)
	if err := a.e.PersistIndexSnapshots(); err != nil {
		t.Fatal(err)
	}
	b := sqldb.NewEngine(db)
	RegisterIndexType(b)
	RegisterShardedIndexType(b, 4)
	b.SetIndexSnapshotsEnabled(false)
	reg := obs.NewRegistry()
	b.SetMetricsRegistry(reg)
	if err := b.AttachCatalogIndexes(); err != nil {
		t.Fatal(err)
	}
	if c := reg.Snapshot().Counter("index.ev_iv.snapshot.loads"); c != 0 {
		t.Fatalf("disabled attach loaded a snapshot (loads = %d)", c)
	}
	snapParity(t, db, &snapEnv{e: b})
}

func TestSnapshotDropIndexRemovesBlob(t *testing.T) {
	db := newSnapDB(t)
	a := newSnapEnv(t, db, false)
	a.e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
	a.e.MustExec(snapIndexSQL(IndexTypeName), nil)
	a.insertRange(t, 0, 20)
	if err := a.e.PersistIndexSnapshots(); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := db.GetBlob("hintsnap.ev_iv"); !found {
		t.Fatal("persist wrote no blob")
	}
	a.e.MustExec("DROP INDEX ev_iv", nil)
	if _, found, _ := db.GetBlob("hintsnap.ev_iv"); found {
		t.Fatal("DROP INDEX left the snapshot blob behind")
	}
}

// TestSnapshotDamageAllocatesLittle: a blob whose checksum holds but
// whose framing is bogus is refused before any shard allocates the eager
// partition tables of the geometry it claims (2^23 pointers at m = 22).
func TestSnapshotDamageAllocatesLittle(t *testing.T) {
	s, _ := NewSharded(Options{Bits: 12, Levels: 10, Shards: 1})
	if err := s.BulkLoad([]interval.Interval{interval.New(1, 5)}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	data, ok := encodeSnapshot(s, 0, 1, 42)
	if !ok {
		t.Fatal("encode refused")
	}
	bad := append([]byte(nil), data[:len(data)-4]...)
	binary.LittleEndian.PutUint32(bad[8:], maxLevels)  // bits
	binary.LittleEndian.PutUint32(bad[12:], maxLevels) // m
	bad = binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := decodeSnapshot(bad)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 10-level shard decoded as a 22-level one")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("refusing it allocated %d bytes", n)
	}
}

// FuzzDecodeSnapshot feeds arbitrary blobs to the HSNP decoder: every
// defect must be an error, never a panic. Each input is decoded as given
// (the CRC turns away almost every mutation) and again with its CRC
// trailer recomputed, so the framing walk behind the checksum is fuzzed
// too. The second pass skips geometries over m = 16 or 8 shards: their
// eagerly allocated partition tables run to hundreds of MB, the real cost
// of such an index rather than a decoder defect.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, o := range []Options{{Bits: 10, Levels: 5, Shards: 2}, {Bits: 12, Levels: 6, Shards: 1}} {
		s, err := NewSharded(o)
		if err != nil {
			f.Fatal(err)
		}
		ivs := []interval.Interval{interval.New(1, 5), interval.New(100, 300), interval.New(2, 900), interval.New(7, 7)}
		if err := s.BulkLoad(ivs, []int64{1, 2, 3, 1 << 40}); err != nil {
			f.Fatal(err)
		}
		data, ok := encodeSnapshot(s, -3, int64(len(ivs)), 42)
		if !ok {
			f.Fatal("encodeSnapshot refused an optimized index")
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = decodeSnapshot(data)
		if len(data) < 24 {
			return
		}
		if m, shards := binary.LittleEndian.Uint32(data[12:]), binary.LittleEndian.Uint32(data[16:]); m > 16 || shards > 8 {
			return
		}
		fixed := append(data[:len(data)-4:len(data)-4], 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(fixed[len(fixed)-4:], crc32.ChecksumIEEE(fixed[:len(fixed)-4]))
		_, _, _ = decodeSnapshot(fixed)
	})
}
