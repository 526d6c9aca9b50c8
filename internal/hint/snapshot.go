package hint

// Snapshot (de)serialization of the optimized flat layout — the on-disk
// form of HINT's §4.4 cache-conscious storage. A snapshot captures every
// shard's flat arrays (per-level, per-class entry arrays with their
// partition count tables), the geometry (bits, m, shard count, domain
// offset), and a stamp of the base table it was built from (row count +
// content checksum), so attach can decide between loading it wholesale,
// replaying a heap tail on top, or discarding it.
//
// The format is deliberately dumb: fixed-width little-endian fields, a
// sparse (partition, count) table per class, raw (lo, hi, id) triples,
// and a trailing CRC32 over everything. Decoding reconstructs the flat
// arrays directly — off tables are prefix sums of the counts, the
// nonempty bitmaps are recomputed from them — so a load is one sequential
// parse with no per-entry classification, sorting, or partition routing.
// Any framing violation (magic, version, length, CRC, inconsistent
// counts) returns an error; the caller falls back to a full rebuild.
//
//	header:
//	  magic   u32  "HSNP"
//	  version u16  (1)
//	  flags   u16  (bit 0: narrow entries; others reserved)
//	  bits    u32
//	  levels  u32  (m)
//	  shards  u32
//	  off     i64  (domain offset of the owning indextype)
//	  rows    i64  (base-table row count at persist time)
//	  chk     u64  (base-table content checksum at persist time)
//	per shard:
//	  count, entries, replicas  i64
//	  per level l in [0, m], per class c in [oIn, oAft, rIn, rAft]:
//	    total u32            entries of this level+class
//	    if total > 0:
//	      nparts u32         nonempty partitions
//	      nparts × (idx u32, cnt u32)   ascending by idx
//	      total × (lo, hi, id)   in partition order; i64 each, or u32
//	                             each when the narrow flag is set
//	trailer:
//	  crc32 u32  (IEEE, over all preceding bytes)
//
// The narrow flag fires when every stored coordinate and row id across
// all shards fits in an unsigned 32-bit value — the common case, since
// keys are non-negative domain coordinates and ids are heap rids. It
// halves the entry payload (12 bytes instead of 24), which matters
// because attach cost is dominated by reading and parsing entries.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	snapMagic      = uint32(0x504e5348) // "HSNP"
	snapVersion    = uint16(1)
	snapFlagNarrow = uint16(1) // entries stored as u32 triples
)

// snapshotInfo is the decoded header: geometry plus the base-table stamp.
type snapshotInfo struct {
	bits, m, shards int
	off             int64
	tableRows       int64
	tableChk        uint64
}

// encodeSnapshot serializes s (offset off, built over a base table with
// the given row count and content checksum). It returns ok == false when
// any shard holds overlay entries or lacks flat storage — callers should
// Optimize first; a shard left in overlay form by the int32-overflow
// guard is not representable and simply isn't persisted.
func encodeSnapshot(s *Sharded, off int64, tableRows int64, tableChk uint64) (data []byte, ok bool) {
	gens := s.gens()
	for _, x := range gens {
		if x.flat == nil || x.overlay != 0 {
			return nil, false
		}
	}
	narrow := narrowFits(gens)
	flags := uint16(0)
	if narrow {
		flags |= snapFlagNarrow
	}
	b := make([]byte, 0, 1<<20)
	b = binary.LittleEndian.AppendUint32(b, snapMagic)
	b = binary.LittleEndian.AppendUint16(b, snapVersion)
	b = binary.LittleEndian.AppendUint16(b, flags)
	x0 := gens[0]
	b = binary.LittleEndian.AppendUint32(b, uint32(x0.bits))
	b = binary.LittleEndian.AppendUint32(b, uint32(x0.m))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(gens)))
	b = binary.LittleEndian.AppendUint64(b, uint64(off))
	b = binary.LittleEndian.AppendUint64(b, uint64(tableRows))
	b = binary.LittleEndian.AppendUint64(b, tableChk)
	for _, x := range gens {
		b = binary.LittleEndian.AppendUint64(b, uint64(x.count))
		b = binary.LittleEndian.AppendUint64(b, uint64(x.entries))
		b = binary.LittleEndian.AppendUint64(b, uint64(x.replicas))
		for l := 0; l <= x.m; l++ {
			for c := 0; c < numSubs; c++ {
				b = appendFlatSub(b, &x.flat[l].subs[c], narrow)
			}
		}
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return b, true
}

// narrowFits reports whether every live entry across all shards can be
// stored as three unsigned 32-bit values.
func narrowFits(gens []*Index) bool {
	const maxU32 = int64(1)<<32 - 1
	for _, x := range gens {
		for l := 0; l <= x.m; l++ {
			for c := 0; c < numSubs; c++ {
				fs := &x.flat[l].subs[c]
				for i := range fs.cnt {
					for _, e := range fs.seg(int64(i)) {
						if e.lo < 0 || e.lo > maxU32 ||
							e.hi < 0 || e.hi > maxU32 ||
							e.id < 0 || e.id > maxU32 {
							return false
						}
					}
				}
			}
		}
	}
	return true
}

// appendFlatSub serializes one level+class: the sparse count table
// followed by the live entries in partition order. Deletions leave dead
// capacity inside ents, so segments are emitted via seg (live prefixes),
// not the raw array.
func appendFlatSub(b []byte, fs *flatSub, narrow bool) []byte {
	var total, nparts uint32
	for i := range fs.cnt {
		if fs.cnt[i] > 0 {
			total += uint32(fs.cnt[i])
			nparts++
		}
	}
	b = binary.LittleEndian.AppendUint32(b, total)
	if total == 0 {
		return b
	}
	b = binary.LittleEndian.AppendUint32(b, nparts)
	for i := range fs.cnt {
		if fs.cnt[i] > 0 {
			b = binary.LittleEndian.AppendUint32(b, uint32(i))
			b = binary.LittleEndian.AppendUint32(b, uint32(fs.cnt[i]))
		}
	}
	if narrow {
		for i := range fs.cnt {
			for _, e := range fs.seg(int64(i)) {
				b = binary.LittleEndian.AppendUint32(b, uint32(e.lo))
				b = binary.LittleEndian.AppendUint32(b, uint32(e.hi))
				b = binary.LittleEndian.AppendUint32(b, uint32(e.id))
			}
		}
	} else {
		for i := range fs.cnt {
			for _, e := range fs.seg(int64(i)) {
				b = binary.LittleEndian.AppendUint64(b, uint64(e.lo))
				b = binary.LittleEndian.AppendUint64(b, uint64(e.hi))
				b = binary.LittleEndian.AppendUint64(b, uint64(e.id))
			}
		}
	}
	return b
}

// snapReader is a bounds-checked little-endian cursor over the payload.
type snapReader struct {
	b   []byte
	pos int
	err error
}

func (r *snapReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.pos+4 > len(r.b) {
		r.err = fmt.Errorf("hint: snapshot truncated at byte %d", r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v
}

func (r *snapReader) u16() uint16 {
	if r.err != nil {
		return 0
	}
	if r.pos+2 > len(r.b) {
		r.err = fmt.Errorf("hint: snapshot truncated at byte %d", r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.pos:])
	r.pos += 2
	return v
}

func (r *snapReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.b) {
		r.err = fmt.Errorf("hint: snapshot truncated at byte %d", r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v
}

func (r *snapReader) i64() int64 { return int64(r.u64()) }

// decodeSnapshot validates data and reconstructs the sharded index it
// describes. Every structural defect — short payload, bad magic, unknown
// version, CRC mismatch, inconsistent counts — is an error; the caller
// treats any error as "no usable snapshot" and rebuilds.
func decodeSnapshot(data []byte) (*Sharded, snapshotInfo, error) {
	var info snapshotInfo
	if len(data) < 4 {
		return nil, info, fmt.Errorf("hint: snapshot too short (%d bytes)", len(data))
	}
	payload, trailer := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != trailer {
		return nil, info, fmt.Errorf("hint: snapshot CRC mismatch")
	}
	r := &snapReader{b: payload}
	if m := r.u32(); m != snapMagic {
		return nil, info, fmt.Errorf("hint: bad snapshot magic %#x", m)
	}
	if v := r.u16(); v != snapVersion {
		return nil, info, fmt.Errorf("hint: unsupported snapshot version %d", v)
	}
	flags := r.u16()
	if flags&^snapFlagNarrow != 0 {
		return nil, info, fmt.Errorf("hint: unsupported snapshot flags %#x", flags)
	}
	narrow := flags&snapFlagNarrow != 0
	info.bits = int(r.u32())
	info.m = int(r.u32())
	info.shards = int(r.u32())
	info.off = r.i64()
	info.tableRows = r.i64()
	info.tableChk = r.u64()
	if r.err != nil {
		return nil, info, r.err
	}
	if info.bits < 1 || info.bits > maxBits || info.m < 1 || info.m > info.bits ||
		info.m > maxLevels || info.shards < 1 || info.shards > 1024 {
		return nil, info, fmt.Errorf("hint: snapshot geometry out of range (bits=%d m=%d shards=%d)",
			info.bits, info.m, info.shards)
	}
	var tasks []entTask
	sds := make([]shardDecode, info.shards)
	for si := range sds {
		sd, err := decodeShard(r, info.m, narrow, &tasks)
		if err != nil {
			return nil, info, err
		}
		sds[si] = sd
	}
	if r.err != nil {
		return nil, info, r.err
	}
	if r.pos != len(payload) {
		return nil, info, fmt.Errorf("hint: snapshot has %d trailing bytes", len(payload)-r.pos)
	}
	// Every byte of framing is validated by now, so the entry arrays —
	// the bulk of the payload — convert outside the cursor walk: each
	// task owns one class's array, independent of all others. All arrays
	// carve out of one arena (one large allocation is served by fresh
	// zeroed pages, where many medium ones would each pay a clear), with
	// capacities clamped so no later append can cross into a neighbor.
	var grand int64
	for _, t := range tasks {
		grand += t.total
	}
	arena := make([]entry, grand)
	for i := range tasks {
		n := tasks[i].total
		tasks[i].dst = arena[:n:n]
		arena = arena[n:]
	}
	runTasks(tasks, narrow)
	// Only now, with the whole payload validated, does each shard allocate
	// its eager partition-pointer tables: a damaged blob costs its walk.
	gens := make([]*Index, len(sds))
	for i, sd := range sds {
		x, err := New(Options{Bits: info.bits, Levels: info.m})
		if err != nil {
			return nil, info, err
		}
		x.installFlat(sd.flat, sd.count, sd.entries, sd.replicas)
		gens[i] = x
	}
	return newShardedFromGens(gens), info, nil
}

// entTask defers one class's entry-array conversion: src holds the raw
// triples, validated and sliced out of the payload by the framing walk,
// and dst is the class's pre-carved arena region.
type entTask struct {
	fs    *flatSub
	src   []byte
	dst   []entry
	total int64
}

func (t entTask) run(narrow bool) {
	ents, s := t.dst, t.src
	if narrow {
		for i := range ents {
			ents[i] = entry{
				lo: int64(binary.LittleEndian.Uint32(s)),
				hi: int64(binary.LittleEndian.Uint32(s[4:])),
				id: int64(binary.LittleEndian.Uint32(s[8:])),
			}
			s = s[12:]
		}
	} else {
		for i := range ents {
			ents[i] = entry{
				lo: int64(binary.LittleEndian.Uint64(s)),
				hi: int64(binary.LittleEndian.Uint64(s[8:])),
				id: int64(binary.LittleEndian.Uint64(s[16:])),
			}
			s = s[24:]
		}
	}
	t.fs.ents = ents
}

// runTasks converts the deferred entry arrays, fanning out over the CPUs
// for snapshots big enough to care.
func runTasks(tasks []entTask, narrow bool) {
	nw := runtime.GOMAXPROCS(0)
	if nw > len(tasks) {
		nw = len(tasks)
	}
	if nw <= 1 {
		for _, t := range tasks {
			t.run(narrow)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				tasks[i].run(narrow)
			}
		}()
	}
	wg.Wait()
}

// shardDecode is one walked-but-not-yet-installed shard: its entry
// arrays fill in parallel after the whole payload validates, and only
// then does installFlat publish the flat form.
type shardDecode struct {
	flat                     []flatLevel
	count, entries, replicas int64
}

// decodeShard walks one shard's serialized form, validating all framing
// and deferring the entry-array conversion into tasks.
func decodeShard(r *snapReader, m int, narrow bool, tasks *[]entTask) (shardDecode, error) {
	var sd shardDecode
	count, entries, replicas := r.i64(), r.i64(), r.i64()
	flat := make([]flatLevel, m+1)
	var stored int64
	for l := 0; l <= m; l++ {
		P := int64(1) << uint(l)
		for c := 0; c < numSubs; c++ {
			n, err := decodeFlatSub(r, &flat[l].subs[c], P, narrow, tasks)
			if err != nil {
				return sd, err
			}
			stored += n
		}
	}
	if r.err != nil {
		return sd, r.err
	}
	if stored != entries || count < 0 || replicas < 0 || replicas > entries {
		return sd, fmt.Errorf("hint: snapshot shard counters inconsistent (stored=%d entries=%d count=%d replicas=%d)",
			stored, entries, count, replicas)
	}
	return shardDecode{flat: flat, count: count, entries: entries, replicas: replicas}, nil
}

// decodeFlatSub reconstructs one level+class, rebuilding the offset table
// as the prefix sums of the sparse counts and registering the entry array
// for deferred conversion. Returns the entry count.
func decodeFlatSub(r *snapReader, fs *flatSub, P int64, narrow bool, tasks *[]entTask) (int64, error) {
	total := int64(r.u32())
	if total == 0 || r.err != nil {
		return 0, r.err
	}
	nparts := int64(r.u32())
	if r.err != nil {
		return 0, r.err
	}
	if nparts < 1 || nparts > P || nparts > total {
		return 0, fmt.Errorf("hint: snapshot class has %d nonempty partitions of %d", nparts, P)
	}
	if 8*nparts > int64(len(r.b)-r.pos) { // each table entry is 8 bytes
		r.err = fmt.Errorf("hint: snapshot truncated in partition table")
		return 0, r.err
	}
	fs.off = make([]int32, P+1)
	fs.cnt = make([]int32, P)
	prev := int64(-1)
	var running int64
	type pc struct{ idx, n int64 }
	pcs := make([]pc, nparts)
	for j := range pcs {
		idx, n := int64(r.u32()), int64(r.u32())
		if r.err != nil {
			return 0, r.err
		}
		if idx <= prev || idx >= P || n < 1 {
			return 0, fmt.Errorf("hint: snapshot partition table corrupt (idx=%d cnt=%d)", idx, n)
		}
		prev = idx
		running += n
		pcs[j] = pc{idx, n}
	}
	if running != total {
		return 0, fmt.Errorf("hint: snapshot partition counts sum to %d, want %d", running, total)
	}
	pi, off := int64(0), int64(0)
	for _, p := range pcs {
		for ; pi <= p.idx; pi++ {
			fs.off[pi] = int32(off)
		}
		fs.cnt[p.idx] = int32(p.n)
		off += p.n
	}
	for ; pi <= P; pi++ {
		fs.off[pi] = int32(off)
	}
	// Entry arrays dominate the payload, so they bypass the cursor: one
	// bounds check admits the whole array, and the conversion itself is
	// deferred so all arrays fill in parallel once framing validates.
	width := 24
	if narrow {
		width = 12
	}
	need := int(total) * width
	if r.pos+need > len(r.b) {
		r.err = fmt.Errorf("hint: snapshot truncated in entry array")
		return 0, r.err
	}
	*tasks = append(*tasks, entTask{fs: fs, src: r.b[r.pos : r.pos+need], total: total})
	r.pos += need
	return total, nil
}
