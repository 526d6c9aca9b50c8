package hint

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"ritree/internal/interval"
	"ritree/internal/obs"
	"ritree/internal/rel"
	"ritree/internal/sqldb"
)

// This file packages HINT as a user-defined indextype for the extensible
// indexing framework (RI-tree paper §5), exactly as internal/ritree does
// for the RI-tree: after
//
//	CREATE INDEX resv_iv ON Reservations (arrival, departure) INDEXTYPE IS hint
//
// the engine transparently maintains the main-memory HINT on every INSERT
// and DELETE against the base table and runs every interval operator
// (INTERSECTS, CONTAINS_POINT, ALLEN_*) as a HINT intersection scan.
//
// Where the core Index fixes its domain up front, the indextype adapts it
// to the table: column values are mapped into the index through an offset
// and a domain width sized to the data (so negative bounds and values far
// beyond the paper's [0, 2^20-1] data space — timestamps, say — work
// transparently), and when a new row falls outside the current geometry
// the in-memory index is rebuilt from the base table with a wider one.
// Unlike the RI-tree's hidden relations, HINT's storage lives outside the
// page store — it is a main-memory access method — so a session over a
// reopened database re-attaches it by adopting the snapshot the last
// Persist wrote (see snapshot.go) and replaying the heap tail written
// since; only a missing or doubtful snapshot falls back to rebuilding
// from the base table. Custom-index definitions persist in the relational
// catalog, so sqldb.Engine.AttachCatalogIndexes does that on reopen.

// IndexTypeName is the name used in INDEXTYPE IS clauses.
const IndexTypeName = "hint"

// ShardedIndexTypeName is the indextype name of the sharded HINT variant:
// the same access method behind N independently locked shards with
// parallel per-shard query fan-out — the configuration for concurrent
// serving under the unified collection API.
const ShardedIndexTypeName = "hint_sharded"

// DefaultIndexShards is the shard count of hint_sharded when the caller
// passes none: enough to spread writer contention and parallelize query
// fan-out without taxing small queries on modest machines.
func DefaultIndexShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 2 {
		n = 2
	}
	return n
}

// maxAbsBound bounds the interval starts the indextype can place exactly:
// |lower| <= 2^59. Upper bounds beyond it (including interval.Infinity)
// saturate — they lie past every admissible start, so their exact
// magnitude never matters to an intersection test. The lone exception is
// interval.NowMarker, whose meaning is not a magnitude at all: it is
// rejected (see checkRow) because HINT has no §4.6 now-relative
// evaluation and treating it as infinite would silently diverge from the
// ritree indextype on the same table.
const maxAbsBound = int64(1) << 59

// RegisterIndexType makes "INDEXTYPE IS hint" available on the engine.
func RegisterIndexType(e *sqldb.Engine) {
	e.RegisterIndexType(IndexTypeName, handler{shards: 1})
}

// RegisterShardedIndexType makes "INDEXTYPE IS hint_sharded" available on
// the engine: HINT split into shards independently locked shards with
// parallel per-shard query fan-out. shards <= 0 picks
// DefaultIndexShards().
func RegisterShardedIndexType(e *sqldb.Engine, shards int) {
	if shards <= 0 {
		shards = DefaultIndexShards()
	}
	e.RegisterIndexType(ShardedIndexTypeName, handler{shards: shards})
}

// handler implements sqldb.IndexType for hint and hint_sharded. Create
// and Attach share one implementation: both adopt a trustworthy snapshot
// when there is one (a fresh CREATE INDEX finds none) and otherwise build
// the index by scanning the base table.
type handler struct{ shards int }

func (h handler) Create(e *sqldb.Engine, indexName, table string, cols []string, params map[string]string) (sqldb.Index, error) {
	return newIndexType(e, indexName, table, cols, h.shards, params)
}

func (h handler) Attach(e *sqldb.Engine, indexName, table string, cols []string, params map[string]string) (sqldb.Index, error) {
	return h.Create(e, indexName, table, cols, params)
}

// DropStorage releases the only persisted storage, the snapshot blob
// (DeleteBlob tolerates a missing one).
func (handler) DropStorage(e *sqldb.Engine, indexName, _ string, _ []string) error {
	return e.DB().DeleteBlob(snapshotBlobName(indexName))
}

// snapshotBlobName is the rel blob key under which an index's persisted
// snapshot lives (index names are folded like the engine folds
// identifiers).
func snapshotBlobName(indexName string) string {
	return "hintsnap." + strings.ToLower(indexName)
}

// hintParams are the tunable knobs of the hint / hint_sharded
// indextypes, set per index (per collection) through the SQL PARAMETERS
// / WITH clause or the public WithMethodParam collection option, and
// persisted in the catalog so a reopened database rebuilds with the same
// configuration.
type hintParams struct {
	minBits int // lower bound on the domain width (0: size to the data)
	levels  int // m, the hierarchy depth (0: DefaultLevels)
	shards  int // shard count override (0: the indextype's default)
}

// parseHintParams validates the parameter map. Unknown keys are errors:
// a silently ignored typo would build an index with the wrong geometry.
func parseHintParams(params map[string]string) (hintParams, error) {
	var hp hintParams
	intIn := func(key, v string, lo, hi int) (int, error) {
		n, err := strconv.Atoi(v)
		if err != nil || n < lo || n > hi {
			return 0, fmt.Errorf("hint indextype: parameter %s must be an integer in [%d, %d], got %q", key, lo, hi, v)
		}
		return n, nil
	}
	var err error
	for k, v := range params {
		switch k {
		case "bits":
			hp.minBits, err = intIn(k, v, 1, maxBits)
		case "levels":
			hp.levels, err = intIn(k, v, 1, maxLevels)
		case "shards":
			hp.shards, err = intIn(k, v, 1, 1024)
		default:
			err = fmt.Errorf("hint indextype: unknown parameter %q (supported: bits, levels, shards)", k)
		}
		if err != nil {
			return hp, err
		}
	}
	return hp, nil
}

type indexType struct {
	name   string
	table  string
	cols   []string
	loPos  int
	hiPos  int
	shards int
	hp     hintParams
	tab    *rel.Table
	rdb    *rel.DB // owning database: snapshot blobs live here
	// mu protects the (off, ix) pair across trigger maintenance and
	// geometry rebuilds. Readers take it only long enough to freeze the
	// pair (see Reader) and then run lock-free over the Sharded index's
	// immutable generations — an open cursor never blocks a concurrent
	// insert or delete, not even a rebuild.
	mu  sync.RWMutex
	off int64 // indexed value = column value - off
	ix  *Sharded
	// Bound obs registry, remembered so geometry rebuilds (which replace
	// ix wholesale) re-attach the same counter family.
	reg       *obs.Registry
	regPrefix string
	// Snapshot-path accounting: snapMet holds the bound counters once
	// BindMetrics ran; snapPend accumulates events from before the binding
	// (attach happens first) and is flushed into the counters by it. Both
	// guarded by mu.
	snapMet  *snapMetrics
	snapPend snapTally
}

func newIndexType(e *sqldb.Engine, indexName, table string, cols []string, shards int, params map[string]string) (sqldb.Index, error) {
	if len(cols) != 2 {
		return nil, fmt.Errorf("hint indextype needs exactly (lower, upper) columns, got %d", len(cols))
	}
	hp, err := parseHintParams(params)
	if err != nil {
		return nil, err
	}
	if hp.shards > 0 {
		shards = hp.shards
	}
	tab, err := e.DB().Table(table)
	if err != nil {
		return nil, err
	}
	lo := tab.Schema().ColIndex(cols[0])
	hi := tab.Schema().ColIndex(cols[1])
	if lo < 0 || hi < 0 {
		return nil, fmt.Errorf("hint indextype: columns %v not in %s", cols, table)
	}
	ix := &indexType{
		name:   indexName,
		table:  table,
		cols:   append([]string(nil), cols...),
		loPos:  lo,
		hiPos:  hi,
		shards: shards,
		hp:     hp,
		tab:    tab,
		rdb:    e.DB(),
	}
	// The fast attach path: adopt a persisted snapshot (plus a heap-tail
	// replay when the table moved on) instead of rebuilding. Any doubt
	// about the snapshot falls through to the rebuild below — the
	// snapshot is an optimization, never an authority.
	if e.IndexSnapshotsEnabled() && ix.tryLoadSnapshot() {
		return ix, nil
	}
	// Backfill from existing rows, sizing the domain to the data.
	if err := ix.rebuild(); err != nil {
		return nil, err
	}
	return ix, nil
}

// geometry picks a domain offset and width covering [minLo, maxLo] with
// headroom on both sides, so ordinary growth does not force rebuilds.
// minBits raises the floor on the width (the per-collection "bits"
// parameter); 0 means the default.
func geometry(minLo, maxLo int64, minBits int) (off int64, bits int) {
	width := maxLo - minLo + 1 // >= 1; inputs are within ±2^59
	bits = DefaultBits
	if minBits > 0 {
		bits = minBits
	}
	for bits < maxBits && (int64(1)<<uint(bits))/4 < width {
		bits++
	}
	// A quarter of the domain below the smallest start, at least half
	// above the largest.
	off = minLo - (int64(1)<<uint(bits))/4
	return off, bits
}

// sat collapses the far tails where exact magnitudes cannot matter: every
// admissible interval start is within ±2^59, so any endpoint beyond that
// compares identically against all of them. The clamp keeps the later
// offset subtraction overflow-free and is monotone, so comparisons between
// stored ends and query bounds stay consistent.
func sat(v int64) int64 {
	if v > maxAbsBound {
		return maxAbsBound + 1
	}
	if v < -maxAbsBound {
		return -maxAbsBound - 1
	}
	return v
}

// shiftIv maps a row's (lower, upper) into the index's coordinate space.
// The lower must already be validated within ±2^59; the upper saturates.
func (x *indexType) shiftIv(lo, hi int64) interval.Interval {
	return interval.New(lo-x.off, sat(hi)-x.off)
}

func checkRow(lo, hi int64) error {
	if lo > hi {
		return fmt.Errorf("hint indextype: inverted interval [%d, %d]", lo, hi)
	}
	if lo < -maxAbsBound || lo > maxAbsBound {
		return fmt.Errorf("hint indextype: interval start %d outside the supported range ±2^59", lo)
	}
	if hi == interval.NowMarker {
		return fmt.Errorf("hint indextype: now-relative intervals (upper = now marker) are not supported; use the ritree indextype")
	}
	return nil
}

// fits reports whether a row's lower lands inside the current domain.
func (x *indexType) fits(lo int64) bool {
	s := lo - x.off
	return s >= 0 && s <= x.ix.DomainMax()
}

// rebuild re-derives the geometry from the base table and reloads the
// in-memory index into its optimized flat layout. Called at CREATE
// INDEX time, at attach time when no snapshot can be trusted, and
// whenever a new row falls outside the current domain; callers hold the
// write lock (or the index is not yet published).
func (x *indexType) rebuild() error {
	var lows, highs []int64
	var rids []rel.RowID
	minLo, maxLo := int64(0), int64(0)
	var scanErr error
	err := x.tab.Scan(func(rid rel.RowID, row []int64) bool {
		lo, hi := row[x.loPos], row[x.hiPos]
		if scanErr = checkRow(lo, hi); scanErr != nil {
			return false
		}
		if len(lows) == 0 || lo < minLo {
			minLo = lo
		}
		if len(lows) == 0 || lo > maxLo {
			maxLo = lo
		}
		lows = append(lows, lo)
		highs = append(highs, hi)
		rids = append(rids, rid)
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return err
	}
	off, bits := geometry(minLo, maxLo, x.hp.minBits)
	levels := DefaultLevels
	if x.hp.levels > 0 {
		levels = x.hp.levels
	}
	if levels > bits {
		levels = bits
	}
	ix, err := NewSharded(Options{Bits: bits, Levels: levels, Shards: x.shards})
	if err != nil {
		return err
	}
	// Load into the fresh index before publishing it, so a mid-load
	// failure leaves the live index untouched rather than half-filled.
	// BulkLoad leaves the index in its flat cache-conscious layout.
	shifted := make([]interval.Interval, len(lows))
	ridIDs := make([]int64, len(lows))
	for i := range lows {
		shifted[i] = interval.New(lows[i]-off, sat(highs[i])-off)
		ridIDs[i] = int64(rids[i])
	}
	if err := ix.BulkLoad(shifted, ridIDs); err != nil {
		return err
	}
	if x.reg != nil {
		ix.SetMetrics(x.reg, x.regPrefix)
	}
	x.off, x.ix = off, ix
	return nil
}

// snapAddLocked folds snapshot-path events into the bound counters, or
// into the pending tally when no registry is bound yet (attach runs
// before BindMetrics). Callers hold ix.mu or own the not-yet-published
// index.
func (ix *indexType) snapAddLocked(t snapTally) {
	if ix.snapMet != nil {
		ix.snapMet.add(t)
		return
	}
	ix.snapPend.merge(t)
}

// tryLoadSnapshot attempts the snapshot attach path: decode the persisted
// blob, validate it against the configuration and the base table's
// content stamp, and install it — replaying any heap tail written after
// the snapshot into the sorted overlay. It reports false (after counting
// a rebuild fallback, unless there simply was no snapshot) whenever the
// snapshot cannot be trusted; the caller then rebuilds from the heap.
func (ix *indexType) tryLoadSnapshot() bool {
	data, found, err := ix.rdb.GetBlob(snapshotBlobName(ix.name))
	if !found {
		return false // nothing persisted: a plain rebuild, not a fallback
	}
	if err != nil {
		ix.snapAddLocked(snapTally{fallbacks: 1})
		return false
	}
	s, info, err := decodeSnapshot(data)
	if err != nil {
		ix.snapAddLocked(snapTally{fallbacks: 1})
		return false
	}
	// The snapshot must describe the index this configuration would build:
	// same shard fan-out, same level override, and a domain at least as
	// wide as the bits floor demands. Its exact bits may differ from what
	// a fresh rebuild would pick (the data moved since) — that is fine as
	// long as every current row still fits, which the tail replay checks.
	levels := DefaultLevels
	if ix.hp.levels > 0 {
		levels = ix.hp.levels
	}
	if levels > info.bits {
		levels = info.bits
	}
	if info.shards != ix.shards || info.m != levels || (ix.hp.minBits > 0 && info.bits < ix.hp.minBits) {
		ix.snapAddLocked(snapTally{fallbacks: 1})
		return false
	}
	var tail int64
	if ix.tab.RowCount() != info.tableRows || ix.tab.ContentChecksum() != info.tableChk {
		if tail, err = ix.replayTail(s, info); err != nil {
			ix.snapAddLocked(snapTally{fallbacks: 1})
			return false
		}
	}
	ix.off, ix.ix = info.off, s
	if ix.reg != nil {
		s.SetMetrics(ix.reg, ix.regPrefix)
	}
	ix.snapAddLocked(snapTally{loads: 1, bytes: int64(len(data)), tailRows: tail})
	return true
}

// replayTail reconciles a stale snapshot with the current heap: every
// snapshotted interval must survive in the heap unmodified (verified by
// membership and by re-deriving the snapshot's content checksum from the
// surviving rows), and every other heap row is a tail insert replayed
// into the sorted overlay. Deletes or in-place changes of snapshotted
// rows cannot be reconciled — the snapshot holds replicas the stream
// cannot cheaply retract — so they error and force the full rebuild.
func (ix *indexType) replayTail(s *Sharded, info snapshotInfo) (int64, error) {
	type iv struct{ lo, hi int64 }
	snap := make(map[int64]iv, info.tableRows)
	s.ScanStartOrdered(func(lo, hi, id int64) bool {
		snap[id] = iv{lo, hi}
		return true
	})
	if int64(len(snap)) != info.tableRows {
		return 0, fmt.Errorf("hint: snapshot indexes %d rows, stamp says %d", len(snap), info.tableRows)
	}
	domMax := s.DomainMax()
	var newIvs []interval.Interval
	var newIDs []int64
	var seen int64
	var seenChk uint64
	var replayErr error
	err := ix.tab.Scan(func(rid rel.RowID, row []int64) bool {
		lo, hi := row[ix.loPos], row[ix.hiPos]
		if replayErr = checkRow(lo, hi); replayErr != nil {
			return false
		}
		shifted := lo - info.off
		if shifted < 0 || shifted > domMax {
			replayErr = fmt.Errorf("hint: tail row outside snapshot domain")
			return false
		}
		siv := interval.New(shifted, sat(hi)-info.off)
		if sv, in := snap[int64(rid)]; in {
			if sv.lo != siv.Lower || sv.hi != siv.Upper {
				replayErr = fmt.Errorf("hint: snapshotted row %d changed", rid)
				return false
			}
			seen++
			seenChk ^= rel.RowChecksum(row, rid)
			return true
		}
		newIvs = append(newIvs, siv)
		newIDs = append(newIDs, int64(rid))
		return true
	})
	if err == nil {
		err = replayErr
	}
	if err != nil {
		return 0, err
	}
	if seen != info.tableRows || seenChk != info.tableChk {
		return 0, fmt.Errorf("hint: snapshotted rows missing from heap (%d of %d survive)", seen, info.tableRows)
	}
	if len(newIDs) > 0 {
		if err := s.BulkInsert(newIvs, newIDs); err != nil {
			return 0, err
		}
	}
	return int64(len(newIDs)), nil
}

// Persist implements sqldb.Index: fold the overlay into the flat layout
// and write it as a rel blob, stamped with the base table's current row
// count and content checksum. An index whose layout is not representable
// (a level left in overlay form by the int32-overflow guard) deletes any
// existing snapshot instead — a stamp must never outlive the bytes it
// vouches for.
func (ix *indexType) Persist() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.ix.Optimize()
	data, ok := encodeSnapshot(ix.ix, ix.off, ix.tab.RowCount(), ix.tab.ContentChecksum())
	if !ok {
		return ix.rdb.DeleteBlob(snapshotBlobName(ix.name))
	}
	if err := ix.rdb.PutBlob(snapshotBlobName(ix.name), data); err != nil {
		return err
	}
	ix.snapAddLocked(snapTally{persists: 1, bytes: int64(len(data))})
	return nil
}

// BindMetrics implements sqldb.Index: the engine calls it with
// the DB's registry and an "index.<name>" prefix when the index is
// created or re-attached, wiring the HINT query-shape counters into the
// same family as the executor and page-store metrics. The binding
// survives geometry rebuilds. Snapshot events recorded before the binding
// (the attach itself) flush into the counters here.
func (ix *indexType) BindMetrics(reg *obs.Registry, prefix string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.reg, ix.regPrefix = reg, prefix
	ix.ix.SetMetrics(reg, prefix)
	if reg == nil {
		ix.snapMet = nil
		return
	}
	ix.snapMet = newSnapMetrics(reg, prefix)
	ix.snapMet.add(ix.snapPend)
	ix.snapPend = snapTally{}
}

// Name implements sqldb.Index.
func (ix *indexType) Name() string { return ix.name }

// Table implements sqldb.Index.
func (ix *indexType) Table() string { return ix.table }

// Columns implements sqldb.Index.
func (ix *indexType) Columns() []string { return append([]string(nil), ix.cols...) }

// HasOrdered implements sqldb.Index: the flat layout keeps every
// original-class segment sorted by start.
func (ix *indexType) HasOrdered() bool { return true }

// SetNow implements sqldb.Index: HINT keeps no §4.6 clock.
func (ix *indexType) SetNow(int64) error {
	return fmt.Errorf("hint indextype: no now-relative clock; use the ritree indextype")
}

// Apply implements sqldb.Index: index maintenance by trigger. The whole
// batch is validated before anything mutates, so a refused batch — a
// now-relative row, say — leaves the index untouched. Inserted rows
// outside the current domain trigger a rebuild with a wider geometry; the
// rebuild scans the base table, which already holds them, so nothing
// further is inserted in that case. Rows inside the domain go to the
// index's sorted overlay, one copy-on-write generation per touched shard
// for the whole batch. Once the overlay outgrows the flat storage the
// index is re-flattened, so sustained DML — single rows are batches of
// one — pays O(log n) compactions over the index's lifetime while queries
// keep scanning mostly flat memory, and a load that outgrows the flat
// storage ends flat.
func (ix *indexType) Apply(ins, del []sqldb.Entry) error {
	for _, en := range ins {
		if err := checkRow(en.Row[ix.loPos], en.Row[ix.hiPos]); err != nil {
			return err
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	fit := true
	for _, en := range ins {
		fit = fit && ix.fits(en.Row[ix.loPos])
	}
	if !fit {
		if err := ix.rebuild(); err != nil {
			return err
		}
	} else if len(ins) > 0 {
		ivs := make([]interval.Interval, len(ins))
		ids := make([]int64, len(ins))
		for i, en := range ins {
			ivs[i] = ix.shiftIv(en.Row[ix.loPos], en.Row[ix.hiPos])
			ids[i] = int64(en.RID)
		}
		if err := ix.ix.BulkInsert(ivs, ids); err != nil {
			return err
		}
	}
	for _, en := range del {
		lo, hi := en.Row[ix.loPos], en.Row[ix.hiPos]
		if checkRow(lo, hi) != nil || !ix.fits(lo) {
			continue // never indexed under this geometry
		}
		if _, err := ix.ix.Delete(ix.shiftIv(lo, hi), int64(en.RID)); err != nil {
			return err
		}
	}
	if over := ix.ix.OverlayEntries(); over > 1024 && over > ix.ix.FlatEntries() {
		ix.ix.Optimize()
	}
	return nil
}

// reader is the index bound to one relational state: the geometry offset
// and the shards' generations frozen when the Reader was made — those are
// immutable, so the reader keeps answering from them while the live index
// moves on, even across a geometry rebuild, which swaps ix.ix wholesale —
// plus the base table of the bound state for far-tail verification.
type reader struct {
	off   int64
	six   *Sharded
	tab   *rel.Table
	hiPos int
}

// Reader implements sqldb.Index. The (off, generations) pair is consistent
// with db because the call runs with writers excluded.
func (ix *indexType) Reader(db *rel.DB) (sqldb.Reader, error) {
	tab, err := db.Table(ix.table)
	if err != nil {
		return nil, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return &reader{off: ix.off, six: ix.ix.freeze(), tab: tab, hiPos: ix.hiPos}, nil
}

// shift maps a query interval into index coordinates, like row bounds.
func (r *reader) shift(q interval.Interval) interval.Interval {
	return interval.New(sat(q.Lower)-r.off, sat(q.Upper)-r.off)
}

// Scan implements sqldb.Reader. Bounds beyond the saturation range match
// exactly the rows a linear scan would: starts are exact within ±2^59,
// and far-tail uppers collapse together above every admissible start. A
// query start beyond that range (q.Lower > maxAbsBound) is the far tail:
// saturated stored ends cannot be ordered against it in index
// coordinates. Every indexed start is within ±2^59, so the only possible
// matches are rows whose end saturated (true end beyond 2^59) — the
// shifted scan finds exactly those — and each is verified against the
// base row's true endpoint, keeping the answer exact. The callback
// contract makes this path sequential across shards; Count fans out in
// parallel instead.
func (r *reader) Scan(q interval.Interval, fn func(rid rel.RowID) bool) error {
	if q.Lower <= maxAbsBound {
		return r.six.IntersectingFunc(r.shift(q), func(id int64) bool { return fn(rel.RowID(id)) })
	}
	// Per-invocation buffer — one Reader may serve several cursors at once.
	// A vanished row is skipped; a row that cannot be read fails the scan.
	row := make([]int64, r.tab.Schema().NumCols())
	var readErr error
	err := r.six.IntersectingFunc(r.shift(q), func(id int64) bool {
		if err := r.tab.GetRawInto(rel.RowID(id), row); err != nil {
			if errors.Is(err, rel.ErrNoSuchRow) {
				return true
			}
			readErr = err
			return false
		}
		if row[r.hiPos] < q.Lower {
			return true
		}
		return fn(rel.RowID(id))
	})
	if readErr != nil {
		return readErr
	}
	return err
}

// Count implements sqldb.Reader through the sharded index's parallel
// per-shard fan-out (one goroutine per shard with the counts summed),
// which a single streaming callback cannot use. Far-tail query starts
// need per-row verification and take the streaming path.
func (r *reader) Count(q interval.Interval) (int64, error) {
	if q.Lower > maxAbsBound {
		var n int64
		err := r.Scan(q, func(rel.RowID) bool { n++; return true })
		return n, err
	}
	return r.six.CountIntersecting(r.shift(q))
}

// Ordered implements sqldb.Reader: every indexed row id in ascending order
// of the indexed lower bound, straight off the flat storage's sorted
// original-class segments (see ScanStartOrdered), with the row's true
// bounds. The shift into index coordinates is monotone, so shifted order
// is true order, and un-shifting an entry restores its exact lower and —
// unless it saturated — its exact upper. A saturated upper (true end
// beyond 2^59) is refetched from the bound table, so the far tail stays
// exact; a row that cannot be read fails the scan.
func (r *reader) Ordered(fn func(rid rel.RowID, lo, hi int64) bool) error {
	r.six.met.query()
	var row []int64
	var readErr error
	r.six.ScanStartOrdered(func(lo, hi, id int64) bool {
		lo, hi = lo+r.off, hi+r.off
		if hi > maxAbsBound {
			if row == nil {
				row = make([]int64, r.tab.Schema().NumCols())
			}
			if readErr = r.tab.GetRawInto(rel.RowID(id), row); readErr != nil {
				return false
			}
			hi = row[r.hiPos]
		}
		return fn(rel.RowID(id), lo, hi)
	})
	return readErr
}

// Now implements sqldb.Reader: HINT keeps no clock.
func (r *reader) Now() (int64, bool) { return 0, false }

// Drop implements sqldb.Index: the main-memory storage is released and
// the persisted snapshot (if any) removed with it.
func (ix *indexType) Drop() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.ix.Clear()
	return ix.rdb.DeleteBlob(snapshotBlobName(ix.name))
}

// BackingIndex exposes the hidden HINT (for statistics in tests and
// benchmarks).
func (ix *indexType) BackingIndex() *Sharded { return ix.ix }
