// Package pagestore implements the disk-block substrate of the reproduction:
// fixed-size pages behind an LRU buffer cache with physical/logical I/O
// accounting.
//
// The RI-tree paper (Kriegel, Pötke, Seidl, VLDB 2000) measures "physical
// disk block accesses" on an Oracle8i server configured with 2 KB blocks and
// a 200-block buffer cache. This package recreates exactly that cost model:
// every page fetched through the cache counts one logical read, and a cache
// miss counts one physical read. An optional per-physical-read latency lets
// benchmarks approximate wall-clock response times of a spinning disk.
package pagestore

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PageID identifies a page within a store. Page 0 is reserved for the store
// header; InvalidPage (0) therefore never refers to user data.
type PageID uint32

// InvalidPage is the zero PageID; it never names an allocated data page.
const InvalidPage PageID = 0

// DefaultPageSize matches the 2 KB database block size used in the paper's
// experimental setup (§6.1).
const DefaultPageSize = 2048

// DefaultCacheSize matches the paper's default Oracle block cache of 200
// database blocks (§6.1).
const DefaultCacheSize = 200

// MinPageSize is the smallest supported page size. Pages must hold the
// header of every page-structured module above this one.
const MinPageSize = 128

var (
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("pagestore: store is closed")
	// ErrPinned is returned when freeing a page that is still pinned.
	ErrPinned = errors.New("pagestore: page is pinned")
	// ErrInvalidPage is returned by reads of a page id that was never
	// allocated.
	ErrInvalidPage = errors.New("pagestore: invalid page")
)

// Backend is the raw block device underneath the buffer cache. Implementations
// must tolerate reads of never-written pages by returning zeroed contents.
type Backend interface {
	// ReadPage fills buf (exactly one page) with the contents of page id.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (exactly one page) as the contents of page id.
	WritePage(id PageID, buf []byte) error
	// Sync flushes any backend buffering to stable storage.
	Sync() error
	// Close releases backend resources.
	Close() error
}

// RangeReader is an optional Backend capability: fill buf (a whole number
// of pages) with the contents of the consecutive pages starting at id in
// one call. Backends over seekable media implement it so bulk sequential
// reads cost one I/O per span instead of one per page.
type RangeReader interface {
	ReadRange(id PageID, buf []byte) error
}

// Stats holds the I/O counters exposed by a Store. All counters are
// monotonically increasing until ResetStats.
type Stats struct {
	LogicalReads   int64 // pages requested through the cache
	PhysicalReads  int64 // cache misses served from the backend
	PhysicalWrites int64 // dirty pages written to the backend
	Evictions      int64 // frames evicted to make room
	Allocations    int64 // pages allocated
	Frees          int64 // pages freed
}

// Hits returns the number of logical reads served without touching the
// backend.
func (s Stats) Hits() int64 { return s.LogicalReads - s.PhysicalReads }

// Sub returns the counter-wise difference s - o, useful for measuring the
// cost of a bounded operation.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		LogicalReads:   s.LogicalReads - o.LogicalReads,
		PhysicalReads:  s.PhysicalReads - o.PhysicalReads,
		PhysicalWrites: s.PhysicalWrites - o.PhysicalWrites,
		Evictions:      s.Evictions - o.Evictions,
		Allocations:    s.Allocations - o.Allocations,
		Frees:          s.Frees - o.Frees,
	}
}

// Options configures a Store.
type Options struct {
	// PageSize is the size of every page in bytes. Defaults to
	// DefaultPageSize (2048).
	PageSize int
	// CacheSize is the number of pages held by the buffer cache. Defaults
	// to DefaultCacheSize (200).
	CacheSize int
	// ReadLatency, if nonzero, is slept on every physical read so that
	// wall-clock measurements approximate a disk with that access time.
	ReadLatency time.Duration
	// WAL, if set, enables write-ahead logging: Commit logs the after-image
	// of every page dirtied since the previous commit before any of them
	// may reach the backend (no-steal until logged and synced), and New
	// replays complete commit batches left behind by a crash. Without a
	// WAL, Commit only advances the snapshot epoch.
	WAL WAL
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = DefaultPageSize
	}
	if o.CacheSize == 0 {
		o.CacheSize = DefaultCacheSize
	}
	return o
}

func (o Options) validate() error {
	if o.PageSize < MinPageSize {
		return fmt.Errorf("pagestore: page size %d below minimum %d", o.PageSize, MinPageSize)
	}
	if o.PageSize&(o.PageSize-1) != 0 {
		return fmt.Errorf("pagestore: page size %d is not a power of two", o.PageSize)
	}
	if o.CacheSize < 4 {
		return fmt.Errorf("pagestore: cache size %d below minimum 4", o.CacheSize)
	}
	return nil
}

type frame struct {
	id    PageID
	data  []byte
	dirty bool
	pins  int
	elem  *list.Element // position in lru; set for every cached frame, pinned or not
	// stashEpoch is 1 + the epoch whose pre-image was last stashed for
	// snapshot readers; BeginWrite stashes only when stashEpoch <= epoch.
	stashEpoch uint64
	// logSeq is the commit sequence whose WAL record matches this frame's
	// content (0 = content not in the log). A dirty frame may be written
	// to the backend only once its logSeq is durably synced (no-steal).
	logSeq uint64
}

// pageVersion is a stashed pre-image: the page's content as of commit
// `tag`, retained while a snapshot at epoch <= tag is live.
type pageVersion struct {
	tag  uint64
	data []byte
}

// Store is a buffer-cached page store. It is safe for concurrent use; the
// contents of a pinned page, however, are handed to the caller as a raw
// byte slice, so concurrent mutation of a single page must be coordinated
// by the layer above (the relational engine serializes writers).
type Store struct {
	mu      sync.Mutex
	opts    Options
	backend Backend
	frames  map[PageID]*frame
	lru     *list.List // front = most recently used; holds every cached frame, eviction skips pinned ones
	stats   Stats
	next    PageID
	free    []PageID
	closed  bool
	latency time.Duration
	// obsm optionally mirrors stats into an obs registry (SetMetrics).
	obsm *storeMetrics
	// handles recycles Page values between Get and Release: the handle was
	// the last per-logical-read heap allocation on the query path (the LRU
	// frames themselves already stay resident across pin/release cycles).
	handles sync.Pool

	// --- commit / snapshot state ---
	wal     WAL
	epoch   uint64 // commits so far; snapshots observe state as of an epoch
	mutated bool   // a page/allocator mutation happened since the last commit
	// ckptThreshold > 0 makes CommitAsync checkpoint (flush + WAL reset)
	// whenever the WAL has grown past that many bytes, bounding replay
	// time after a crash. See SetCheckpointThreshold.
	ckptThreshold int64
	// snaps counts live snapshots per acquire epoch; versions holds the
	// stashed pre-images they read (see BeginWrite and Snapshot.ReadPage).
	snaps    map[uint64]int
	versions map[PageID][]pageVersion
	// recovery records what the WAL replay restored at New.
	recovery          RecoveryStats
	recoveryPublished bool
	// appendSeq/syncedSeq track group commit: the highest commit sequence
	// appended to the WAL and the highest known durable. Atomics so the
	// eviction path can check no-steal without touching the gate lock.
	appendSeq atomic.Uint64
	syncedSeq atomic.Uint64
	gate      commitGate
}

// commitGate batches WAL fsyncs: the first committer to arrive becomes the
// leader and syncs everything appended so far; committers arriving while a
// sync is in flight wait and are usually covered by the next one.
type commitGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	syncing bool
}

// New creates a Store over backend. If the backend already contains a store
// header (page 0), allocator state is restored from it. If opts.WAL holds
// records from a crashed predecessor, every complete commit batch is
// replayed into the backend (redo recovery) before the header is read; the
// result is reported by RecoveryStats.
func New(backend Backend, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	s := &Store{
		opts:    opts,
		backend: backend,
		frames:  make(map[PageID]*frame, opts.CacheSize),
		lru:     list.New(),
		next:    1,
		latency: opts.ReadLatency,
	}
	s.gate.cond = sync.NewCond(&s.gate.mu)
	if opts.WAL != nil {
		rs, err := opts.WAL.Replay(opts.PageSize, backend.WritePage)
		if err != nil {
			return nil, fmt.Errorf("pagestore: wal replay: %w", err)
		}
		s.recovery = rs
		if rs.Pages > 0 {
			if err := backend.Sync(); err != nil {
				return nil, err
			}
		}
		// The backend now reflects every committed batch; start a fresh log
		// (this also discards a torn tail).
		if err := opts.WAL.Reset(); err != nil {
			return nil, err
		}
		s.wal = opts.WAL
	}
	if err := s.loadHeader(); err != nil {
		return nil, err
	}
	return s, nil
}

// RecoveryStats reports what the WAL replay applied when the store was
// opened (zero when no WAL was configured or the log was empty).
func (s *Store) RecoveryStats() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Epoch returns the current commit epoch (the number of commits so far).
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// NewMem creates a Store over a fresh in-memory backend.
func NewMem(opts Options) *Store {
	s, err := New(NewMemBackend(), opts)
	if err != nil {
		panic(err) // options validated above; memory backend cannot fail
	}
	return s
}

const (
	headerMagic   = uint64(0x5249545047535452) // "RITPGSTR"
	headerVersion = uint32(1)
)

func (s *Store) loadHeader() error {
	buf := make([]byte, s.opts.PageSize)
	if err := s.backend.ReadPage(0, buf); err != nil {
		return err
	}
	magic := binary.LittleEndian.Uint64(buf[0:8])
	if magic == 0 {
		return nil // fresh store
	}
	if magic != headerMagic {
		return fmt.Errorf("pagestore: bad header magic %#x", magic)
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != headerVersion {
		return fmt.Errorf("pagestore: unsupported header version %d", v)
	}
	if ps := int(binary.LittleEndian.Uint32(buf[12:16])); ps != s.opts.PageSize {
		return fmt.Errorf("pagestore: store has page size %d, opened with %d", ps, s.opts.PageSize)
	}
	s.next = PageID(binary.LittleEndian.Uint32(buf[16:20]))
	nfree := int(binary.LittleEndian.Uint32(buf[20:24]))
	maxFree := (s.opts.PageSize - 24) / 4
	if nfree > maxFree {
		nfree = maxFree // excess free pages were leaked at save time
	}
	s.free = make([]PageID, 0, nfree)
	for i := 0; i < nfree; i++ {
		s.free = append(s.free, PageID(binary.LittleEndian.Uint32(buf[24+4*i:])))
	}
	return nil
}

// composeHeaderInto serializes an allocator header page into buf.
func composeHeaderInto(buf []byte, pageSize int, next PageID, free []PageID) {
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint64(buf[0:8], headerMagic)
	binary.LittleEndian.PutUint32(buf[8:12], headerVersion)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(pageSize))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(next))
	nfree := len(free)
	maxFree := (pageSize - 24) / 4
	if nfree > maxFree {
		nfree = maxFree // leak the remainder; documented limitation
	}
	binary.LittleEndian.PutUint32(buf[20:24], uint32(nfree))
	for i := 0; i < nfree; i++ {
		binary.LittleEndian.PutUint32(buf[24+4*i:], uint32(free[i]))
	}
}

func (s *Store) saveHeaderLocked() error {
	buf := make([]byte, s.opts.PageSize)
	composeHeaderInto(buf, s.opts.PageSize, s.next, s.free)
	return s.backend.WritePage(0, buf)
}

// PageSize returns the configured page size in bytes.
func (s *Store) PageSize() int { return s.opts.PageSize }

// CacheSize returns the configured buffer-cache capacity in pages.
func (s *Store) CacheSize() int { return s.opts.CacheSize }

// SetReadLatency changes the simulated per-physical-read latency. It may be
// toggled at runtime (benchmarks disable it during bulk loads).
func (s *Store) SetReadLatency(d time.Duration) {
	s.mu.Lock()
	s.latency = d
	s.mu.Unlock()
}

// Stats returns a snapshot of the I/O counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes all I/O counters.
func (s *Store) ResetStats() {
	s.mu.Lock()
	s.stats = Stats{}
	s.mu.Unlock()
}

// NumAllocated returns the number of live (allocated, not freed) pages.
func (s *Store) NumAllocated() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.next) - 1 - len(s.free)
}

// Allocate reserves a new zeroed page and returns its id. The page is not
// pinned; call Get to use it.
func (s *Store) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return InvalidPage, ErrClosed
	}
	s.stats.Allocations++
	s.obsm.allocation()
	var id PageID
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = s.next
		s.next++
	}
	// Install a zeroed frame so the first Get does not count a physical
	// read for a page that has never been written. The pre-image of a
	// recycled page was stashed when it was freed, so stashEpoch may start
	// past the current epoch.
	f := &frame{id: id, data: make([]byte, s.opts.PageSize), dirty: true, stashEpoch: s.epoch + 1}
	if err := s.installLocked(f); err != nil {
		return InvalidPage, err
	}
	s.mutated = true
	return id, nil
}

// Free returns page id to the allocator. The page must be unpinned.
func (s *Store) Free(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if id == InvalidPage || id >= s.next {
		return fmt.Errorf("pagestore: free of invalid page %d", id)
	}
	if f, ok := s.frames[id]; ok && f.pins > 0 {
		return ErrPinned
	}
	// Live snapshots may still reach this page through their as-of catalog;
	// stash its pre-image before the allocator can hand it out again.
	if len(s.snaps) > 0 {
		vs := s.versions[id]
		if len(vs) == 0 || vs[len(vs)-1].tag < s.epoch {
			data := make([]byte, s.opts.PageSize)
			if f, ok := s.frames[id]; ok {
				copy(data, f.data)
			} else if err := s.backend.ReadPage(id, data); err != nil {
				return err
			}
			if s.versions == nil {
				s.versions = make(map[PageID][]pageVersion)
			}
			s.versions[id] = append(vs, pageVersion{tag: s.epoch, data: data})
		}
	}
	if f, ok := s.frames[id]; ok {
		if f.elem != nil {
			s.lru.Remove(f.elem)
		}
		delete(s.frames, id)
	}
	s.stats.Frees++
	s.obsm.free()
	s.free = append(s.free, id)
	s.mutated = true
	return nil
}

// Page is a pinned handle to a cached page. It must be released exactly
// once; after Release the handle is recycled and must not be touched.
type Page struct {
	s *Store
	f *frame
}

// ID returns the page id.
func (p *Page) ID() PageID { return p.f.id }

// Data returns the page contents. The slice is valid until Release.
func (p *Page) Data() []byte { return p.f.data }

// BeginWrite declares that the caller is about to modify the page. It MUST
// be called before the first mutation (not after, as the old MarkDirty
// was): when snapshot readers are live it stashes the page's pre-image so
// they keep seeing the state as of their epoch, and it invalidates any WAL
// record covering the old content. Idempotent within an epoch.
func (p *Page) BeginWrite() {
	s := p.s
	s.mu.Lock()
	s.beginWriteLocked(p.f)
	s.mu.Unlock()
}

func (s *Store) beginWriteLocked(f *frame) {
	if len(s.snaps) > 0 && f.stashEpoch <= s.epoch {
		vs := s.versions[f.id]
		// A stash tagged with the current epoch already holds the true
		// pre-image (e.g. the page was freed and recycled this epoch).
		if len(vs) == 0 || vs[len(vs)-1].tag < s.epoch {
			data := make([]byte, len(f.data))
			copy(data, f.data)
			if s.versions == nil {
				s.versions = make(map[PageID][]pageVersion)
			}
			s.versions[f.id] = append(vs, pageVersion{tag: s.epoch, data: data})
		}
	}
	f.stashEpoch = s.epoch + 1
	f.dirty = true
	f.logSeq = 0
	s.mutated = true
}

// GetMut pins page id for modification: Get plus BeginWrite.
func (s *Store) GetMut(id PageID) (*Page, error) {
	p, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	p.BeginWrite()
	return p, nil
}

// Release unpins the page, making it evictable again, and returns the
// handle to the store's pool.
func (p *Page) Release() {
	s := p.s
	f := p.f
	if f == nil {
		panic("pagestore: page released more times than pinned")
	}
	p.f = nil // poison before pooling: a second Release must not corrupt a reused handle
	s.mu.Lock()
	f.pins--
	if f.pins < 0 {
		s.mu.Unlock()
		panic("pagestore: page released more times than pinned")
	}
	if f.pins == 0 {
		s.shrinkLocked()
	}
	s.mu.Unlock()
	s.handles.Put(p)
}

// handleFor wraps frame f in a pooled Page handle.
func (s *Store) handleFor(f *frame) *Page {
	if v := s.handles.Get(); v != nil {
		p := v.(*Page)
		p.s, p.f = s, f
		return p
	}
	return &Page{s: s, f: f}
}

// Get pins page id into the cache and returns a handle to it.
func (s *Store) Get(id PageID) (*Page, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if id == InvalidPage || id >= s.next {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: get of page %d", ErrInvalidPage, id)
	}
	s.stats.LogicalReads++
	s.obsm.logicalRead()
	if f, ok := s.frames[id]; ok {
		s.pinLocked(f)
		s.mu.Unlock()
		return s.handleFor(f), nil
	}
	// Miss: fetch from the backend.
	s.stats.PhysicalReads++
	s.obsm.physicalRead()
	lat := s.latency
	f := &frame{id: id, data: make([]byte, s.opts.PageSize)}
	// Read outside the lock would be nicer for parallelism, but the layer
	// above serializes access anyway; keep the invariant simple.
	if err := s.backend.ReadPage(id, f.data); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if err := s.installLocked(f); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.pinLocked(f)
	s.mu.Unlock()
	if lat > 0 {
		time.Sleep(lat)
	}
	return s.handleFor(f), nil
}

// ReadPagesInto copies the len(buf)/PageSize consecutive pages starting
// at id into buf without caching them: resident frames (dirty pages
// included) are served from memory, and every maximal uncached span is
// read from the backend — in one ranged call when it supports RangeReader.
// Bulk sequential readers (blob chains, one-shot scans) use it so a scan
// larger than the buffer cache does not evict the working set page by
// page, and so a multi-megabyte read costs a handful of ranged I/Os
// instead of one call per page. Under the simulated read latency, each
// backend call counts as one seek.
func (s *Store) ReadPagesInto(id PageID, buf []byte) error {
	ps := s.opts.PageSize
	n := len(buf) / ps
	if n < 1 || len(buf)%ps != 0 {
		return fmt.Errorf("pagestore: ReadPagesInto buffer is %d bytes, want a positive multiple of the %d-byte page size", len(buf), ps)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if id == InvalidPage || id >= s.next || PageID(n) > s.next-id {
		s.mu.Unlock()
		return fmt.Errorf("%w: get of page %d", ErrInvalidPage, id+PageID(n)-1)
	}
	s.stats.LogicalReads += int64(n)
	s.obsm.logicalReadN(int64(n))
	rr, ranged := s.backend.(RangeReader)
	var seeks int64
	for i := 0; i < n; {
		pid := id + PageID(i)
		if f, ok := s.frames[pid]; ok {
			copy(buf[i*ps:(i+1)*ps], f.data)
			i++
			continue
		}
		j := i + 1
		for j < n {
			if _, ok := s.frames[id+PageID(j)]; ok {
				break
			}
			j++
		}
		span := buf[i*ps : j*ps]
		var err error
		if ranged && j-i > 1 {
			err = rr.ReadRange(pid, span)
		} else {
			for k := i; k < j && err == nil; k++ {
				err = s.backend.ReadPage(id+PageID(k), span[(k-i)*ps:(k-i+1)*ps])
			}
		}
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.stats.PhysicalReads += int64(j - i)
		s.obsm.physicalReadN(int64(j - i))
		seeks++
		i = j
	}
	lat := s.latency
	s.mu.Unlock()
	if lat > 0 && seeks > 0 {
		time.Sleep(lat * time.Duration(seeks))
	}
	return nil
}

// PageBound returns the exclusive upper bound of currently valid page
// ids: every allocated page's id is below it. Sequential readers use it
// to clamp speculative ranged reads.
func (s *Store) PageBound() PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// pinLocked marks f in use. Frames stay resident in the LRU list while
// pinned — eviction skips them by pin count — so a pin/release cycle is
// a MoveToFront instead of a Remove + PushFront pair; the latter
// allocated a fresh list element per logical page access, which
// dominated the per-query allocation profile.
func (s *Store) pinLocked(f *frame) {
	s.lru.MoveToFront(f.elem)
	f.pins++
}

// installLocked inserts f into the cache, evicting if needed. f is unpinned.
func (s *Store) installLocked(f *frame) error {
	if err := s.shrinkToLocked(s.opts.CacheSize - 1); err != nil {
		return err
	}
	s.frames[f.id] = f
	f.elem = s.lru.PushFront(f)
	return nil
}

func (s *Store) shrinkLocked() { _ = s.shrinkToLocked(s.opts.CacheSize) }

// evictableLocked reports whether frame f may leave the cache. With a WAL
// the store is no-steal: a dirty frame may only be written back once its
// content is durably logged, so a crash can never leave the backend with
// pages from an uncommitted (or unsynced) batch.
func (s *Store) evictableLocked(f *frame) bool {
	if f.pins > 0 {
		return false
	}
	if !f.dirty || s.wal == nil {
		return true
	}
	return f.logSeq != 0 && f.logSeq <= s.syncedSeq.Load()
}

// shrinkToLocked evicts least-recently-used unpinned frames until at most
// limit frames remain. If every frame is pinned (or pinned by the no-steal
// rule) the cache is allowed to exceed its capacity until the pins drop or
// the next commit makes the dirty frames loggable.
func (s *Store) shrinkToLocked(limit int) error {
	for len(s.frames) > limit {
		// Pinned and unloggable frames stay in the list; walk past them to
		// the least-recently-used evictable frame.
		back := s.lru.Back()
		for back != nil && !s.evictableLocked(back.Value.(*frame)) {
			back = back.Prev()
		}
		if back == nil {
			return nil // nothing evictable; temporarily over capacity
		}
		f := back.Value.(*frame)
		if f.dirty {
			s.stats.PhysicalWrites++
			s.obsm.physicalWrite()
			if err := s.backend.WritePage(f.id, f.data); err != nil {
				return err
			}
			f.dirty = false
			f.logSeq = 0
		}
		s.lru.Remove(back)
		delete(s.frames, f.id)
		s.stats.Evictions++
		s.obsm.eviction()
	}
	return nil
}

// Commit makes every mutation since the previous commit atomically
// durable (when a WAL is configured) and advances the snapshot epoch:
// snapshots acquired from now on observe the new state. Commit is
// CommitAsync followed by WaitDurable; callers that serialize writes
// behind a lock should CommitAsync inside it and WaitDurable outside, so
// concurrent committers share fsyncs (group commit). A commit with
// nothing mutated is a no-op.
func (s *Store) Commit() error {
	seq, err := s.CommitAsync()
	if err != nil || seq == 0 {
		return err
	}
	return s.WaitDurable(seq)
}

// CommitAsync appends the commit batch — the after-image of every page
// dirtied since the previous commit plus the allocator header — to the
// WAL and advances the snapshot epoch, without waiting for durability.
// It returns the commit sequence to pass to WaitDurable, or 0 when there
// is nothing to wait for (nothing mutated, or no WAL configured).
//
// The caller must serialize CommitAsync against page mutations (the
// engine's write lock): the batch is "everything dirty right now".
func (s *Store) CommitAsync() (uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if !s.mutated {
		s.mu.Unlock()
		return 0, nil
	}
	if s.wal == nil {
		s.epoch++
		s.mutated = false
		s.obsm.walCommit(0)
		s.mu.Unlock()
		return 0, nil
	}
	seq := s.epoch + 1
	pages := 0
	for _, f := range s.frames {
		if f.dirty && f.logSeq == 0 {
			if err := s.wal.AppendPage(f.id, f.data); err != nil {
				s.mu.Unlock()
				return 0, err
			}
			f.logSeq = seq
			pages++
		}
	}
	// Log the allocator header too, so recovery restores the page
	// allocator to this commit's state without a separate flush.
	hdr := make([]byte, s.opts.PageSize)
	composeHeaderInto(hdr, s.opts.PageSize, s.next, s.free)
	if err := s.wal.AppendPage(0, hdr); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	if err := s.wal.AppendCommit(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.epoch++
	s.mutated = false
	s.appendSeq.Store(seq)
	s.obsm.walCommit(pages + 1)
	if s.ckptThreshold > 0 && s.wal.Size() >= s.ckptThreshold {
		// The WAL has outgrown the threshold: checkpoint now. flushAllLocked
		// writes every dirty page, syncs the backend, and resets the WAL, so
		// this commit (and all before it) is durable without an fsync of the
		// log; returning seq 0 makes the caller's WaitDurable a no-op.
		if err := s.flushAllLocked(); err != nil {
			s.mu.Unlock()
			return 0, err
		}
		s.syncedSeq.Store(seq)
		s.obsm.walCheckpoint()
		s.mu.Unlock()
		return 0, nil
	}
	s.mu.Unlock()
	return seq, nil
}

// SetCheckpointThreshold makes commits checkpoint the store (flush all
// dirty pages and reset the WAL) whenever the log exceeds n bytes,
// bounding both WAL size on disk and redo-replay time after a crash.
// n <= 0 (the default) disables the trigger. The checkpoint runs inline
// in the committing call, so a threshold trades occasional commit
// latency for a bounded log.
func (s *Store) SetCheckpointThreshold(n int64) {
	s.mu.Lock()
	s.ckptThreshold = n
	s.mu.Unlock()
}

// WaitDurable blocks until commit sequence seq (from CommitAsync) is
// fsynced to the WAL, syncing it if no sync is in flight (leader) or
// riding on the next one (group commit).
func (s *Store) WaitDurable(seq uint64) error {
	if seq == 0 || s.wal == nil {
		return nil
	}
	return s.groupSync(seq)
}

// groupSync waits until commit sequence seq is durable, syncing the WAL
// itself if no sync is in flight (leader) or riding on the next one.
func (s *Store) groupSync(seq uint64) error {
	g := &s.gate
	g.mu.Lock()
	for s.syncedSeq.Load() < seq {
		if g.syncing {
			g.cond.Wait()
			continue
		}
		g.syncing = true
		// Everything appended before the fsync starts is covered by it.
		top := s.appendSeq.Load()
		g.mu.Unlock()
		err := s.wal.Sync()
		g.mu.Lock()
		g.syncing = false
		if err == nil {
			if prev := s.syncedSeq.Load(); top > prev {
				s.syncedSeq.Store(top)
				s.obsm.walFsync(top - prev)
			}
		}
		g.cond.Broadcast()
		if err != nil {
			g.mu.Unlock()
			return err
		}
	}
	g.mu.Unlock()
	return nil
}

// Checkpoint writes every dirty page and the allocator header to the
// backend, syncs it, and truncates the WAL: the backend alone now holds
// the full state, so recovery after this point replays nothing. Must not
// run concurrently with Commit.
func (s *Store) Checkpoint() error { return s.FlushAll() }

// FlushAll writes every dirty cached page and the allocator header to the
// backend and syncs it. With a WAL this is a checkpoint: once the backend
// is durable the log is truncated (it would otherwise replay stale images
// over the flushed state). Any pending mutations become a commit boundary.
func (s *Store) FlushAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushAllLocked()
}

func (s *Store) flushAllLocked() error {
	for _, f := range s.frames {
		if f.dirty {
			s.stats.PhysicalWrites++
			s.obsm.physicalWrite()
			if err := s.backend.WritePage(f.id, f.data); err != nil {
				return err
			}
			f.dirty = false
			f.logSeq = 0
		}
	}
	if err := s.saveHeaderLocked(); err != nil {
		return err
	}
	if err := s.backend.Sync(); err != nil {
		return err
	}
	if s.mutated {
		s.epoch++
		s.mutated = false
	}
	if s.wal != nil {
		if err := s.wal.Reset(); err != nil {
			return err
		}
		s.obsm.walReset()
	}
	return nil
}

// Close flushes and closes the store (checkpointing and closing the WAL
// when one is configured). Further operations — including reads through
// still-live snapshots — fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if err := s.flushAllLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.closed = true
	wal := s.wal
	s.mu.Unlock()
	if wal != nil {
		if err := wal.Close(); err != nil {
			return err
		}
	}
	return s.backend.Close()
}
