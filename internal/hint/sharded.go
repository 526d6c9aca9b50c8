package hint

// Sharded packages N HINT indexes behind one interval-index API, the
// concurrency story for the millions-of-users regime: every interval is
// owned by exactly one shard (chosen by a mixed hash of its id), and each
// shard publishes its current generation through an atomic pointer.
// Readers load the pointer and scan an immutable generation — no lock, no
// reader registration — so an open scan never blocks a writer and a
// writer never stalls any reader, not even on its own shard. Writers
// serialize per shard behind a plain mutex, derive the next generation by
// copy-on-write (see cow.go) and publish it atomically when done. All
// methods are safe for concurrent use.
//
// Intersection results are the disjoint union of the shards' results, so
// the exactly-once reporting guarantee of the single-shard algorithm is
// preserved by construction.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ritree/internal/interval"
)

// Sharded is a concurrency-safe HINT index of one or more shards.
type Sharded struct {
	shards []shard
	// met counts logical queries against the sharded API; the per-shard
	// scan counters live on the shards themselves. See metrics.go.
	met *indexMetrics
}

type shard struct {
	// wmu serializes writers; readers never take it.
	wmu sync.Mutex
	// cur is the published generation. Once stored it is immutable:
	// writers mutate only private clones.
	cur atomic.Pointer[Index]
}

// load returns the shard's current immutable generation.
func (sh *shard) load() *Index { return sh.cur.Load() }

// update runs f on a private clone of the current generation and
// publishes the clone. Mutations stay invisible to concurrent readers
// until the publish; readers that already hold the previous generation
// keep scanning it untouched.
func (sh *shard) update(f func(ix *Index) error) error {
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	c := sh.cur.Load().cloneForWrite()
	err := f(c)
	sh.cur.Store(c)
	return err
}

// NewSharded returns an empty concurrent index with opts.Shards shards
// (default 1). Every shard gets the same geometry.
func NewSharded(opts Options) (*Sharded, error) {
	n := opts.Shards
	if n == 0 {
		n = 1
	}
	if n < 1 || n > 1024 {
		return nil, fmt.Errorf("hint: Shards = %d out of range [1, 1024]", n)
	}
	opts.Shards = 0 // per-shard indexes are bare
	s := &Sharded{shards: make([]shard, n)}
	for i := range s.shards {
		ix, err := New(opts)
		if err != nil {
			return nil, err
		}
		s.shards[i].cur.Store(ix)
	}
	return s, nil
}

// shardOf routes an id to its owning shard's position. Ids are commonly
// sequential row ids, so a splitmix64-style mix spreads them evenly.
func (s *Sharded) shardOf(id int64) int {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(len(s.shards)))
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Insert registers iv under id, publishing a new generation of the owning
// shard. Concurrent readers are never blocked.
func (s *Sharded) Insert(iv interval.Interval, id int64) error {
	sh := &s.shards[s.shardOf(id)]
	return sh.update(func(ix *Index) error { return ix.Insert(iv, id) })
}

// Delete removes one registration of (iv, id), reporting whether it
// existed.
func (s *Sharded) Delete(iv interval.Interval, id int64) (bool, error) {
	sh := &s.shards[s.shardOf(id)]
	var existed bool
	err := sh.update(func(ix *Index) error {
		var err error
		existed, err = ix.Delete(iv, id)
		return err
	})
	return existed, err
}

// batchByShard splits a dataset by owning shard.
func (s *Sharded) batchByShard(ivs []interval.Interval, ids []int64) ([][]interval.Interval, [][]int64) {
	bIvs := make([][]interval.Interval, len(s.shards))
	bIDs := make([][]int64, len(s.shards))
	if len(s.shards) == 1 {
		bIvs[0], bIDs[0] = ivs, ids
		return bIvs, bIDs
	}
	for i := range ivs {
		w := s.shardOf(ids[i])
		bIvs[w] = append(bIvs[w], ivs[i])
		bIDs[w] = append(bIDs[w], ids[i])
	}
	return bIvs, bIDs
}

// BulkInsert registers the whole batch, cloning each touched shard once —
// the write path for batched DML (the engine's InsertMany), where a
// clone per row would tax the copy-on-write machinery. Each shard
// publishes one new generation holding all of its batch; readers observe
// a shard's batch atomically.
func (s *Sharded) BulkInsert(ivs []interval.Interval, ids []int64) error {
	if len(ivs) != len(ids) {
		return fmt.Errorf("hint: BulkInsert got %d intervals, %d ids", len(ivs), len(ids))
	}
	if len(ivs) == 1 {
		return s.Insert(ivs[0], ids[0])
	}
	bIvs, bIDs := s.batchByShard(ivs, ids)
	for i := range s.shards {
		if len(bIDs[i]) == 0 {
			continue
		}
		err := s.shards[i].update(func(ix *Index) error {
			for j := range bIDs[i] {
				if err := ix.Insert(bIvs[i][j], bIDs[i][j]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// BulkLoad splits the dataset by owning shard and bulk loads each shard
// in turn, leaving every shard in its optimized flat layout.
func (s *Sharded) BulkLoad(ivs []interval.Interval, ids []int64) error {
	if len(ivs) != len(ids) {
		return fmt.Errorf("hint: BulkLoad got %d intervals, %d ids", len(ivs), len(ids))
	}
	bIvs, bIDs := s.batchByShard(ivs, ids)
	for i := range s.shards {
		err := s.shards[i].update(func(ix *Index) error {
			return ix.BulkLoad(bIvs[i], bIDs[i])
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Optimize compacts every shard into its cache-conscious flat layout.
func (s *Sharded) Optimize() {
	for i := range s.shards {
		_ = s.shards[i].update(func(ix *Index) error { ix.Optimize(); return nil })
	}
}

// Clear drops every stored interval, keeping the configuration.
func (s *Sharded) Clear() {
	for i := range s.shards {
		_ = s.shards[i].update(func(ix *Index) error { ix.Clear(); return nil })
	}
}

// freeze returns a Sharded over every shard's currently published
// generation. Generations are immutable (writers only ever publish fresh
// clones) and nothing writes to the returned value, so querying it later
// answers exactly as the index stood at the freeze — what the indextype's
// Readers are bound to.
func (s *Sharded) freeze() *Sharded {
	f := newShardedFromGens(s.gens())
	f.met = s.met
	return f
}

// gens returns every shard's currently published generation, in shard
// order.
func (s *Sharded) gens() []*Index {
	gens := make([]*Index, len(s.shards))
	for i := range s.shards {
		gens[i] = s.shards[i].load()
	}
	return gens
}

// newShardedFromGens wraps per-shard indexes as a Sharded. The shard
// order must be that of the index they came from (ids route by position).
func newShardedFromGens(gens []*Index) *Sharded {
	s := &Sharded{shards: make([]shard, len(gens))}
	for i, g := range gens {
		s.shards[i].cur.Store(g)
	}
	return s
}

// IntersectingFunc streams the ids of intervals intersecting q in no
// particular order; return false from fn to stop early. Each shard is
// scanned on its generation current at the scan's start, so the scan runs
// lock-free, concurrently with writers on every shard.
func (s *Sharded) IntersectingFunc(q interval.Interval, fn func(id int64) bool) error {
	if !q.Valid() {
		return fmt.Errorf("hint: invalid query %v", q)
	}
	s.met.query()
	stopped := false
	wrapped := func(id int64) bool {
		if !fn(id) {
			stopped = true
			return false
		}
		return true
	}
	for i := range s.shards {
		err := s.shards[i].load().IntersectingFunc(q, wrapped)
		if err != nil || stopped {
			return err
		}
	}
	return nil
}

// queryShardsParallel runs query on every shard of s in parallel — one
// goroutine per shard, each over that shard's current immutable
// generation — and returns the per-shard results in shard order. With a
// single shard it degenerates to a plain sequential call. Queries visit
// every shard anyway, so the fan-out turns the shard count from a query
// tax into a latency divider on multi-core hardware.
func queryShardsParallel[T any](s *Sharded, query func(ix *Index) (T, error)) ([]T, error) {
	s.met.query()
	results := make([]T, len(s.shards))
	if len(s.shards) == 1 {
		var err error
		results[0], err = query(s.shards[0].load())
		if err != nil {
			return nil, err
		}
		return results, nil
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = query(s.shards[i].load())
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// mergeAscending merges sorted id slices into one ascending slice. The
// shard count is small, so a linear min-scan per output element beats a
// heap on real workloads; empty inputs are dropped up front.
func mergeAscending(lists [][]int64) []int64 {
	live := lists[:0]
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			live = append(live, l)
			total += len(l)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	out := make([]int64, 0, total)
	for len(live) > 0 {
		min := 0
		for i := 1; i < len(live); i++ {
			if live[i][0] < live[min][0] {
				min = i
			}
		}
		out = append(out, live[min][0])
		if live[min] = live[min][1:]; len(live[min]) == 0 {
			live[min] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return out
}

// Intersecting returns the ids of all intervals intersecting q, ascending.
// Shards are queried in parallel and their sorted results k-way merged,
// so the output order matches the single-shard index exactly.
func (s *Sharded) Intersecting(q interval.Interval) ([]int64, error) {
	results, err := queryShardsParallel(s, func(ix *Index) ([]int64, error) { return ix.Intersecting(q) })
	if err != nil {
		return nil, err
	}
	return mergeAscending(results), nil
}

// CountIntersecting returns the number of intervals intersecting q,
// counting the shards in parallel.
func (s *Sharded) CountIntersecting(q interval.Interval) (int64, error) {
	counts, err := queryShardsParallel(s, func(ix *Index) (int64, error) {
		return ix.CountIntersecting(q)
	})
	if err != nil {
		return 0, err
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	return n, nil
}

// Count returns the number of live intervals across all shards.
func (s *Sharded) Count() int64 { return s.sum(func(ix *Index) int64 { return ix.Count() }) }

// Entries returns the number of stored copies across all shards.
func (s *Sharded) Entries() int64 { return s.sum(func(ix *Index) int64 { return ix.Entries() }) }

// Replicas returns how many stored copies are replicas.
func (s *Sharded) Replicas() int64 { return s.sum(func(ix *Index) int64 { return ix.Replicas() }) }

// OverlayEntries returns how many stored copies await the next Optimize.
func (s *Sharded) OverlayEntries() int64 {
	return s.sum(func(ix *Index) int64 { return ix.OverlayEntries() })
}

// FlatEntries returns how many stored copies live in the flat
// cache-conscious storage across all shards.
func (s *Sharded) FlatEntries() int64 {
	return s.sum(func(ix *Index) int64 { return ix.FlatEntries() })
}

func (s *Sharded) sum(f func(ix *Index) int64) int64 {
	var total int64
	for i := range s.shards {
		total += f(s.shards[i].load())
	}
	return total
}

// Levels returns m, the depth of the bisection hierarchy.
func (s *Sharded) Levels() int { return s.shards[0].load().Levels() }

// Bits returns the domain width in bits.
func (s *Sharded) Bits() int { return s.shards[0].load().Bits() }

// DomainMax returns the largest admissible interval start, 2^Bits-1.
func (s *Sharded) DomainMax() int64 { return s.shards[0].load().DomainMax() }

// Name identifies the index and its configuration.
func (s *Sharded) Name() string {
	if len(s.shards) == 1 {
		return s.shards[0].load().Name()
	}
	return fmt.Sprintf("%s x%d", s.shards[0].load().Name(), len(s.shards))
}
