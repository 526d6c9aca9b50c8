package ritree

// This file exposes HINT — the main-memory hierarchical interval index of
// Christodoulou, Bouros and Mamoulis (SIGMOD 2022, see PAPERS.md and
// internal/hint) — as a top-level convenience API next to the RI-tree's.
// Where ritree.Index is the paper's disk-relational access method over a
// page store, ritree.HINT trades persistence for raw main-memory speed:
// the same intersection and stabbing queries, served from sorted,
// cache-friendly partition arrays with no page or B+-tree traversal.
// Infinite intervals ([lo, ∞)) are supported; the §4.6 now-relative
// intervals are not — Insert rejects the NowMarker sentinel rather than
// silently treating [lo, now] as [lo, ∞).
//
//	idx, _ := ritree.NewHINT()
//	idx.Insert(ritree.NewInterval(10, 20), 1)
//	idx.Insert(ritree.NewInterval(15, 40), 2)
//	ids, _ := idx.Intersecting(ritree.NewInterval(18, 19)) // -> [1 2]
//
// All methods are safe for concurrent use. The index is split into one
// or more shards (WithHINTShards), each behind its own reader-writer
// lock: queries take per-shard read locks and run concurrently with each
// other, while a mutation write-locks only the shard owning its id — so
// under WithHINTShards(n), a mutation blocks a concurrent query only
// for the ~1/n of its scan spent on that shard, and point reads on the
// other shards are never touched. BulkLoad and Optimize leave every shard in the
// cache-conscious flat layout; incremental inserts land in a small
// sorted overlay that the next Optimize folds in.

import (
	"ritree/internal/hint"
)

// HINTOption configures NewHINT.
type HINTOption func(*hint.Options)

// WithHINTBits sets the domain width: interval starts must lie in
// [0, 2^bits-1] (default 20, the paper's data space). Interval ends
// beyond the domain — including Infinity — are indexed as extending to
// the domain maximum.
func WithHINTBits(bits int) HINTOption {
	return func(o *hint.Options) { o.Bits = bits }
}

// WithHINTLevels sets m, the depth of the domain-bisection hierarchy
// (default 10, at most the domain bits).
func WithHINTLevels(m int) HINTOption {
	return func(o *hint.Options) { o.Levels = m }
}

// WithHINTShards splits the index into n independently locked shards
// (default 1): a mutation write-locks only the shard owning its id, so
// reads on the other shards proceed untouched and a concurrent query is
// blocked only for the portion of its scan that visits that shard. Use roughly the expected
// writer parallelism; queries visit every shard, so very large n taxes
// small queries.
func WithHINTShards(n int) HINTOption {
	return func(o *hint.Options) { o.Shards = n }
}

// HINT is a main-memory hierarchical interval index, safe for concurrent
// use (see the package-level notes above for the sharded locking model).
type HINT struct {
	s *hint.Sharded
}

// NewHINT creates an empty main-memory HINT index.
func NewHINT(opts ...HINTOption) (*HINT, error) {
	var o hint.Options
	for _, opt := range opts {
		opt(&o)
	}
	s, err := hint.NewSharded(o)
	if err != nil {
		return nil, err
	}
	return &HINT{s: s}, nil
}

// Insert registers iv under id. Multiple registrations of the same
// (interval, id) pair are allowed and count separately.
func (h *HINT) Insert(iv Interval, id int64) error {
	return h.s.Insert(iv, id)
}

// InsertInfinite registers [lower, ∞) under id.
func (h *HINT) InsertInfinite(lower, id int64) error {
	return h.s.Insert(NewInterval(lower, Infinity), id)
}

// Delete removes one registration of (iv, id), reporting whether it
// existed.
func (h *HINT) Delete(iv Interval, id int64) (bool, error) {
	return h.s.Delete(iv, id)
}

// BulkLoad inserts ivs[i] under ids[i] and compacts every shard into the
// cache-conscious flat layout — the fast path for loading large datasets.
func (h *HINT) BulkLoad(ivs []Interval, ids []int64) error {
	return h.s.BulkLoad(ivs, ids)
}

// Optimize compacts the index into its flat cache-conscious layout,
// folding in everything inserted since the last Optimize or BulkLoad.
// Call it after a burst of incremental inserts to restore peak query
// throughput; queries and updates keep working either way.
func (h *HINT) Optimize() { h.s.Optimize() }

// Intersecting returns the ids of all intervals intersecting q, ascending.
func (h *HINT) Intersecting(q Interval) ([]int64, error) {
	return h.s.Intersecting(q)
}

// IntersectingFunc streams the ids of intervals intersecting q in no
// particular order; return false from fn to stop early. fn runs under a
// shard read lock and must not call the index's mutating methods.
func (h *HINT) IntersectingFunc(q Interval, fn func(id int64) bool) error {
	return h.s.IntersectingFunc(q, fn)
}

// Stab returns the ids of all intervals containing the point p, ascending.
func (h *HINT) Stab(p int64) ([]int64, error) {
	return h.s.Stab(p)
}

// Query returns the ids of all intervals i with "i r q" for any of
// Allen's thirteen relations (paper §4.5), ascending. HINT evaluates the
// relation by the same strategy as the RI-tree: the generating
// intersection query of the predicate, with the exact relation as a
// residual filter over the stored endpoints.
func (h *HINT) Query(r Relation, q Interval) ([]int64, error) {
	return h.s.QueryRelation(r, q)
}

// CountIntersecting returns the number of intervals intersecting q.
func (h *HINT) CountIntersecting(q Interval) (int64, error) {
	return h.s.CountIntersecting(q)
}

// Count returns the number of registered intervals.
func (h *HINT) Count() int64 { return h.s.Count() }

// Entries returns the number of stored copies (originals plus replicas),
// the space metric comparable to Index.IndexEntries.
func (h *HINT) Entries() int64 { return h.s.Entries() }

// Replicas returns how many stored copies are replicas.
func (h *HINT) Replicas() int64 { return h.s.Replicas() }

// Levels returns m, the depth of the bisection hierarchy.
func (h *HINT) Levels() int { return h.s.Levels() }

// Shards returns the number of independently locked shards.
func (h *HINT) Shards() int { return h.s.Shards() }

// Optimized reports whether every shard has its flat cache-conscious
// storage built — the state after BulkLoad or Optimize.
func (h *HINT) Optimized() bool { return h.s.Optimized() }

// Clear drops every stored interval, keeping the configuration.
func (h *HINT) Clear() { h.s.Clear() }

// String summarizes the index.
func (h *HINT) String() string { return h.s.String() }
