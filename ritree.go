// Package ritree is a Go implementation of the Relational Interval Tree
// (RI-tree) of Kriegel, Pötke and Seidl, "Managing Intervals Efficiently in
// Object-Relational Databases", VLDB 2000 — together with the complete
// relational substrate it runs on (page store with buffer cache, B+-tree
// composite indexes, heap relations, a SQL engine with extensible
// indexing) and the paper's competitor access methods.
//
// # One database, many collections
//
// The entry point is the DB handle: one database hosting any number of
// named interval collections, each served by a pluggable access method
// (paper §5's extensible indexing) behind the same Collection methods:
//
//	db, _ := ritree.OpenMemory()
//	defer db.Close()
//	flights, _ := db.CreateCollection("flights", ritree.AccessMethod("hint"))
//	flights.Insert(ritree.NewInterval(10, 20), 1)
//	ids, _ := flights.Intersecting(ritree.NewInterval(15, 18)) // -> [1]
//
//	// Streaming, cancellable queries (range-over-func):
//	for id, err := range flights.Scan(ctx, ritree.Intersects(ritree.NewInterval(0, 100))) {
//		...
//	}
//
// ritree.Open(path) opens a file-backed database; collections persist in
// its catalog and are served again after reopening. See MIGRATION.md for
// the mapping from the removed pre-DB entry points.
//
// The RI-tree stores intervals in an ordinary relation
// (node, lower, upper, id) under two composite B+-tree indexes; the
// backbone tree is virtual — O(1) persistent parameters — so inserts cost
// O(log_b n) I/Os and an intersection query O(h·log_b n + r/b).
package ritree

import (
	"time"

	"ritree/internal/interval"
	"ritree/internal/obs"
	"ritree/internal/pagestore"
	"ritree/internal/sqldb"
)

// Interval is a closed interval [Lower, Upper] over int64.
type Interval = interval.Interval

// Relation is one of Allen's thirteen interval relations (paper §4.5).
type Relation = interval.Relation

// The thirteen Allen relations, usable with Collection.Query.
const (
	Before       = interval.Before
	Meets        = interval.Meets
	Overlaps     = interval.Overlaps
	FinishedBy   = interval.FinishedBy
	Contains     = interval.Contains
	Starts       = interval.Starts
	Equals       = interval.Equals
	StartedBy    = interval.StartedBy
	During       = interval.During
	Finishes     = interval.Finishes
	OverlappedBy = interval.OverlappedBy
	MetBy        = interval.MetBy
	After        = interval.After
)

// Infinity is the sentinel upper bound for intervals that never end (§4.6).
const Infinity = interval.Infinity

// NowMarker is the sentinel upper bound for now-relative intervals (§4.6).
const NowMarker = interval.NowMarker

// IOStats is the I/O counter snapshot of the underlying page store. The
// paper's primary cost metric is PhysicalReads under a small LRU buffer
// cache (2 KB blocks, 200-block cache by default, as in §6.1).
type IOStats = pagestore.Stats

// Result is a SQL statement result (see DB.Exec).
type Result = sqldb.Result

// Rows is a streaming SELECT cursor (see DB.Query): Next/Scan/Err/Close
// in the database/sql style, over the same push pipeline Exec drains.
type Rows = sqldb.Rows

// ExecStats counts the work one cursor performed (Rows.Stats); LeafRows
// is the number of rows the access-method scans produced, the observable
// evidence that LIMIT and early Close stop the scan.
type ExecStats = sqldb.ExecStats

// PlanNodeStats is one operator's node in the executed-plan stats tree
// (Rows.PlanStats, EXPLAIN ANALYZE, SlowQuery.Plan): rows produced,
// leaf rows scanned, index probes, residual-filter drops, join rebinds,
// spill sizes, and — when the plan ran under EXPLAIN ANALYZE — wall time.
type PlanNodeStats = sqldb.PlanNodeStats

// MetricsSnapshot is a point-in-time copy of a DB's metrics registry
// (DB.Metrics): counters, gauges, and latency-histogram summaries keyed
// by dotted name. Sub diffs two snapshots to meter a window of work.
type MetricsSnapshot = obs.Snapshot

// HistogramSnapshot summarizes one latency histogram inside a
// MetricsSnapshot: count, sum, max, and p50/p95/p99 upper bounds.
type HistogramSnapshot = obs.HistogramSnapshot

// SlowQuery is one captured slow statement (DB.SlowQueries).
type SlowQuery = sqldb.SlowQuery

// Transient is a transient collection bind for TABLE(:name) SQL sources
// (paper §4.2). It was formerly exported as ritree.Collection; Collection
// now names the persistent, access-method-backed interval collections.
type Transient = sqldb.Transient

// NewInterval returns the interval [lower, upper].
func NewInterval(lower, upper int64) Interval { return interval.New(lower, upper) }

// Point returns the degenerate interval [p, p].
func Point(p int64) Interval { return interval.Point(p) }

// ClassifyRelation returns the Allen relation between a and b.
func ClassifyRelation(a, b Interval) Relation { return interval.Classify(a, b) }

type config struct {
	path           string
	pageSize       int
	cacheSize      int
	readLatency    time.Duration
	slowQuery      time.Duration
	indexSnapshots bool
}

// Option configures Open and OpenMemory.
type Option func(*config)

// WithPageSize sets the disk block size in bytes (default 2048, the paper's
// setup). Must be a power of two >= 128.
func WithPageSize(bytes int) Option { return func(c *config) { c.pageSize = bytes } }

// WithCacheSize sets the buffer cache capacity in pages (default 200, the
// paper's Oracle block cache).
func WithCacheSize(pages int) Option { return func(c *config) { c.cacheSize = pages } }

// WithReadLatency makes every physical page read sleep for d, so wall-clock
// measurements approximate a disk with that access time.
func WithReadLatency(d time.Duration) Option {
	return func(c *config) { c.readLatency = d }
}

// WithSlowQueryThreshold arms the slow-query trace log from Open: any
// statement whose execution takes at least d is captured into a bounded
// ring buffer with its SQL text, bind count, duration, and operator
// stats, drained by DB.SlowQueries. Zero (the default) disables capture;
// DB.SetSlowQueryThreshold changes it at runtime.
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(c *config) { c.slowQuery = d }
}

// WithIndexSnapshots toggles persisted index snapshots (default on).
// When enabled on a file-backed database, Flush and Close persist each
// HINT collection's optimized in-memory layout next to its heap, and a
// later Open deserializes that snapshot — replaying only the rows
// written after it — instead of rebuilding the index from every heap
// row. A snapshot that fails validation (checksum, geometry, torn
// write) is discarded and the index rebuilds in full, so correctness
// never depends on the snapshot. Pass false to always rebuild on attach
// and to skip writing snapshots.
func WithIndexSnapshots(on bool) Option {
	return func(c *config) { c.indexSnapshots = on }
}

func applyOptions(opts []Option) *config {
	cfg := &config{
		pageSize:       pagestore.DefaultPageSize,
		cacheSize:      pagestore.DefaultCacheSize,
		indexSnapshots: true,
	}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}
