package ritree

import (
	"context"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"time"

	"ritree/internal/hint"
	"ritree/internal/obs"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	ritcore "ritree/internal/ritree"
	"ritree/internal/sqldb"
)

// DB is one embedded interval database hosting any number of named
// collections, each served by a pluggable access method (paper §5's
// extensible indexing framework made first-class). The built-in access
// methods are registered on every DB:
//
//	ritree       the paper's disk-relational Relational Interval Tree
//	hint         the main-memory HINT^m hierarchy (SIGMOD 2022)
//	hint_sharded HINT behind N independently locked shards with
//	             parallel per-shard query fan-out
//
// Collections persist in the relational catalog: reopening a file-backed
// DB re-attaches every collection's access method before the first
// statement (ritree reopens and verifies its relations, hint adopts its
// persisted snapshot and replays the heap tail written since), so a
// database closed with two collections serves both after Open.
//
// All methods are safe for concurrent use. The engine's statement lock is
// the only lock a DB adds: statements and writes hold it exclusively, the
// synchronous collection reads share it, and callbacks that run under it
// (IntersectingFunc's fn) must not call the DB. The WAL fsync a write
// waits for happens outside it, so concurrent writers share fsyncs.
// Streaming Query cursors (and Collection.Scan) read from pinned
// page-store snapshots and hold no lock, so an open cursor never blocks a
// concurrent write. File-backed databases write ahead to a <path>.wal
// sidecar log and replay it on Open, so a crash between commit and page
// writeback loses nothing.
type DB struct {
	store *pagestore.Store
	eng   *sqldb.Engine
	reg   *obs.Registry
}

// Built-in access method names for CreateCollection.
const (
	AccessMethodRITree      = ritcore.IndexTypeName
	AccessMethodHINT        = hint.IndexTypeName
	AccessMethodHINTSharded = hint.ShardedIndexTypeName
)

// CollectionInfo names one collection and the access method serving it.
type CollectionInfo = sqldb.CollectionInfo

// OpenMemory creates an empty in-memory database.
func OpenMemory(opts ...Option) (*DB, error) {
	cfg := applyOptions(opts)
	st, err := pagestore.New(pagestore.NewMemBackend(), pagestore.Options{
		PageSize:    cfg.pageSize,
		CacheSize:   cfg.cacheSize,
		ReadLatency: cfg.readLatency,
	})
	if err != nil {
		return nil, err
	}
	rdb, err := rel.CreateDB(st)
	if err != nil {
		return nil, err
	}
	return newDB(st, rdb, cfg, false, false)
}

// Open creates or opens the file-backed database at path. On an existing
// file, every collection and domain index recorded in the catalog is
// re-attached before Open returns; a definition that cannot be served
// (stale storage, unregistered indextype) fails the open rather than
// silently skipping index maintenance.
func Open(path string, opts ...Option) (*DB, error) {
	cfg := applyOptions(opts)
	be, err := pagestore.OpenFileBackend(path, cfg.pageSize)
	if err != nil {
		return nil, err
	}
	// File-backed databases write ahead to a sidecar log: pagestore.New
	// replays any committed-but-unapplied tail into the backend before the
	// first read (crash recovery), and every commit thereafter reaches the
	// log's fsync before the statement returns.
	wal, err := pagestore.OpenFileWAL(path + ".wal")
	if err != nil {
		return nil, err
	}
	st, err := pagestore.New(be, pagestore.Options{
		PageSize:    cfg.pageSize,
		CacheSize:   cfg.cacheSize,
		ReadLatency: cfg.readLatency,
		WAL:         wal,
	})
	if err != nil {
		return nil, err
	}
	if st.NumAllocated() == 0 {
		rdb, err := rel.CreateDB(st)
		if err != nil {
			return nil, err
		}
		return newDB(st, rdb, cfg, false, true)
	}
	rdb, err := rel.OpenDB(st, 1)
	if err != nil {
		return nil, err
	}
	return newDB(st, rdb, cfg, true, true)
}

func newDB(st *pagestore.Store, rdb *rel.DB, cfg *config, reopened, fileBacked bool) (*DB, error) {
	// Every DB carries its own metrics registry: the page store, the SQL
	// executor, and each collection's access method publish into one
	// per-database family. The registry is attached before the catalog
	// indexes, so re-attached access methods bind their counters too.
	reg := obs.NewRegistry()
	st.SetMetrics(reg, "pagestore")
	eng := sqldb.NewEngine(rdb)
	eng.SetMetricsRegistry(reg)
	if cfg.slowQuery > 0 {
		eng.SetSlowQueryThreshold(cfg.slowQuery)
	}
	ritcore.RegisterIndexType(eng)
	hint.RegisterIndexType(eng)
	hint.RegisterShardedIndexType(eng, 0)
	// Flush and Close persist index snapshots only where a reopen can
	// adopt them.
	eng.SetIndexSnapshotsEnabled(cfg.indexSnapshots && fileBacked)
	if reopened {
		// Re-attach every collection and domain index recorded in the
		// catalog, so DML maintains them across session boundaries. Failing
		// here (stale storage, unregistered indextype) is deliberate: the
		// alternative is silently serving DML that corrupts the persisted
		// index.
		if err := eng.AttachCatalogIndexes(); err != nil {
			return nil, err
		}
	}
	return &DB{store: st, eng: eng, reg: reg}, nil
}

// collectionName constrains collection names to SQL identifiers, so a
// collection is always addressable from SQL statements.
var collectionName = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

type collectionConfig struct {
	method string
	params map[string]string
}

// CollectionOption configures CreateCollection.
type CollectionOption func(*collectionConfig)

// AccessMethod selects the access method (a registered indextype name)
// serving the collection: "ritree" (default), "hint", "hint_sharded", or
// any indextype an embedder registered. See DB.AccessMethods.
func AccessMethod(name string) CollectionOption {
	return func(c *collectionConfig) { c.method = name }
}

// WithMethodParam sets one access-method parameter (the SQL WITH / Oracle
// PARAMETERS pair) for the collection. Parameters are validated by the
// indextype and persisted in the catalog, so a reopened database
// re-attaches the collection with the same configuration. The built-in
// methods accept:
//
//	hint, hint_sharded   bits, levels, shards
//	ritree               skeleton (0|1, the §7 backbone materialization)
func WithMethodParam(key, value string) CollectionOption {
	return func(c *collectionConfig) {
		if c.params == nil {
			c.params = make(map[string]string)
		}
		c.params[key] = value
	}
}

// CreateCollection creates the named interval collection. The name must
// be a SQL identifier (the collection is also reachable as a table from
// Exec, with columns lower, upper, id and the INTERSECTS /
// CONTAINS_POINT operators served by its access method).
func (db *DB) CreateCollection(name string, opts ...CollectionOption) (*Collection, error) {
	var cc collectionConfig
	for _, o := range opts {
		o(&cc)
	}
	if !collectionName.MatchString(name) {
		return nil, fmt.Errorf("ritree: collection name %q is not a SQL identifier", name)
	}
	if err := db.eng.CreateCollection(name, cc.method, cc.params); err != nil {
		return nil, err
	}
	return db.Collection(name)
}

// Collection returns a handle to an existing collection. The handle
// resolves the collection by name on every call: after DROP and CREATE
// COLLECTION it serves the new collection, and while no collection has
// the name its reads and deletes fail.
func (db *DB) Collection(name string) (*Collection, error) {
	name = strings.ToLower(name)
	if _, ok := db.eng.CollectionMethod(name); !ok {
		var names []string
		for _, info := range db.eng.Collections() {
			names = append(names, info.Name)
		}
		return nil, fmt.Errorf("ritree: no collection %q (have %v)", name, names)
	}
	return &Collection{db: db, name: name}, nil
}

// Collections lists every collection with its access method, sorted by
// name.
func (db *DB) Collections() []CollectionInfo {
	return db.eng.Collections()
}

// DropCollection removes the named collection, its rows, and its
// access-method storage. Outstanding handles to it fail until a
// collection of that name is created again.
func (db *DB) DropCollection(name string) error {
	return db.eng.DropCollection(name)
}

// AccessMethods lists the registered access-method (indextype) names,
// sorted.
func (db *DB) AccessMethods() []string { return db.eng.IndexTypes() }

// Exec runs a SQL statement against the embedded engine: CREATE TABLE /
// CREATE INDEX (INDEXTYPE IS ..., §5) / CREATE COLLECTION ... USING ...
// WITH (...), INSERT, DELETE, SELECT with UNION ALL, DISTINCT, ORDER BY,
// LIMIT, TABLE(:transient) sources and the ALLEN_* operators, EXPLAIN,
// and the DROP statements. Collections are visible as tables with
// columns (lower, upper, id). SELECT results are fully materialized in
// the Result; use Query for a streaming cursor.
func (db *DB) Exec(sql string, binds map[string]interface{}) (*Result, error) {
	return db.eng.Exec(sql, binds)
}

// Query executes a SELECT statement as a streaming cursor: rows are
// produced as the underlying access-method scans advance, so
// SELECT ... LIMIT k (or an early Rows.Close) does O(k) index work
// instead of materializing the full result, and cancelling ctx stops the
// scan mid-flight, surfacing as the cursor's Err. The cursor holds no
// lock: it reads from a page-store snapshot pinned when the cursor
// opened, so concurrent writes — Insert, Delete, Exec, even on the same
// collection — proceed freely and never shift the cursor's results.
// Always Close the cursor (Next auto-closes on exhaustion); an open
// cursor pins its snapshot's pre-image retention.
func (db *DB) Query(ctx context.Context, sql string, binds map[string]interface{}) (*Rows, error) {
	return db.eng.Query(ctx, sql, binds)
}

// Session is a private connection to the database: Exec, Query, Prepare
// and Close. It owns its explicit transaction (SQL BEGIN … COMMIT), which
// statements on other sessions, DB.Exec included, never join. Close rolls
// back the session's open transaction, if any.
type Session = sqldb.Session

// Stmt is a statement prepared on a Session (Session.Prepare): parsed
// once, run with one positional int64 argument per bind name.
type Stmt = sqldb.Stmt

// Session returns a new private session.
func (db *DB) Session() *Session { return db.eng.NewSession() }

// Begin opens an explicit transaction on a private session. SQL reads in
// it answer from a snapshot pinned at Begin; SQL writes are buffered, and
// Commit applies them unless a concurrent writer changed a touched table
// since Begin (first committer wins: Commit returns ErrTxnConflict and
// applies nothing). Transactions do not exclude each other. DDL inside
// one is rejected; DDL from elsewhere on a touched table makes Commit
// conflict. Collection writes (Insert, InsertMany, Delete) auto-commit.
func (db *DB) Begin() (*Txn, error) {
	s := db.Session()
	if _, err := s.Exec("BEGIN", nil); err != nil {
		return nil, err
	}
	return &Txn{s: s}, nil
}

// ErrTxnConflict aborts a Txn.Commit whose touched tables were changed by
// a concurrent writer after Begin. The transaction is rolled back; retry
// it from Begin.
var ErrTxnConflict = sqldb.ErrTxnConflict

// Txn is an open explicit transaction (see DB.Begin).
type Txn struct {
	s    *Session
	done bool
}

// Exec runs one SQL statement inside the transaction: SELECTs read the
// transaction's snapshot, INSERT/DELETE are buffered until Commit.
func (t *Txn) Exec(sql string, binds map[string]interface{}) (*Result, error) {
	if t.done {
		return nil, fmt.Errorf("ritree: transaction already finished")
	}
	return t.s.Exec(sql, binds)
}

// Commit validates and applies the transaction's buffered writes,
// returning ErrTxnConflict (wrapped) if a concurrent writer touched the
// same tables since Begin. The transaction is finished either way.
func (t *Txn) Commit() error {
	_, err := t.Exec("COMMIT", nil)
	t.done = true
	return err
}

// Rollback discards the transaction's buffered writes. Safe to defer
// after Begin: on a finished transaction it is a no-op.
func (t *Txn) Rollback() error {
	if t.done {
		return nil
	}
	t.done = true
	return t.s.Close()
}

// Stats returns the I/O counters of the page store.
func (db *DB) Stats() IOStats { return db.store.Stats() }

// ResetStats zeroes the I/O counters. The metrics registry (see Metrics)
// is not affected: its counters are cumulative for the DB's lifetime.
func (db *DB) ResetStats() { db.store.ResetStats() }

// Metrics returns a point-in-time snapshot of the database's metrics
// registry: page-store I/O ("pagestore.*"), SQL executor work and
// per-statement-kind latency histograms ("sql.*"), and each collection's
// access-method counters ("index.<collection>$ix.*" — RI-tree node
// visits and scratch-pool reuse, HINT partition and shard fan-out
// counts). Counters are cumulative since Open; use Snapshot.Sub to meter
// an interval of work.
func (db *DB) Metrics() MetricsSnapshot { return db.reg.Snapshot() }

// MetricsHandler serves the registry over HTTP: /metrics (the Snapshot
// as indented JSON), /debug/vars (expvar), and /debug/pprof. Mount it on
// any mux; the handler holds no locks beyond atomic counter reads.
func (db *DB) MetricsHandler() http.Handler { return obs.Handler(db.reg) }

// MetricsRegistry exposes the registry itself so embedding layers (the
// wire server) can publish their own metric families into the same
// Snapshot the SQL and pagestore counters land in.
func (db *DB) MetricsRegistry() *obs.Registry { return db.reg }

// SetPlanCacheSize caps the SQL plan cache at n entries (default
// sqldb.DefaultPlanCacheSize); 0 disables plan caching entirely.
// Cacheable SELECT plans are keyed by statement text and re-instantiated
// per execution with fresh binds, so repeated prepared-statement
// execution skips parse and plan work; hits, misses, and evictions
// surface as the "sql.plancache.*" counters and through PlanCacheStats.
func (db *DB) SetPlanCacheSize(n int) { db.eng.SetPlanCacheSize(n) }

// PlanCacheStats reports the plan cache's lifetime hit/miss/eviction
// counts and its current entry count.
func (db *DB) PlanCacheStats() (hits, misses, evictions int64, entries int) {
	return db.eng.PlanCacheStats()
}

// SetSlowQueryThreshold arms the slow-query log: any statement at or
// above d lands in a bounded ring buffer drained by SlowQueries. Zero
// disables capture (the default unless WithSlowQueryThreshold was given).
func (db *DB) SetSlowQueryThreshold(d time.Duration) { db.eng.SetSlowQueryThreshold(d) }

// SlowQueryThreshold returns the current slow-query threshold.
func (db *DB) SlowQueryThreshold() time.Duration { return db.eng.SlowQueryThreshold() }

// SlowQueries drains the slow-query ring buffer, oldest first: every
// captured statement carries its SQL text, bind count, duration, cursor
// counters, and (for statements that ran a plan) the per-operator stats
// tree. The buffer keeps the most recent captures up to a fixed cap;
// draining clears it.
func (db *DB) SlowQueries() []SlowQuery { return db.eng.SlowQueries() }

// SetCheckpointThreshold makes commits checkpoint the page store (flush
// every dirty page and reset the write-ahead log) whenever the WAL
// exceeds bytes, bounding both the sidecar log's size on disk and the
// redo-replay time of the next Open. bytes <= 0 (the default) disables
// the trigger; the "wal.checkpoints" counter reports how often it
// fired. Meaningful for file-backed databases; harmless elsewhere.
func (db *DB) SetCheckpointThreshold(bytes int64) {
	db.store.SetCheckpointThreshold(bytes)
}

// Flush writes all dirty pages to the backing store, persisting index
// snapshots first on file-backed databases (see WithIndexSnapshots). It
// runs between statements, under the engine's statement lock.
func (db *DB) Flush() error { return db.eng.Flush() }

// Close flushes and closes the database, persisting index snapshots
// first on file-backed databases (see WithIndexSnapshots). Collection
// handles are invalid afterwards. Cursors still open when Close runs do
// not block it and do not panic: their next read fails cleanly and
// surfaces through Rows.Err.
func (db *DB) Close() error { return db.eng.Close() }
