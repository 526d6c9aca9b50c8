package sqldb

import (
	"fmt"
	"strings"
	"time"

	"ritree/internal/interval"
	"ritree/internal/obs"
	"ritree/internal/rel"
)

// This file implements the object-relational extensible-indexing framework
// of paper §5: "An extensible indexing framework allows the developer to
// package the implementation of the access method and the corresponding
// index data into a user-defined indextype. As the object-relational
// database server automatically triggers the maintenance and scan of custom
// indexes, end users can use the Relational Interval Tree just like a
// built-in index."
//
// The package is three interfaces, all mandatory: an indextype that omits
// any method does not compile at RegisterIndexType. A capability an access
// method lacks is reported by value — HasOrdered() == false, SetNow
// returning an error, Reader.Now reporting ok == false — never by a
// missing Go interface, so the engine holds no per-capability fallback.

// IndexType is a registered user-defined indextype: the factory behind
// CREATE INDEX ... INDEXTYPE IS <name> [PARAMETERS (...)].
type IndexType interface {
	// Create builds the index named indexName over the given columns of
	// table, backfilling from existing rows. params carries the PARAMETERS
	// pairs (nil when absent); implementations must reject keys they do not
	// understand — a silently ignored typo would create an index with the
	// wrong geometry. The params are persisted in the catalog and handed
	// back verbatim to Attach.
	Create(e *Engine, indexName, table string, cols []string, params map[string]string) (Index, error)
	// Attach adopts the storage an earlier session left behind for a
	// definition recorded in the catalog (reopening persisted relations,
	// or loading a main-memory structure from its snapshot and the heap).
	// Implementations must verify any persisted storage is consistent with
	// the base table before trusting it, and fail loudly otherwise.
	Attach(e *Engine, indexName, table string, cols []string, params map[string]string) (Index, error)
	// DropStorage removes whatever the indextype persisted for the named
	// index without attaching it, tolerating storage that is partially or
	// wholly missing. DROP INDEX on an unattached definition runs it: a
	// stale index refuses to attach, so only this can clean it up.
	DropStorage(e *Engine, indexName, table string, cols []string) error
}

// Entry is one base-table row as an index sees it: the heap row id the
// index reports from scans, and the row's column values.
type Entry struct {
	RID rel.RowID
	Row []int64
}

// Index is an attached user-defined index over an interval's (lower,
// upper) columns. The engine triggers its maintenance on DML against the
// base table and plans every interval operator (operators.go) as an
// intersection query on a Reader.
type Index interface {
	// Name returns the index name.
	Name() string
	// Table returns the base table name.
	Table() string
	// Columns returns the indexed column names, in order.
	Columns() []string
	// HasOrdered reports whether Readers of this index stream row ids in
	// ascending order of the indexed interval's lower bound — the zero-sort
	// feed of the interval merge join, which sorts explicitly otherwise.
	HasOrdered() bool
	// Apply maintains the index for one batch of base-table changes: ins
	// were appended to the heap, del are about to leave it (the heap still
	// holds them while Apply runs). A single-row statement is a batch of
	// one. The batch must be validated before anything mutates, so that a
	// refused batch leaves the index exactly as it was; deleting an entry
	// the index never held is not an error.
	Apply(ins, del []Entry) error
	// SetNow sets the evaluation time of now-relative intervals (§4.6).
	// Access methods without a clock return an error.
	SetNow(now int64) error
	// Persist writes whatever lets a later session's Attach skip a full
	// rebuild (a snapshot stamped against the base table's current
	// content). It runs under the engine's statement lock at a committed
	// boundary, so the stamp and the heap agree. Access methods whose
	// storage already lives in the page store do nothing.
	Persist() error
	// BindMetrics hands the index the DB-level registry; it publishes its
	// counters under "<prefix>.<metric>" (prefix is "index.<name>").
	BindMetrics(reg *obs.Registry, prefix string)
	// Drop destroys the index storage.
	Drop() error
	// Reader binds the index to one relational state: db is either the
	// live database (the caller keeps writers out for the Reader's whole
	// life) or the shadow database of a snapshot view (the
	// call runs under that lock at a committed boundary, so the index's
	// in-memory state and db describe the same data; the Reader must keep
	// answering from that state regardless of later writes). Row values the
	// Reader needs come from db, never from the live heap.
	Reader(db *rel.DB) (Reader, error)
}

// Reader is an index bound to one relational state. Implementations must
// be safe for concurrent use — several cursors of one view may scan at
// once.
type Reader interface {
	// Scan streams the row id of every indexed row whose interval
	// intersects q — the one query the paper's access methods answer
	// (§4.5 reduces every interval operator to it); fn returning false
	// stops it. The engine validates q first (q.Lower <= q.Upper). A
	// now-relative row (§4.6) intersects q as [lower, now].
	Scan(q interval.Interval, fn func(rid rel.RowID) bool) error
	// Count returns the number of rows Scan would stream, without the
	// callback (access methods with a parallel counting path use it).
	Count(q interval.Interval) (int64, error)
	// Ordered streams every indexed row id in ascending order of the
	// indexed interval's lower bound, with the row's true (lower, upper)
	// values — the bounds the base row holds, not an index-internal
	// encoding — so a consumer that needs only the bounds (a counting
	// merge join) never fetches the row. Called only when HasOrdered is
	// true.
	Ordered(fn func(rid rel.RowID, lo, hi int64) bool) error
	// Now returns the evaluation time of now-relative intervals as of the
	// bound state; ok is false when the access method keeps no clock.
	Now() (now int64, ok bool)
}

// PersistIndexSnapshots asks every attached index to Persist, then seals
// the resulting page mutations at a commit boundary and waits for
// durability. It is a no-op when snapshots are disabled
// (SetIndexSnapshotsEnabled(false)).
//
// Snapshots are not schema: the catalog definitions are untouched and no
// plan-cache epoch is bumped — commitWriteLocked retires only the cached
// snapshot view, exactly like DML, so cached plans stay valid across a
// persist.
func (e *Engine) PersistIndexSnapshots() error {
	if !e.IndexSnapshotsEnabled() {
		return nil
	}
	e.mu.Lock()
	var err error
	for _, ci := range e.custom {
		if err = ci.Persist(); err != nil {
			break
		}
	}
	seq, cerr := e.commitWriteLocked()
	e.mu.Unlock()
	if err := firstErr(err, cerr); err != nil {
		return err
	}
	return e.db.Store().WaitDurable(seq)
}

// RegisterIndexType makes a user-defined indextype available to
// CREATE INDEX ... INDEXTYPE IS <name>.
func (e *Engine) RegisterIndexType(name string, t IndexType) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.indexTypes[strings.ToLower(name)] = t
}

func (e *Engine) attachLocked(ci Index) error {
	name := strings.ToLower(ci.Name())
	if _, dup := e.custom[name]; dup {
		return fmt.Errorf("sql: custom index %s already attached", ci.Name())
	}
	e.custom[name] = ci
	tb := strings.ToLower(ci.Table())
	e.customByTb[tb] = append(e.customByTb[tb], ci)
	// A new domain index changes what chooseAccess can pick.
	e.bumpPlanEpochLocked()
	if e.reg != nil {
		ci.BindMetrics(e.reg, "index."+name)
	}
	return nil
}

func (e *Engine) createCustomIndex(s *CreateIndexStmt) (*Result, error) {
	h, ok := e.indexTypes[strings.ToLower(s.IndexType)]
	if !ok {
		return nil, fmt.Errorf("sql: unknown indextype %q", s.IndexType)
	}
	tab, err := e.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	for _, c := range s.Columns {
		if tab.Schema().ColIndex(c) < 0 {
			return nil, fmt.Errorf("sql: no column %s in %s", c, s.Table)
		}
	}
	// Record the definition in the catalog first: it enforces the shared
	// index namespace (built-in and custom) before the expensive backfill,
	// and it is what lets a later session re-attach the index
	// (AttachCatalogIndexes). A definition without storage fails loudly at
	// attach time; storage without a definition would rot silently.
	def := rel.CustomIndexDef{
		Name:      s.Name,
		IndexType: strings.ToLower(s.IndexType),
		Table:     s.Table,
		Columns:   s.Columns,
		Params:    s.Params,
	}
	if err := e.db.RecordCustomIndex(def); err != nil {
		return nil, err
	}
	ci, err := h.Create(e, s.Name, s.Table, s.Columns, s.Params)
	if err != nil {
		_ = e.db.RemoveCustomIndex(s.Name)
		return nil, err
	}
	if err := e.attachLocked(ci); err != nil {
		_ = ci.Drop()
		_ = e.db.RemoveCustomIndex(s.Name)
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) dropCustomIndex(ci Index) error {
	// Drop the storage before removing the registration: a failed Drop must
	// leave the index attached (and its catalog definition in place) so the
	// caller still holds a handle to retry — the reverse order orphaned the
	// hidden relations with no way to reach them.
	if err := ci.Drop(); err != nil {
		return fmt.Errorf("sql: dropping index %s: %w (index remains attached)", ci.Name(), err)
	}
	name := strings.ToLower(ci.Name())
	delete(e.custom, name)
	e.bumpPlanEpochLocked()
	tb := strings.ToLower(ci.Table())
	list := e.customByTb[tb]
	for i, cand := range list {
		if cand == ci {
			e.customByTb[tb] = append(list[:i], list[i+1:]...)
			break
		}
	}
	return e.db.RemoveCustomIndex(ci.Name())
}

// dropUnattachedDef removes a catalog definition that is not attached in
// this session, dropping its storage through the indextype's DropStorage
// (this is how a stale ritree index — whose attach is refused — gets
// cleaned up so the name can be recreated). A definition whose indextype
// is not registered loses only its catalog entry. This is the recovery
// path the attach errors advise: DROP INDEX must work even when attach
// cannot. Caller holds e.mu.
func (e *Engine) dropUnattachedDef(def rel.CustomIndexDef) error {
	if h, ok := e.indexTypes[strings.ToLower(def.IndexType)]; ok {
		if err := h.DropStorage(e, def.Name, def.Table, def.Columns); err != nil {
			return fmt.Errorf("sql: dropping storage of index %s: %w", def.Name, err)
		}
	}
	return e.db.RemoveCustomIndex(def.Name)
}

// AttachCatalogIndexes walks the persisted domain-index definitions of the
// underlying database and re-attaches each through its registered
// indextype — the reopen half of paper §5's "end users can use the
// Relational Interval Tree just like a built-in index". It must run before
// any DML on a reopened database: an engine that skips it serves no domain
// indexes and silently skips their maintenance, leaving persisted index
// storage stale. A definition whose indextype is not registered in this
// session is an error, not a skip, for the same reason. Definitions
// already attached in this session are left alone, so the call is
// idempotent.
func (e *Engine) AttachCatalogIndexes() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, def := range e.db.CustomIndexes() {
		if _, ok := e.custom[strings.ToLower(def.Name)]; ok {
			continue
		}
		h, ok := e.indexTypes[strings.ToLower(def.IndexType)]
		if !ok {
			return fmt.Errorf("sql: catalog index %s requires indextype %q, which is not registered in this session; register it (or DROP INDEX %s) before issuing DML — proceeding would silently skip index maintenance",
				def.Name, def.IndexType, def.Name)
		}
		start := time.Now()
		ci, err := h.Attach(e, def.Name, def.Table, def.Columns, def.Params)
		if err != nil {
			return fmt.Errorf("sql: attaching catalog index %s (indextype %s): %w", def.Name, def.IndexType, err)
		}
		// Attach latency is the cold-start cost a snapshot load is meant to
		// collapse; the histogram makes the snapshot-vs-rebuild difference
		// visible per attach (one sample per index).
		if e.reg != nil {
			e.reg.Histogram("index.attach_ns").Record(time.Since(start).Nanoseconds())
		}
		if err := e.attachLocked(ci); err != nil {
			return err
		}
	}
	return nil
}
