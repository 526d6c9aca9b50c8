package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"ritree/internal/rel"
)

// Collections: the engine half of the unified access-method API.
//
// A collection is a named interval relation with a pluggable access
// method — exactly the shape of paper §5: a base table holding the user's
// (lower, upper, id) rows, plus one domain index served by a registered
// indextype (ritree, hint, hint_sharded, or anything an embedder
// registers). The convention is purely catalog-level: the base table is
// named after the collection and its domain index is named
// CollectionIndexName(name), so the PR-2 persistent CustomIndexDef
// machinery makes collections survive close-and-reopen with no extra
// catalog format — AttachCatalogIndexes re-attaches every collection's
// access method exactly like any other domain index.
//
// SQL surface: CREATE COLLECTION name [USING method] and
// DROP COLLECTION name; the collection is then an ordinary table for
// SELECT/INSERT/DELETE, with INTERSECTS and CONTAINS_POINT served by its
// access method. The programmatic surface (BulkInsert, ReadCollection,
// DeleteCollectionRow) is what the root ritree package's Collection
// handle drives.

// CollectionColumns is the fixed schema of a collection's base relation.
var CollectionColumns = []string{"lower", "upper", "id"}

// collectionIndexSuffix marks a domain index as the access method of a
// collection. '$' keeps the name out of the SQL identifier space, so
// plain CREATE INDEX cannot collide with it.
const collectionIndexSuffix = "$am"

// CollectionIndexName returns the conventional name of the domain index
// serving the named collection.
func CollectionIndexName(name string) string {
	return strings.ToLower(name) + collectionIndexSuffix
}

// CollectionInfo describes one collection: its name and the indextype
// serving it.
type CollectionInfo struct {
	Name   string
	Method string
}

// DefaultAccessMethod is the indextype used when CREATE COLLECTION names
// none — the paper's own access method.
const DefaultAccessMethod = "ritree"

// IndexTypes returns the names of every registered indextype, sorted —
// the access-method registry behind CREATE COLLECTION ... USING.
func (e *Engine) IndexTypes() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.indexTypes))
	for n := range e.indexTypes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CustomIndexByName returns the attached custom index with the given name
// (case-insensitively), if any.
func (e *Engine) CustomIndexByName(name string) (Index, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ci, ok := e.custom[strings.ToLower(name)]
	return ci, ok
}

// SetIndexNow sets the now-relative evaluation time (§4.6) of the named
// custom index and retires the cached snapshot view, whose Readers froze
// the previous clock. Access methods without a clock return an error.
func (e *Engine) SetIndexNow(name string, now int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	ci, ok := e.custom[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("sql: no custom index %q attached", name)
	}
	if err := ci.SetNow(now); err != nil {
		return err
	}
	e.invalidateViewLocked()
	return nil
}

// CreateCollection creates the named interval collection served by the
// given access method (indextype name; empty means DefaultAccessMethod).
// params carries per-collection access-method options (the SQL WITH
// clause); they are validated by the indextype and persisted in the
// catalog, so a reopened database re-attaches the collection with the
// same configuration.
func (e *Engine) CreateCollection(name, method string, params map[string]string) error {
	e.mu.Lock()
	err := e.createCollectionLocked(name, method, params)
	seq, cerr := e.commitWriteLocked()
	e.mu.Unlock()
	return firstErr(err, cerr, e.db.Store().WaitDurable(seq))
}

func (e *Engine) createCollectionLocked(name, method string, params map[string]string) error {
	name = strings.ToLower(name)
	if method == "" {
		method = DefaultAccessMethod
	}
	method = strings.ToLower(method)
	if _, ok := e.indexTypes[method]; !ok {
		known := make([]string, 0, len(e.indexTypes))
		for n := range e.indexTypes {
			known = append(known, n)
		}
		sort.Strings(known)
		return fmt.Errorf("sql: unknown access method %q (registered: %s)", method, strings.Join(known, ", "))
	}
	if _, err := e.db.CreateTable(name, CollectionColumns); err != nil {
		return err
	}
	_, err := e.createCustomIndex(&CreateIndexStmt{
		Name:      CollectionIndexName(name),
		Table:     name,
		Columns:   []string{"lower", "upper"},
		IndexType: method,
		Params:    params,
	})
	if err != nil {
		_ = e.db.DropTable(name)
		return err
	}
	return nil
}

// DropCollection removes the named collection: its base table and, by the
// DROP TABLE cascade, its access-method index and storage.
func (e *Engine) DropCollection(name string) error {
	e.mu.Lock()
	err := e.dropCollectionLocked(name)
	seq, cerr := e.commitWriteLocked()
	e.mu.Unlock()
	return firstErr(err, cerr, e.db.Store().WaitDurable(seq))
}

func (e *Engine) dropCollectionLocked(name string) error {
	if _, ok := e.collectionDef(name); !ok {
		return fmt.Errorf("sql: no collection %q (DROP TABLE removes plain tables)", name)
	}
	return e.dropTableCascadeLocked(strings.ToLower(name))
}

// collectionDef returns the catalog definition of the named collection's
// access-method index, if the name denotes a collection.
func (e *Engine) collectionDef(name string) (rel.CustomIndexDef, bool) {
	def, ok := e.db.CustomIndex(CollectionIndexName(name))
	if !ok || !strings.EqualFold(def.Table, name) {
		return rel.CustomIndexDef{}, false
	}
	return def, true
}

// Collections lists every collection recorded in the catalog, sorted by
// name. On a reopened database this reflects the persisted definitions
// whether or not they have been attached yet.
func (e *Engine) Collections() []CollectionInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	var infos []CollectionInfo
	for _, def := range e.db.CustomIndexes() {
		if strings.EqualFold(def.Name, CollectionIndexName(def.Table)) {
			infos = append(infos, CollectionInfo{Name: strings.ToLower(def.Table), Method: def.IndexType})
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// CollectionMethod returns the access method serving the named collection.
func (e *Engine) CollectionMethod(name string) (string, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	def, ok := e.collectionDef(name)
	if !ok {
		return "", false
	}
	return def.IndexType, true
}

// --- programmatic DML with domain-index maintenance ----------------------

// firstErr returns the first non-nil error: operation error, then commit
// error, then durability-wait error — the precedence every auto-commit
// write path uses.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadCollection binds the named collection's access method to the live
// database and hands fn its Reader and base table, under the read side of
// e.mu: writers wait until fn returns, other live readers do not. The
// name is resolved on every call, so a collection dropped and created
// again is the new one, and a dropped one is an error. fn must not call
// the engine.
func (e *Engine) ReadCollection(name string, fn func(rd Reader, tab *rel.Table) error) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rd, tab, err := e.liveCollectionLocked(name)
	if err != nil {
		return err
	}
	return fn(rd, tab)
}

// DeleteCollectionRow deletes from the named collection the row find
// locates through the live Reader, with full domain-index maintenance,
// and auto-commits; find and the delete share one hold of e.mu. It
// reports whether find located a row. find must not call the engine.
func (e *Engine) DeleteCollectionRow(name string, find func(rd Reader, tab *rel.Table) (Entry, bool, error)) (bool, error) {
	found, seq, err := func() (bool, uint64, error) {
		e.mu.Lock()
		defer e.mu.Unlock()
		rd, tab, err := e.liveCollectionLocked(name)
		if err != nil {
			return false, 0, err
		}
		victim, found, err := find(rd, tab)
		if !found || err != nil {
			return false, 0, err
		}
		_, err = e.applyLocked(tab.Name(), nil, []Entry{victim})
		seq, cerr := e.commitWriteLocked()
		return true, seq, firstErr(err, cerr)
	}()
	return found, firstErr(err, e.db.Store().WaitDurable(seq))
}

// liveCollectionLocked resolves the named collection and binds its access
// method to the live database. Caller holds e.mu (either side).
func (e *Engine) liveCollectionLocked(name string) (Reader, *rel.Table, error) {
	name = strings.ToLower(name)
	ci, ok := e.custom[CollectionIndexName(name)]
	if !ok {
		return nil, nil, fmt.Errorf("sql: no collection %q", name)
	}
	tab, err := e.db.Table(name)
	if err != nil {
		return nil, nil, err
	}
	rd, err := ci.Reader(e.db)
	return rd, tab, err
}

// BulkInsert appends rows to table as one batch (see applyLocked) — the
// collection BulkLoad fast path. A refused batch leaves the table and its
// domain indexes as they were (a half-loaded collection on a file-backed
// database would otherwise refuse every later attach).
func (e *Engine) BulkInsert(table string, rows [][]int64) ([]rel.RowID, error) {
	e.mu.Lock()
	added, err := e.applyLocked(table, rows, nil)
	seq, cerr := e.commitWriteLocked()
	e.mu.Unlock()
	rids := make([]rel.RowID, len(added))
	for i, en := range added {
		rids[i] = en.RID
	}
	return rids, firstErr(err, cerr, e.db.Store().WaitDurable(seq))
}
