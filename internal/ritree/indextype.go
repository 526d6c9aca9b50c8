package ritree

import (
	"errors"
	"fmt"
	"strings"

	"ritree/internal/interval"
	"ritree/internal/obs"
	"ritree/internal/rel"
	"ritree/internal/sqldb"
)

// This file packages the RI-tree as a user-defined indextype for the
// extensible indexing framework (paper §5): after
//
//	CREATE INDEX resv_iv ON Reservations (arrival, departure) INDEXTYPE IS ritree
//
// the engine transparently maintains a hidden RI-tree on every INSERT and
// DELETE against the base table, and rewrites the INTERSECTS operator in
// WHERE clauses into an RI-tree scan — "end users can use the Relational
// Interval Tree just like a built-in index".

// OperatorIntersects is the SQL operator name served by the indextype:
// INTERSECTS(lowerCol, upperCol, :qlo, :qhi).
const OperatorIntersects = "intersects"

// OperatorContainsPoint is the stabbing operator:
// CONTAINS_POINT(lowerCol, upperCol, :p).
const OperatorContainsPoint = "contains_point"

// IndexTypeName is the name used in INDEXTYPE IS clauses.
const IndexTypeName = "ritree"

// hiddenTreeName returns the name of the indextype's backing RI-tree.
func hiddenTreeName(indexName string) string { return indexName + "_rit$" }

// chkTableName returns the name of the indextype's checksum-mirror
// relation: a single (chk) row holding the XOR of rel.RowChecksum over
// the base rows the index was maintained with. Comparing it against the
// base table's ContentChecksum at attach time catches DML that ran
// without index maintenance even when it nets to zero rows — the case
// the PR-2 row-count verification provably misses.
func chkTableName(indexName string) string { return hiddenTreeName(indexName) + "_chk" }

// RegisterIndexType makes "INDEXTYPE IS ritree" available on the engine,
// for both CREATE INDEX (build new hidden relations) and catalog
// re-attach on reopen (adopt the persisted relations after verifying them
// against the base table). The optional PARAMETERS / WITH pairs:
//
//	skeleton = 0|1   materialize the backbone (§7 Skeleton-Index outlook)
func RegisterIndexType(e *sqldb.Engine) {
	e.RegisterIndexType(IndexTypeName, handler{})
}

// handler implements sqldb.IndexType.
type handler struct{}

func (handler) Create(e *sqldb.Engine, indexName, table string, cols []string, params map[string]string) (sqldb.Index, error) {
	return newIndexType(e, indexName, table, cols, params, true)
}

func (handler) Attach(e *sqldb.Engine, indexName, table string, cols []string, params map[string]string) (sqldb.Index, error) {
	return newIndexType(e, indexName, table, cols, params, false)
}

// DropStorage removes the hidden relations of a ritree domain index
// without attaching it — the cleanup path for a stale index whose attach
// is refused (DROP INDEX then CREATE INDEX must work). Partially or
// wholly missing storage is tolerated.
func (handler) DropStorage(e *sqldb.Engine, indexName, _ string, _ []string) error {
	hidden := hiddenTreeName(indexName)
	var firstErr error
	for _, tb := range []string{tableName(hidden), paramsName(hidden), chkTableName(indexName)} {
		if err := e.DB().DropTable(tb); err != nil && !errors.Is(err, rel.ErrNoSuchTable) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// parseTreeOptions validates the indextype parameters.
func parseTreeOptions(params map[string]string) (Options, error) {
	var opts Options
	for k, v := range params {
		switch k {
		case "skeleton":
			switch v {
			case "0":
			case "1":
				opts.MaterializeBackbone = true
			default:
				return opts, fmt.Errorf("ritree indextype: parameter skeleton must be 0 or 1, got %q", v)
			}
		default:
			return opts, fmt.Errorf("ritree indextype: unknown parameter %q (supported: skeleton)", k)
		}
	}
	return opts, nil
}

type indexType struct {
	name  string
	table string
	cols  []string
	loPos int
	hiPos int
	tree  *Tree
	// Checksum mirror: chk is the XOR of rel.RowChecksum over the rows
	// this index was maintained with, persisted at chkRid in chkTab.
	chkTab *rel.Table
	chkRid rel.RowID
	chk    uint64
}

func newIndexType(e *sqldb.Engine, indexName, table string, cols []string, params map[string]string, create bool) (sqldb.Index, error) {
	if len(cols) != 2 {
		return nil, fmt.Errorf("ritree indextype needs exactly (lower, upper) columns, got %d", len(cols))
	}
	opts, err := parseTreeOptions(params)
	if err != nil {
		return nil, err
	}
	tab, err := e.DB().Table(table)
	if err != nil {
		return nil, err
	}
	lo := tab.Schema().ColIndex(cols[0])
	hi := tab.Schema().ColIndex(cols[1])
	if lo < 0 || hi < 0 {
		return nil, fmt.Errorf("ritree indextype: columns %v not in %s", cols, table)
	}
	ix := &indexType{
		name:  indexName,
		table: table,
		cols:  append([]string(nil), cols...),
		loPos: lo,
		hiPos: hi,
	}
	if create {
		tree, err := Create(e.DB(), hiddenTreeName(indexName), opts)
		if err != nil {
			return nil, err
		}
		// Backfill from existing rows, keyed by heap row id. Rows are
		// collected first: the scan holds the database read lock, and
		// inserting from inside the callback would self-deadlock on the
		// write lock. The checksum mirror accumulates over the same scan,
		// so it lands equal to the base table's ContentChecksum.
		type entry struct {
			iv  interval.Interval
			rid rel.RowID
		}
		var entries []entry
		err = tab.Scan(func(rid rel.RowID, row []int64) bool {
			entries = append(entries, entry{interval.New(row[lo], row[hi]), rid})
			return true
		})
		if err == nil {
			for _, en := range entries {
				if err = tree.Insert(en.iv, int64(en.rid)); err != nil {
					break
				}
			}
		}
		if err == nil {
			// Seed the mirror from the table's own maintained checksum
			// (not a recomputation): the two then agree by definition at
			// creation, including over tables whose header predates the
			// checksum field.
			ix.chkTab, err = e.DB().CreateTable(chkTableName(indexName), []string{"chk"})
			if err == nil {
				ix.chk = tab.ContentChecksum()
				ix.chkRid, err = ix.chkTab.Insert([]int64{int64(ix.chk)})
			}
		}
		if err != nil {
			_ = tree.Drop()
			_ = e.DB().DropTable(chkTableName(indexName))
			return nil, err
		}
		ix.tree = tree
	} else {
		tree, err := Open(e.DB(), hiddenTreeName(indexName), opts)
		if err != nil {
			return nil, err
		}
		// The indextype registers exactly one interval per base row, so a
		// count mismatch proves DML ran while the index was not attached
		// (e.g. a session that reopened the database without
		// AttachCatalogIndexes). Trusting such a tree returns wrong query
		// results; refuse it instead.
		if have, want := tree.Count(), tab.RowCount(); have != want {
			return nil, fmt.Errorf("ritree indextype: persisted index %s is stale: hidden tree holds %d intervals but table %s has %d rows — DML ran without index maintenance; DROP INDEX %s and recreate it",
				indexName, have, table, want, indexName)
		}
		// Content-level check: equal counts do not prove consistency
		// (unattended insert-then-delete DML nets to zero rows). The
		// persisted checksum mirror reflects exactly the DML this index
		// was maintained with; the base table's content checksum reflects
		// all DML. Divergence means maintenance was skipped. Indexes
		// created before the mirror existed have no chk relation and fall
		// back to the count check alone.
		if chkTab, err := e.DB().Table(chkTableName(indexName)); err == nil {
			found := false
			var chk uint64
			var chkRid rel.RowID
			scanErr := chkTab.Scan(func(rid rel.RowID, row []int64) bool {
				chkRid, chk, found = rid, uint64(row[0]), true
				return false
			})
			if scanErr != nil {
				return nil, scanErr
			}
			if !found {
				return nil, fmt.Errorf("ritree indextype: checksum relation of index %s is empty", indexName)
			}
			if have := tab.ContentChecksum(); chk != have {
				return nil, fmt.Errorf("ritree indextype: persisted index %s is stale: content checksum %x does not match table %s checksum %x — DML ran without index maintenance (row counts happen to agree); DROP INDEX %s and recreate it",
					indexName, chk, table, have, indexName)
			}
			ix.chkTab, ix.chkRid, ix.chk = chkTab, chkRid, chk
		}
		ix.tree = tree
	}
	return ix, nil
}

// foldChecksum XORs delta into the persisted checksum mirror. A nil
// chkTab (an index created before the mirror existed and attached via
// the fallback path) keeps working without content-level detection.
func (ix *indexType) foldChecksum(delta uint64) error {
	if ix.chkTab == nil {
		return nil
	}
	ix.chk ^= delta
	if err := ix.chkTab.Update(ix.chkRid, []int64{int64(ix.chk)}); err != nil {
		ix.chk ^= delta
		return err
	}
	return nil
}

// Name implements sqldb.Index.
func (ix *indexType) Name() string { return ix.name }

// Table implements sqldb.Index.
func (ix *indexType) Table() string { return ix.table }

// Columns implements sqldb.Index.
func (ix *indexType) Columns() []string { return append([]string(nil), ix.cols...) }

// HasOperator implements sqldb.Index.
func (ix *indexType) HasOperator(op string) bool {
	op = strings.ToLower(op)
	return op == OperatorIntersects || op == OperatorContainsPoint
}

// HasOrdered implements sqldb.Index: the tree clusters by fork node, not
// by lower bound, so merge joins sort its side explicitly.
func (ix *indexType) HasOrdered() bool { return false }

// Apply implements sqldb.Index: index maintenance by trigger (§5: "the
// computation and storage of the fork node ... can be performed
// automatically by database triggers"). The checksum mirror folds in the
// same rows the heap folds in, keeping the two in lockstep.
//
// The batch is validated up front, so a refused batch leaves the tree
// untouched; after validation the only remaining failure mode is a
// page-store I/O error, the same mid-statement hazard every other write
// path shares. A batch at least as large as the tree goes through
// Tree.BulkLoad, which rebuilds the composite indexes tightly packed
// instead of paying a B+-tree insert per row; BulkLoad drops those
// indexes while it runs, which is why it must only ever see input it
// will accept. Smaller batches — a single-row statement is a batch of one
// — insert row by row.
func (ix *indexType) Apply(ins, del []sqldb.Entry) error {
	ivs := make([]interval.Interval, len(ins))
	ids := make([]int64, len(ins))
	delta := uint64(0)
	for i, en := range ins {
		iv, ok := ix.interval(en.Row)
		if !ok {
			return fmt.Errorf("ritree indextype: invalid interval %v (row %d of %d)", iv, i, len(ins))
		}
		ivs[i], ids[i] = iv, int64(en.RID)
		delta ^= rel.RowChecksum(en.Row, en.RID)
	}
	if len(ins) > 1 && int64(len(ins)) >= ix.tree.Count() {
		if err := ix.tree.BulkLoad(ivs, ids); err != nil {
			return err
		}
	} else {
		for i := range ivs {
			if err := ix.tree.Insert(ivs[i], ids[i]); err != nil {
				return err
			}
		}
	}
	for _, en := range del {
		iv, ok := ix.interval(en.Row)
		if !ok {
			continue // never indexed
		}
		if _, err := ix.tree.Delete(iv, int64(en.RID)); err != nil {
			return err
		}
		delta ^= rel.RowChecksum(en.Row, en.RID)
	}
	return ix.foldChecksum(delta)
}

// interval extracts a row's indexed interval; ok is false when the tree
// cannot hold it (inverted bounds that are neither infinite nor
// now-relative).
func (ix *indexType) interval(row []int64) (iv interval.Interval, ok bool) {
	iv = interval.New(row[ix.loPos], row[ix.hiPos])
	return iv, iv.Valid() || iv.Upper == interval.Infinity || iv.Upper == interval.NowMarker
}

// SetNow implements sqldb.Index: the RI-tree carries the paper's §4.6
// now-relative interval semantics into the unified collection API.
func (ix *indexType) SetNow(now int64) error {
	ix.tree.SetNow(now)
	return nil
}

// Persist implements sqldb.Index as a no-op: the tree's relations live in
// the page store and are durable with every commit.
func (ix *indexType) Persist() error { return nil }

// opQuery resolves an operator invocation into the query interval.
func opQuery(op string, args []int64) (interval.Interval, error) {
	switch strings.ToLower(op) {
	case OperatorIntersects:
		if len(args) != 2 {
			return interval.Interval{}, fmt.Errorf("ritree indextype: INTERSECTS needs (:lo, :hi), got %d args", len(args))
		}
		return interval.New(args[0], args[1]), nil
	case OperatorContainsPoint:
		if len(args) != 1 {
			return interval.Interval{}, fmt.Errorf("ritree indextype: CONTAINS_POINT needs (:p), got %d args", len(args))
		}
		return interval.Point(args[0]), nil
	}
	return interval.Interval{}, fmt.Errorf("ritree indextype: unknown operator %q", op)
}

// reader is the index bound to one relational state: a Tree over that
// state's hidden relations.
type reader struct{ t *Tree }

// Reader implements sqldb.Index: the RI-tree's relational storage lives
// entirely in the page store, so a Reader over a snapshot's shadow
// database is simply the same tree opened read-only against it — it sees
// exactly the committed B+-tree state the snapshot pinned, with the
// evaluation clock frozen at the live tree's current now. Over the live
// database it is the live tree itself.
func (ix *indexType) Reader(db *rel.DB) (sqldb.Reader, error) {
	if db == ix.tree.db {
		return reader{ix.tree}, nil
	}
	opts := ix.tree.opts
	// Never materialize on a read-only view — Open with the backbone
	// option only reads the persisted parameter row anyway, but be
	// explicit that a snapshot must not trigger writes.
	opts.MaterializeBackbone = false
	t, err := Open(db, hiddenTreeName(ix.name), opts)
	if err != nil {
		return nil, err
	}
	t.SetNow(ix.tree.Now())
	return reader{t}, nil
}

// Scan implements sqldb.Reader: the operator dispatch.
func (r reader) Scan(op string, args []int64, fn func(rid rel.RowID) bool) error {
	q, err := opQuery(op, args)
	if err != nil {
		return err
	}
	return r.t.IntersectingFunc(q, func(id int64) bool {
		return fn(rel.RowID(id))
	})
}

// Count implements sqldb.Reader.
func (r reader) Count(op string, args []int64) (int64, error) {
	q, err := opQuery(op, args)
	if err != nil {
		return 0, err
	}
	return r.t.CountIntersecting(q)
}

// Ordered implements sqldb.Reader; HasOrdered is false, so the engine
// never calls it.
func (r reader) Ordered(func(rid rel.RowID, lo, hi int64) bool) error {
	return fmt.Errorf("ritree indextype: no lower-ordered feed")
}

// Now implements sqldb.Reader.
func (r reader) Now() (int64, bool) { return r.t.Now(), true }

// Drop implements sqldb.Index.
func (ix *indexType) Drop() error {
	if err := ix.tree.Drop(); err != nil {
		return err
	}
	if err := ix.tree.db.DropTable(chkTableName(ix.name)); err != nil && !errors.Is(err, rel.ErrNoSuchTable) {
		return err
	}
	return nil
}

// BindMetrics implements sqldb.Index: the engine calls it with the DB's
// registry and an "index.<name>" prefix when the index is created or
// re-attached, wiring the RI-tree query-shape counters into the same
// family as the executor and page-store metrics.
func (ix *indexType) BindMetrics(reg *obs.Registry, prefix string) {
	ix.tree.SetMetrics(reg, prefix)
}

// BackingTree exposes the hidden RI-tree (for statistics in tests and
// benchmarks).
func (ix *indexType) BackingTree() *Tree { return ix.tree }
