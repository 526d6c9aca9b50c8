package ritree

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"strings"

	"ritree/internal/rel"
	"ritree/internal/sqldb"
)

// Collection is one named interval collection of a DB: a base relation of
// (lower, upper, id) rows plus the access-method domain index serving its
// queries (paper §5 — the server "automatically triggers the maintenance
// and scan of custom indexes"). Query results stream through the access
// method and map row ids back to the base relation, exactly the paper's
// domain-index query shape. Every access method answers the same queries
// the same way: slice-returning methods report ids ascending, and Scan
// streams without materializing and is the cancellable form.
//
// Methods are safe for concurrent use under the owning DB's lock: queries
// run concurrently with each other, mutations are exclusive. The
// now-relative intervals of §4.6 (Upper == NowMarker, SetNow) are served
// when the access method implements them (ritree); other methods reject
// such rows instead of silently mis-answering.
type Collection struct {
	db     *DB
	name   string
	method string
	tab    *rel.Table
	ci     sqldb.Index
}

// reader binds the access method to the live database for one synchronous
// read. Caller holds the DB lock (read or write), which keeps writers out
// for the Reader's life.
func (c *Collection) reader() (sqldb.Reader, error) { return c.ci.Reader(c.db.rdb) }

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Method returns the name of the access method serving the collection.
func (c *Collection) Method() string { return c.method }

// Count returns the number of registered intervals.
func (c *Collection) Count() int64 {
	c.db.mu.RLock()
	defer c.db.mu.RUnlock()
	return c.tab.RowCount()
}

// String summarizes the collection.
func (c *Collection) String() string {
	return fmt.Sprintf("ritree.Collection{%s, method=%s, n=%d}", c.name, c.method, c.Count())
}

// Metrics returns this collection's access-method counters from the DB's
// metrics registry, keyed by bare metric name (the "index.<name>."
// family prefix stripped): RI-tree collections report queries,
// node_visits and scratch-pool reuse; HINT collections report queries,
// shard_scans, partitions visited/skipped and flat-vs-overlay run
// counts. Counters are cumulative since the index was attached.
func (c *Collection) Metrics() map[string]int64 {
	prefix := "index." + sqldb.CollectionIndexName(c.name) + "."
	out := make(map[string]int64)
	for name, v := range c.db.Metrics().Counters {
		if strings.HasPrefix(name, prefix) {
			out[strings.TrimPrefix(name, prefix)] = v
		}
	}
	return out
}

func (c *Collection) checkInsert(iv Interval) error {
	if !iv.Valid() && iv.Upper != Infinity && iv.Upper != NowMarker {
		return fmt.Errorf("ritree: invalid interval %v", iv)
	}
	return nil
}

// Insert registers iv under id.
func (c *Collection) Insert(iv Interval, id int64) error {
	if err := c.checkInsert(iv); err != nil {
		return err
	}
	c.db.mu.Lock()
	defer c.db.mu.Unlock()
	_, err := c.db.eng.InsertRow(c.name, []int64{iv.Lower, iv.Upper, id})
	return err
}

// InsertInfinite registers [lower, ∞) under id.
func (c *Collection) InsertInfinite(lower, id int64) error {
	return c.Insert(NewInterval(lower, Infinity), id)
}

// InsertNow registers the now-relative interval [lower, now] under id
// (§4.6). Access methods without a now clock (hint) refuse the row.
func (c *Collection) InsertNow(lower, id int64) error {
	return c.Insert(Interval{Lower: lower, Upper: NowMarker}, id)
}

// BulkLoad inserts ivs[i] under ids[i] through the access method's bulk
// path (tightly packed relational indexes, flat HINT layout).
func (c *Collection) BulkLoad(ivs []Interval, ids []int64) error {
	if len(ivs) != len(ids) {
		return fmt.Errorf("ritree: BulkLoad got %d intervals, %d ids", len(ivs), len(ids))
	}
	for _, iv := range ivs {
		if err := c.checkInsert(iv); err != nil {
			return err
		}
	}
	rows := make([][]int64, len(ivs))
	for i, iv := range ivs {
		rows[i] = []int64{iv.Lower, iv.Upper, ids[i]}
	}
	c.db.mu.Lock()
	defer c.db.mu.Unlock()
	_, err := c.db.eng.BulkInsert(c.name, rows)
	return err
}

// IntervalRow is one (interval, id) pair for InsertMany.
type IntervalRow struct {
	Interval Interval
	ID       int64
}

// InsertMany registers every row in one batch: one engine lock, one heap
// append per row, and one maintenance pass per domain index (Index.Apply
// — the RI-tree bulk-loads a batch that outgrows the tree, HINT publishes
// one generation per shard), instead of paying the statement overhead row
// by row. Like Insert, the whole batch is validated first;
// a refused batch leaves the collection unchanged.
func (c *Collection) InsertMany(rows []IntervalRow) error {
	if len(rows) == 0 {
		return nil
	}
	for _, r := range rows {
		if err := c.checkInsert(r.Interval); err != nil {
			return err
		}
	}
	raw := make([][]int64, len(rows))
	for i, r := range rows {
		raw[i] = []int64{r.Interval.Lower, r.Interval.Upper, r.ID}
	}
	c.db.mu.Lock()
	defer c.db.mu.Unlock()
	_, err := c.db.eng.BulkInsert(c.name, raw)
	return err
}

// Delete removes one registration of (iv, id), reporting whether it
// existed. The matching row is located through the access method's
// intersection scan — so a miss (deleting a pair that was never
// inserted) costs one index probe, not a table scan. Now-relative rows
// are the one shape the probe cannot locate (their effective extent is
// the method's clock, not their stored bounds); those take a heap scan.
func (c *Collection) Delete(iv Interval, id int64) (bool, error) {
	c.db.mu.Lock()
	defer c.db.mu.Unlock()
	var found rel.RowID
	ok := false
	match := func(rid rel.RowID, row []int64) bool {
		if row[0] == iv.Lower && row[1] == iv.Upper && row[2] == id {
			found, ok = rid, true
			return false
		}
		return true
	}
	switch {
	case iv.Upper == NowMarker:
		if err := c.tab.Scan(match); err != nil {
			return false, err
		}
	case iv.Valid():
		rd, err := c.reader()
		if err != nil {
			return false, err
		}
		if err := c.scanRows(rd, iv, match); err != nil {
			return false, err
		}
	default:
		return false, nil // invalid interval: never inserted
	}
	if !ok {
		return false, nil
	}
	return true, c.db.eng.DeleteRowID(c.name, found)
}

// scanRows streams the base row of every interval the access method
// reports as intersecting q; return false from fn to stop early. A row id
// whose row is gone (rel.ErrNoSuchRow) is skipped; any other read failure
// stops the scan and is returned, so a page that cannot be read is an
// error and never a shorter answer. Caller holds the DB lock.
func (c *Collection) scanRows(rd sqldb.Reader, q Interval, fn func(rid rel.RowID, row []int64) bool) error {
	row := make([]int64, 3)
	var readErr error
	err := rd.Scan(q, func(rid rel.RowID) bool {
		if err := c.tab.GetRawInto(rid, row); err != nil {
			if errors.Is(err, rel.ErrNoSuchRow) {
				return true
			}
			readErr = err
			return false
		}
		return fn(rid, row)
	})
	if readErr != nil {
		return readErr
	}
	return err
}

// IntersectingFunc streams the ids of intervals intersecting q in no
// particular order; return false from fn to stop early. fn runs under the
// DB read lock and must not call mutating methods. An inverted q is an
// error, as it is in SQL.
func (c *Collection) IntersectingFunc(q Interval, fn func(id int64) bool) error {
	if err := sqldb.IntersectsQuery(q); err != nil {
		return err
	}
	c.db.mu.RLock()
	defer c.db.mu.RUnlock()
	rd, err := c.reader()
	if err != nil {
		return err
	}
	return c.scanRows(rd, q, func(_ rel.RowID, row []int64) bool { return fn(row[2]) })
}

// Intersecting returns the ids of all intervals intersecting q, ascending.
func (c *Collection) Intersecting(q Interval) ([]int64, error) {
	var ids []int64
	if err := c.IntersectingFunc(q, func(id int64) bool { ids = append(ids, id); return true }); err != nil {
		return nil, err
	}
	slices.Sort(ids)
	return ids, nil
}

// CountIntersecting returns the number of intervals intersecting q. It
// counts index hits directly, with no base-relation lookups, through the
// access method's counting path (the sharded HINT fans one goroutine per
// shard).
func (c *Collection) CountIntersecting(q Interval) (int64, error) {
	if err := sqldb.IntersectsQuery(q); err != nil {
		return 0, err
	}
	c.db.mu.RLock()
	defer c.db.mu.RUnlock()
	rd, err := c.reader()
	if err != nil {
		return 0, err
	}
	return rd.Count(q)
}

// Stab returns the ids of all intervals containing the point p, ascending.
func (c *Collection) Stab(p int64) ([]int64, error) {
	return c.Intersecting(Point(p))
}

// Query returns the ids of all intervals i with "i r q" for any of
// Allen's thirteen relations, ascending. It drains Scan(Related(r, q)),
// so it reads a snapshot through the SQL operator like every ALLEN_*
// query.
func (c *Collection) Query(r Relation, q Interval) ([]int64, error) {
	var ids []int64
	for id, err := range c.Scan(context.Background(), Related(r, q)) {
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids, nil
}

// SetNow sets the evaluation time for now-relative intervals (§4.6) on
// access methods that keep one (ritree); others return an error.
func (c *Collection) SetNow(now int64) error {
	c.db.mu.Lock()
	defer c.db.mu.Unlock()
	return c.db.eng.SetIndexNow(c.ci.Name(), now)
}

// Now returns the evaluation time for now-relative intervals, or false if
// the access method keeps none.
func (c *Collection) Now() (int64, bool) {
	c.db.mu.RLock()
	defer c.db.mu.RUnlock()
	rd, err := c.reader()
	if err != nil {
		return 0, false
	}
	return rd.Now()
}

// scanStatement translates a streaming Query into the SQL statement and
// binds serving it — Collection.Scan runs over the engine's snapshot
// cursors, so it shares their operator rewrites (INTERSECTS,
// CONTAINS_POINT, ALLEN_*) and their no-lock streaming.
func (c *Collection) scanStatement(q Query) (string, map[string]interface{}, error) {
	switch q.kind {
	case queryIntersects:
		return "SELECT id FROM " + c.name + " WHERE intersects(lower, upper, :qlo, :qhi)",
			map[string]interface{}{"qlo": q.iv.Lower, "qhi": q.iv.Upper}, nil
	case queryStab:
		return "SELECT id FROM " + c.name + " WHERE contains_point(lower, upper, :p)",
			map[string]interface{}{"p": q.p}, nil
	case queryRelation:
		op := "allen_" + strings.ReplaceAll(q.r.String(), "-", "_")
		return "SELECT id FROM " + c.name + " WHERE " + op + "(lower, upper, :qlo, :qhi)",
			map[string]interface{}{"qlo": q.iv.Lower, "qhi": q.iv.Upper}, nil
	}
	return "", nil, errZeroQuery
}

// Scan streams the ids matching q as a cancellable range-over-func
// iterator. The scan holds NO lock: it reads from a page-store snapshot
// pinned when iteration starts, so concurrent writes — including
// mutating this collection from inside the loop — proceed freely and
// never shift the scan's results. A cancelled ctx surfaces as the
// iterator's final (0, err) pair.
func (c *Collection) Scan(ctx context.Context, q Query) iter.Seq2[int64, error] {
	return scanSeq(ctx, func(fn func(int64) bool) error {
		sql, binds, err := c.scanStatement(q)
		if err != nil {
			return err
		}
		rows, err := c.db.Query(ctx, sql, binds)
		if err != nil {
			return err
		}
		defer rows.Close()
		for rows.Next() {
			if !fn(rows.Row()[0]) {
				break
			}
		}
		return rows.Err()
	})
}
