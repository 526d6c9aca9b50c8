package main

import (
	"database/sql"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"ritree"
	"ritree/driver"
	"ritree/internal/hint"
	"ritree/internal/interval"
	"ritree/internal/obs"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	ritcore "ritree/internal/ritree"
	"ritree/internal/workload"
)

// rung is one layer's public entry point as the call ladder calls it,
// from outside: the access method alone, then the collection, the SQL
// engine, and the driver or the server where the workload uses them. Each
// rung does everything the rung below does and its own layer's work, so
// the difference between two rungs on the same query is the upper layer's
// self time.
type rung struct {
	layer string
	call  runFn
}

// span is one call of one rung. The rungs called for one pooled query
// share a parent: the root span of that query, whose rung is -1.
type span struct {
	rung       int8
	query      int32
	parent     int32
	rows       int32
	start, end int64 // nanoseconds since the pass began
}

// ladder is the rungs of one workload with the standalone copies of the
// access method under the lowest rung.
type ladder struct {
	reads   []rung
	inserts []rung // each call inserts one fresh row at that layer
	closers []func()
	// entriesPerInterval is HINT's replication: stored entries per interval.
	entriesPerInterval float64
}

// close releases the standalone copies; calling it again does nothing.
func (l *ladder) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
	l.closers = nil
}

// hintShift mirrors the geometry the hint indextype picks for data in
// [0, 2^20): a 2^22 domain with a quarter of it below the smallest start.
const (
	hintBits  = 22
	hintShift = int64(1) << hintBits / 4
)

func shifted(iv interval.Interval) interval.Interval {
	return interval.New(iv.Lower+hintShift, iv.Upper+hintShift)
}

func standaloneHINT(method string, ivs []interval.Interval, ids []int64) (*hint.Sharded, error) {
	shards := 1
	if method == hint.ShardedIndexTypeName {
		shards = hint.DefaultIndexShards()
	}
	sh, err := hint.NewSharded(hint.Options{Bits: hintBits, Levels: hint.DefaultLevels, Shards: shards})
	if err != nil {
		return nil, err
	}
	moved := make([]interval.Interval, len(ivs))
	for i, iv := range ivs {
		moved[i] = shifted(iv)
	}
	return sh, sh.BulkLoad(moved, ids)
}

// standaloneRITree builds an RI-tree in a page store of its own, loaded
// under a cache that fits and reopened under the shipped 200 pages.
func standaloneRITree(path string, ivs []interval.Interval, ids []int64) (*ritcore.Tree, *rel.DB, error) {
	open := func(cache int) (*pagestore.Store, error) {
		be, err := pagestore.OpenFileBackend(path, pagestore.DefaultPageSize)
		if err != nil {
			return nil, err
		}
		return pagestore.New(be, pagestore.Options{CacheSize: cache})
	}
	st, err := open(fitCache)
	if err != nil {
		return nil, nil, err
	}
	rdb, err := rel.CreateDB(st)
	if err != nil {
		return nil, nil, err
	}
	tree, err := ritcore.Create(rdb, "iv", ritcore.Options{})
	if err == nil {
		err = tree.BulkLoad(ivs, ids)
	}
	if cerr := rdb.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	if st, err = open(pagestore.DefaultCacheSize); err != nil {
		return nil, nil, err
	}
	if rdb, err = rel.OpenDB(st, 1); err != nil {
		return nil, nil, err
	}
	tree, err = ritcore.Open(rdb, "iv", ritcore.Options{})
	return tree, rdb, err
}

// scanRung is a rung over an IntersectingFunc-shaped entry point: it
// streams the ids matching pooled query i (moved into the index's own
// coordinates if it has any) and compares count and sum with the oracle.
// The callback and its counters are made once, so that a call allocates
// only what the layer under it allocates; one goroutine calls a rung.
func (in *instance) scanRung(layer string, scan func(interval.Interval, func(int64) bool) error, move func(interval.Interval) interval.Interval) rung {
	var rows, sum int64
	tally := func(id int64) bool { rows++; sum += id; return true }
	return rung{layer, func(i int) (int64, error) {
		q := &in.pool[i]
		iv := interval.New(q.args[0], q.args[1])
		if move != nil {
			iv = move(iv)
		}
		rows, sum = 0, 0
		err := scan(iv, tally)
		return rows, verify(err, layer, rows, sum, q)
	}}
}

// verify compares one rung's answer with the oracle's.
func verify(err error, layer string, rows, sum int64, q *query) error {
	if err == nil && (rows != q.rows || sum != q.sum) {
		err = fmt.Errorf("%s on %v: got (%d rows, sum %d), want (%d, %d): %w", layer, q.args, rows, sum, q.rows, q.sum, errMismatch)
	}
	return err
}

// buildLadder makes the rungs of the instance's workload, lowest first.
func (in *instance) buildLadder() (*ladder, error) {
	l := &ladder{}
	n := in.wr.n
	data, ids := in.wr.arrivals[:n], workload.IDs(n)
	fresh := twinBase * 2 // ids of the rows the insert rungs add
	next := func() (interval.Interval, int64) {
		fresh++
		return in.wr.arrival(n + int(fresh%int64(len(in.wr.arrivals)-n))), fresh
	}

	// The access method alone, on a standalone copy of the same intervals.
	switch {
	case in.join:
		a, err := standaloneHINT(in.method, data, ids)
		if err != nil {
			return nil, err
		}
		b, err := standaloneHINT(in.method, in.other, ids)
		if err != nil {
			return nil, err
		}
		want := int64(len(data) + len(in.other))
		l.reads = append(l.reads, rung{"hint", func(int) (int64, error) {
			var rows int64
			count := func(lo, hi, id int64) bool { rows++; return true }
			a.ScanStartOrdered(count)
			b.ScanStartOrdered(count)
			if rows != want {
				return rows, fmt.Errorf("hint ordered scans delivered %d rows, want %d: %w", rows, want, errMismatch)
			}
			return rows, nil
		}})
		l.inserts = append(l.inserts, rung{"hint", func(int) (int64, error) {
			iv, id := next()
			return 0, a.Insert(shifted(iv), id)
		}})
		l.entriesPerInterval = float64(a.Entries()) / float64(a.Count())
	case in.method == ritcore.IndexTypeName:
		path := in.path + ".am"
		tree, rdb, err := standaloneRITree(path, data, ids)
		if err != nil {
			return nil, err
		}
		l.closers = append(l.closers, func() { rdb.Close(); os.Remove(path) })
		l.reads = append(l.reads, in.scanRung("ritree", tree.IntersectingFunc, nil))
		l.inserts = append(l.inserts, rung{"ritree", func(int) (int64, error) {
			iv, id := next()
			return 0, tree.Insert(iv, id)
		}})
	default:
		sh, err := standaloneHINT(in.method, data, ids)
		if err != nil {
			return nil, err
		}
		l.reads = append(l.reads, in.scanRung("hint", sh.IntersectingFunc, shifted))
		l.inserts = append(l.inserts, rung{"hint", func(int) (int64, error) {
			iv, id := next()
			return 0, sh.Insert(shifted(iv), id)
		}})
		l.entriesPerInterval = float64(sh.Entries()) / float64(sh.Count())
	}

	// The collection: the indextype's scan plus the heap fetch by row id.
	col, err := in.db.Collection(in.table())
	if err != nil {
		return nil, err
	}
	if !in.join {
		l.reads = append(l.reads, in.scanRung("collection", col.IntersectingFunc, nil))
	}
	l.inserts = append(l.inserts, rung{"collection", func(int) (int64, error) {
		iv, id := next()
		return 0, col.Insert(iv, id)
	}})

	// The SQL engine: DB.Query drained, DB.Exec for the insert.
	emb := embedded{in.db}
	l.reads = append(l.reads, rung{"sqldb", in.checkedReader(emb)})
	l.inserts = append(l.inserts, rung{"sqldb", func(int) (int64, error) {
		iv, id := next()
		_, err := emb.exec(in.wr.insert, iv.Lower, iv.Upper, id)
		return 0, err
	}})

	// database/sql: embedded over file://, or over tcp:// to the server.
	switch {
	case in.fileSQL != nil:
		c, err := newSQLConn(in.fileSQL)
		if err != nil {
			return nil, err
		}
		l.closers = append(l.closers, func() { c.close() })
		l.reads = append(l.reads, rung{"driver", in.checkedReader(c)})
	case len(in.sqlConns) > 0:
		l.reads = append(l.reads, rung{"server", in.checkedReader(in.sqlConns[0])})
	}
	return l, nil
}

// viaDriver reopens the instance's database through database/sql over
// file://, so that the driver rung and the rungs below it read the same
// open database. The driver can pass no options: this fits only a
// workload that measures the shipped defaults.
func (in *instance) viaDriver() error {
	if err := in.closeDB(); err != nil {
		return err
	}
	conn, err := (&driver.Driver{}).OpenConnector("file://" + in.path)
	if err != nil {
		return err
	}
	in.fileSQL = sql.OpenDB(conn)
	in.db, err = conn.(*driver.Connector).DB()
	if err == nil {
		in.readers = []target{embedded{in.db}}
		in.wr.tgt = embedded{in.db}
	}
	return err
}

// climb calls every rung in turn for each pooled query, in one goroutine,
// for dur, and records one span per call.
func climb(rungs []rung, cycle int, dur time.Duration, o *outcome) []span {
	spans := make([]span, 0, 1<<20)
	start := time.Now()
	for i := 0; ; i++ {
		q := i % cycle
		root := len(spans)
		spans = append(spans, span{rung: -1, query: int32(q), parent: -1})
		began := time.Since(start)
		t0 := began
		for r := range rungs {
			rows, err := rungs[r].call(q)
			t1 := time.Since(start)
			spans = append(spans, span{rung: int8(r), query: int32(q), parent: int32(root), rows: int32(rows), start: int64(t0), end: int64(t1)})
			o.check(err)
			t0 = t1
		}
		spans[root].start, spans[root].end = int64(began), int64(t0)
		if t0 >= dur {
			return spans
		}
	}
}

// rungTimes is what the spans say about one rung. All in nanoseconds.
type rungTimes struct {
	call, self, selfPerRow float64 // medians over the queries
	meanRows               float64
}

// analyse derives each rung's cumulative time and self time from the
// spans: self is the rung's time minus the time of the rung below for the
// same query, and the median is taken over queries.
func analyse(spans []span, nrungs int) []rungTimes {
	calls := make([][]float64, nrungs)
	selfs := make([][]float64, nrungs)
	perRow := make([][]float64, nrungs)
	rows := make([]float64, nrungs)
	var below float64
	for _, s := range spans {
		if s.rung < 0 {
			below = 0
			continue
		}
		d := float64(s.end - s.start)
		calls[s.rung] = append(calls[s.rung], d)
		selfs[s.rung] = append(selfs[s.rung], d-below)
		if s.rows > 0 {
			perRow[s.rung] = append(perRow[s.rung], (d-below)/float64(s.rows))
		}
		rows[s.rung] += float64(s.rows)
		below = d
	}
	out := make([]rungTimes, nrungs)
	for r := range out {
		out[r] = rungTimes{call: median(calls[r]), self: median(selfs[r]), selfPerRow: median(perRow[r]), meanRows: rows[r] / float64(len(calls[r]))}
	}
	return out
}

// dumpSpans appends the spans of one workload's traced pass to the file.
func dumpSpans(path, workload string, rungs []rung, spans []span) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, s := range spans {
		name := "query"
		if s.rung >= 0 {
			name = rungs[s.rung].layer
		}
		err = enc.Encode(map[string]interface{}{
			"workload": workload, "span": i, "name": name, "query": s.query,
			"start_ns": s.start, "end_ns": s.end, "parent": s.parent, "rows": s.rows,
		})
		if err != nil {
			break
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// batch calls fn k times and returns the objects allocated per call (by
// the whole process: with one client goroutine that is the call's own
// allocations plus those of the goroutines serving it) and how the
// database's counters moved.
func batch(db *ritree.DB, fn runFn, cycle, k int, o *outcome) (allocs float64, moved obs.Snapshot, rows int64) {
	var m0, m1 runtime.MemStats
	c0 := db.Metrics()
	runtime.ReadMemStats(&m0)
	for i := 0; i < k; i++ {
		r, err := fn(i % cycle)
		rows += r
		o.check(err)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(k), db.Metrics().Sub(c0), rows
}

// timed calls fn k times and returns the median microseconds of a call.
func timed(fn runFn, cycle, k int, o *outcome) float64 {
	took := make([]float64, k)
	for i := range took {
		t0 := time.Now()
		_, err := fn(i % cycle)
		took[i] = float64(time.Since(t0)) / 1e3
		o.check(err)
	}
	return median(took)
}

// indexCounter sums a counter over the access-method indexes of the
// database ("index.<collection>$am.<name>").
func indexCounter(s obs.Snapshot, name string) float64 {
	var total int64
	for k, v := range s.Counters {
		if strings.HasPrefix(k, "index.") && strings.HasSuffix(k, "."+name) {
			total += v
		}
	}
	return float64(total)
}

// batchSize is how many calls of a rung whose median call takes ns
// nanoseconds make a batch: about 0.3 s of them.
func batchSize(ns float64) int { return min(max(int(3e8/ns), 8), 512) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
