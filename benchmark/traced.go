package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ritree"
	"ritree/internal/interval"
	"ritree/internal/obs"
	"ritree/internal/pagestore"
	ritcore "ritree/internal/ritree"
	"ritree/internal/sqldb"
)

// traced is one traced pass: the instance, its ladder, and where the
// per-layer metrics go.
type traced struct {
	*outcome
	cfg   config
	in    *instance
	lad   *ladder
	cycle int // pooled queries
	m     map[string]float64
}

// runTraced replays the workload's query pool through the call ladder
// with one span per call, and reads the engine's own counters as deltas.
// It gives the per-layer metrics; nothing end to end comes from here.
func runTraced(s spec, cfg config) (*outcome, error) {
	o := &outcome{metrics: make(map[string]float64)}
	in, err := setUp(s, cfg.seed, cfg.scale, cfg.dir)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	defer in.destroy()
	o.metrics["runtime.heap_inuse_mb"] = float64(memStats().HeapInuse) / (1 << 20)
	if s.cache == 0 {
		if err := in.viaDriver(); err != nil {
			return nil, fmt.Errorf("%s: open over file://: %w", s.name, err)
		}
	}
	lad, err := in.buildLadder()
	if err != nil {
		return nil, fmt.Errorf("%s: ladder: %w", s.name, err)
	}
	defer lad.close()
	t := &traced{outcome: o, cfg: cfg, in: in, lad: lad, cycle: len(in.pool), m: o.metrics}

	refP50 := t.reference()
	spans := climb(lad.reads, t.cycle, cfg.dur, o)
	if cfg.traceOut != "" {
		if err := dumpSpans(cfg.traceOut, s.name, lad.reads, spans); err != nil {
			return nil, err
		}
	}
	times := analyse(spans, len(lad.reads))
	top := times[len(times)-1]
	t.m["trace_overhead_ratio"] = ratio(top.call/1e3, refP50)
	t.notef("%d spans over %d rungs", len(spans), len(lad.reads))
	t.rungs(times)
	if err := t.entryPoints(batchSize(top.call)); err != nil {
		return nil, err
	}
	t.writes(batchSize(top.call))
	if err := t.persist(); err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	return o, nil
}

// reference runs the top rung untraced, by one client and then by all of
// the workload's clients, and returns the one client's p50 in microseconds.
func (t *traced) reference() float64 {
	top := t.lad.reads[len(t.lad.reads)-1].call
	drive(closed(top), t.cycle, t.cfg.warmUp(), 1<<10)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	logs, wall, _ := drive(closed(top), t.cycle, t.cfg.window(), 1<<16)
	runtime.ReadMemStats(&m1)
	one := merge(logs)
	t.count(one)
	t.m["runtime.gc_cycles_per_s"] = float64(m1.NumGC-m0.NumGC) / wall.Seconds()
	t.m["runtime.gc_pause_ms_per_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / wall.Seconds()
	t.m["runtime.alloc_bytes_per_stmt"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(one.ops))
	if t.in.conns > 0 {
		logs, wall2, _ := drive(closed(t.in.readFns()...), t.cycle, t.cfg.window(), 1<<16)
		all := merge(logs)
		t.count(all)
		t.m["server.stmt_per_s_1conn"] = float64(one.ops) / wall.Seconds()
		t.m["server.conn_scaling"] = ratio(float64(all.ops)/wall2.Seconds(), t.m["server.stmt_per_s_1conn"])
	}
	return one.percentileUs(0.5)
}

// rungs reports each rung's times from the spans, and from a batch of
// calls per rung its allocations and the engine counters it moves.
func (t *traced) rungs(times []rungTimes) {
	m, in := t.m, t.in
	var allocsBelow float64
	// The counters of the top rung's batch (the statement as the workload
	// issues it) and of the collection rung's.
	var top, live obs.Snapshot
	var stmts, rowsOut float64
	for r, rg := range t.lad.reads {
		rt := times[r]
		k := batchSize(rt.call)
		allocs, moved, rows := batch(in.db, rg.call, t.cycle, k, t.outcome)
		m[rg.layer+".call_p50_us"] = rt.call / 1e3
		m[rg.layer+".self_p50_us"] = rt.self / 1e3
		m[rg.layer+".allocs_per_call"] = allocs
		if rt.meanRows >= 8 { // a cost per row means something on range scans only
			m[rg.layer+".self_ns_per_row"] = rt.selfPerRow
			m[rg.layer+".allocs_per_row"] = (allocs - allocsBelow) / rt.meanRows
		}
		t.notef("rung %-10s call p50 %9.1f µs  self p50 %9.1f µs  %7.1f allocs/call  %6.1f rows/call", rg.layer, rt.call/1e3, rt.self/1e3, allocs, rt.meanRows)
		allocsBelow = allocs
		top, stmts, rowsOut = moved, float64(k), float64(rows)
		if rg.layer == "collection" {
			// The engine counts page reads and RI-tree node visits made
			// through the live store only. Collection.IntersectingFunc
			// reads that way; DB.Query and all above it read through a
			// snapshot view, which no counter sees. So those counts are
			// the collection rung's.
			live = moved
			logical, physical := float64(moved.Counter("pagestore.logical_reads")), float64(moved.Counter("pagestore.physical_reads"))
			m["pagestore.logical_reads_per_stmt"] = logical / stmts
			m["pagestore.physical_reads_per_stmt"] = physical / stmts
			m["pagestore.hit_ratio"] = 1 - ratio(physical, logical)
			m["pagestore.evictions_per_stmt"] = float64(moved.Counter("pagestore.evictions")) / stmts
		}
	}
	ctr := func(name string) float64 { return float64(top.Counter(name)) }
	m["sqldb.leaf_rows_per_row_out"] = ratio(ctr("sql.leaf_rows"), ctr("sql.rows_out"))
	m["sqldb.plancache_hit_ratio"] = ratio(ctr("sql.plancache.hits"), ctr("sql.plancache.hits")+ctr("sql.plancache.misses"))
	switch queries := indexCounter(live, "queries"); {
	case in.method == ritcore.IndexTypeName:
		m["ritree.node_visits_per_query"] = ratio(indexCounter(live, "node_visits"), queries)
		hits := indexCounter(live, "scratch_hits")
		m["ritree.scratch_hit_ratio"] = ratio(hits, hits+indexCounter(live, "scratch_misses"))
	case in.join: // an ordered scan visits no partitions
		m["hint.entries_per_interval"] = t.lad.entriesPerInterval
		t.check(in.joinMetrics(m, top, times))
	default:
		m["hint.partitions_visited_per_query"] = ratio(indexCounter(live, "partitions_visited"), queries)
		m["hint.partitions_skipped_per_query"] = ratio(indexCounter(live, "partitions_skipped"), queries)
		overlay := indexCounter(live, "overlay_runs")
		m["hint.overlay_run_ratio"] = ratio(overlay, overlay+indexCounter(live, "flat_runs"))
		m["hint.entries_per_interval"] = t.lad.entriesPerInterval
	}
	if in.conns > 0 {
		m["server.bytes_out_per_row"] = ratio(ctr("server.bytes.out"), rowsOut)
		m["server.bytes_in_per_stmt"] = ctr("server.bytes.in") / stmts
	}
}

// joinMetrics reads the merge join's own counters off one statement. moved
// is how a batch of the statement moved the engine's counters.
func (in *instance) joinMetrics(m map[string]float64, moved obs.Snapshot, times []rungTimes) error {
	if moved.Counter("sql.join.merge") == 0 {
		return fmt.Errorf("the join did not run as a merge join: %w", errMismatch)
	}
	rows, err := in.db.Query(context.Background(), in.readStmt.sql, nil)
	if err != nil {
		return err
	}
	for rows.Next() {
	}
	st := rows.Stats()
	rows.Close()
	m["hint.ordered_scan_ns_per_row"] = ratio(times[0].call, times[0].meanRows)
	m["sqldb.join_pairs_per_s"] = ratio(float64(st.SweepPairs), times[len(times)-1].call/1e9)
	m["sqldb.join_sort_rows"] = float64(st.SweepSortRows)
	m["sqldb.join_active_peak"] = float64(st.SweepActivePeak)
	return rows.Err()
}

// entryPoints times k single calls of each entry point the ladder does
// not climb.
func (t *traced) entryPoints(k int) error {
	m, in, o := t.m, t.in, t.outcome
	text := in.readStmt.sql
	m["sqldb.parse_p50_us"] = timed(func(int) (int64, error) { _, err := sqldb.Parse(text); return 0, err }, 1, 1000, o)
	m["sqldb.first_row_p50_us"] = timed(func(i int) (int64, error) {
		q := &in.pool[i]
		rows, err := in.db.Query(context.Background(), text, binds(in.readStmt, q.args))
		if err != nil {
			return 0, err
		}
		defer rows.Close()
		if !rows.Next() && q.rows > 0 {
			return 0, fmt.Errorf("no first row for query %v: %w", q.args, errMismatch)
		}
		return 1, rows.Err()
	}, t.cycle, k, o)
	m["sqldb.exec_p50_us"] = timed(func(i int) (int64, error) {
		q := &in.pool[i]
		res, err := in.db.Exec(text, binds(in.readStmt, q.args))
		if err == nil && int64(len(res.Rows)) != q.rows {
			err = fmt.Errorf("Exec of query %v returned %d rows, want %d: %w", q.args, len(res.Rows), q.rows, errMismatch)
		}
		return q.rows, err
	}, t.cycle, k, o)
	if in.join {
		return nil
	}
	col, err := in.db.Collection(in.table())
	if err != nil {
		return err
	}
	m["collection.count_p50_us"] = timed(func(i int) (int64, error) {
		q := &in.pool[i]
		n, err := col.CountIntersecting(interval.New(q.args[0], q.args[1]))
		return n, verify(err, "CountIntersecting", n, q.sum, q)
	}, t.cycle, k, o)
	return nil
}

// writes runs the writer alone for a window with the counters it moves,
// then k reads each after a commit, then the insert ladder.
func (t *traced) writes(k int) {
	m, in := t.m, t.in
	c0 := in.db.Metrics()
	writes, _, _ := measure([]runFn{in.wr.step}, 1, t.cfg.warmUp(), t.cfg.window())
	t.count(writes)
	moved := in.db.Metrics().Sub(c0)
	ctr := func(name string) float64 { return float64(moved.Counter(name)) }
	rowsWritten := float64(in.wr.inserted + in.wr.deleted + 2*in.wr.twins)
	m["write_p99_us"] = writes.percentileUs(0.99)
	m["pagestore.wal_fsyncs_per_commit"] = ratio(ctr("wal.fsyncs"), ctr("wal.commits"))
	m["pagestore.wal_batched_commit_ratio"] = ratio(ctr("wal.batched_commits"), ctr("wal.commits"))
	m["pagestore.wal_bytes_per_user_byte"] = ratio(ctr("wal.pages")*pagestore.DefaultPageSize, rowsWritten*24)
	m["pagestore.physical_writes_per_write"] = ratio(ctr("pagestore.physical_writes"), float64(in.wr.ops))
	m["pagestore.checkpoints"] = ctr("wal.checkpoints")
	m["sqldb.txn_conflicts"] = ctr("txn.conflicts")
	t.notef("%d writes by the writer alone", in.wr.ops)

	// A read after every commit: each needs a fresh snapshot view. The
	// collection has moved on from the oracle's rows, so the reads are
	// only drained.
	c0 = in.db.Metrics()
	emb := embedded{in.db}
	after := make([]float64, k)
	for i := range after {
		_, err := in.wr.step(i)
		t.check(err)
		t0 := time.Now()
		_, _, err = emb.query(in.readStmt, in.pool[i%t.cycle].args, nil)
		after[i] = float64(time.Since(t0)) / 1e3
		t.check(err)
	}
	m["sqldb.read_after_commit_p50_us"] = median(after)
	m["sqldb.views_pinned_per_stmt"] = float64(in.db.Metrics().Sub(c0).Counter("sql.views.pinned")) / float64(k)

	inserts := t.lad.inserts
	times := analyse(climb(inserts, 1, t.cfg.window(), t.outcome), len(inserts))
	for r, rg := range inserts {
		if r == 0 {
			m[rg.layer+".insert_p50_us"] = times[r].call / 1e3
		} else {
			m[rg.layer+".insert_self_p50_us"] = times[r].self / 1e3
		}
		t.notef("insert rung %-10s call p50 %9.1f µs  self p50 %9.1f µs", rg.layer, times[r].call/1e3, times[r].self/1e3)
	}
}

// persist closes the database, which persists the index snapshots, and
// reopens it, which loads them.
func (t *traced) persist() error {
	m, in := t.m, t.in
	t.lad.close()
	in.disconnect()
	t0 := time.Now()
	if err := in.closeDB(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	m["collection.snapshot_persist_ms"] = float64(time.Since(t0)) / 1e6
	db, err := ritree.Open(in.path, in.options()...)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	in.db = db
	if opened := db.Metrics(); in.method != ritcore.IndexTypeName {
		m["hint.snapshot_loads"] = indexCounter(opened, "snapshot.loads")
		m["hint.snapshot_tail_rows"] = indexCounter(opened, "snapshot.tail_rows")
		m["hint.attach_ms"] = float64(opened.Histograms["index.attach_ns"].Sum) / 1e6
	}
	return nil
}
