package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ritree"
)

// config is what a run takes from the command line.
type config struct {
	seed     int64
	scale    float64
	dur      time.Duration // the measured phase
	dir      string        // where the database files go
	traceOut string        // span dump of the traced pass
}

const (
	// instances is how many times a run sets the workload up. Each
	// instance serves one window of the measured phase, and every
	// end-to-end metric is the median over the instances. How fast one
	// loaded database runs depends on where its pages landed in memory,
	// by a tenth either way on this box; a single instance would measure
	// that draw, the median over several measures the program.
	instances = 8
	// reopens is how many Open → first query answered → Close cycles
	// follow each instance's Close.
	reopens = 2
)

// mixedWriteEvery paces the writer that runs beside the reader: 300
// commits a second, under half of what it manages in a closed loop there.
// In a closed loop the two settle into a balance that follows the disk:
// when an fsync is a tenth faster the writer commits more, every commit
// makes the reader's next statement rebuild its snapshot view, and the
// reader's rate moved by a quarter between runs of one commit.
const mixedWriteEvery = time.Second / 300

// window is the share of the measured phase one instance serves.
func (c config) window() time.Duration { return c.dur / instances }

// warmUp is the untimed run before each window.
func (c config) warmUp() time.Duration { return min(500*time.Millisecond, c.dur) }

// burst is how long an instance's writer writes alone, on the workloads
// whose measured phase only reads.
func (c config) burst() time.Duration { return c.window() / 4 }

// outcome is what one pass over one workload produced.
type outcome struct {
	metrics           map[string]float64
	measured          map[string]float64 // end-to-end values before they were put at reference speed
	attempted, failed int64
	errs              []string // the first few failures, for the report
	notes             []string // per-instance values and the ladder, for the report
}

func (o *outcome) count(t tally) {
	o.attempted += t.ops
	o.failed += t.failed
	for _, err := range t.errs {
		o.keep(err)
	}
}

// check counts one verified step that is not part of a closed loop.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.keep(err)
	}
}

func (o *outcome) keep(err error) {
	if len(o.errs) < 16 {
		o.errs = append(o.errs, err.Error())
	}
}

func (o *outcome) notef(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// memStats reads the allocator's counters after a full collection, so
// HeapAlloc is what is reachable.
func memStats() (ms runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms
}

// series holds the values of each metric, one or more per instance.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// unitsPerSlowdown says how a metric scales with the speed of the box: a
// time grows with the slowdown (+1), a rate shrinks (-1), a size stays.
var unitsPerSlowdown = map[string]float64{
	"setup_s": 1, "stmt_p50_us": 1, "stmt_p99_us": 1, "cpu_us_per_stmt": 1,
	"write_p50_us": 1, "reopen_ms": 1,
	"stmt_per_s": -1, "rows_per_s": -1, "write_per_s": -1,
}

// runUntraced measures the end-to-end metrics of one workload. Each
// instance is set up, warmed up, measured for one window, written to,
// closed, reopened and destroyed. A metric is the median over instances
// of the instance's value at reference speed (see speed.go); the values
// as measured are kept beside them.
func runUntraced(s spec, cfg config) (*outcome, error) {
	o := &outcome{metrics: make(map[string]float64), measured: make(map[string]float64)}
	measured, atRef := make(series), make(series)
	for k := 0; k < instances; k++ {
		vals, slowdown, err := untracedInstance(s, cfg, o)
		if err != nil {
			return nil, fmt.Errorf("%s: instance %d: %w", s.name, k, err)
		}
		measured.add("slowdown", slowdown)
		for name, vs := range vals {
			for _, v := range vs {
				measured.add(name, v)
				units := unitsPerSlowdown[name]
				if s.mixed && name == "write_per_s" {
					units = 0 // a paced rate does not follow the speed of the box
				}
				atRef.add(name, v/math.Pow(slowdown, units))
			}
		}
	}
	for name, vals := range atRef {
		o.metrics[name] = median(vals)
	}
	for name, vals := range measured {
		o.measured[name] = median(vals)
	}
	o.notef("slowdown per instance: %.2f", measured["slowdown"])
	o.notef("stmt_p50_us per instance, as measured: %.1f", measured["stmt_p50_us"])
	return o, nil
}

// untracedInstance runs one instance and returns its values as measured
// and how much slower than nominal the box ran beside it.
func untracedInstance(s spec, cfg config, o *outcome) (per series, slowdown float64, err error) {
	per = make(series)
	var speed speedometer
	before := memStats()
	speed.sample()
	t0 := time.Now()
	in, err := setUp(s, cfg.seed, cfg.scale, cfg.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	defer in.destroy()
	per.add("setup_s", time.Since(t0).Seconds())
	speed.sample()
	loaded := float64(in.wr.n)
	if s.join {
		loaded *= 2
	}
	// The live heap the set-up added: the database with its cache and
	// index, and the benchmark's own inputs (a constant share).
	per.add("heap_bytes_per_interval", (float64(memStats().HeapAlloc)-float64(before.HeapAlloc))/loaded)

	fns := in.readFns()
	var reads, writes tally
	var wall, writeWall, cpu time.Duration
	if s.mixed {
		// The writer is the last client, paced; its log is split off below.
		var logs []clientLog
		clients := append(closed(fns...), client{run: in.wr.step, every: mixedWriteEvery})
		drive(clients, len(in.pool), cfg.warmUp(), 1<<10)
		logs, wall, cpu = drive(clients, len(in.pool), cfg.window(), 1<<16)
		reads, writes, writeWall = merge(logs[:len(logs)-1]), merge(logs[len(logs)-1:]), wall
	} else {
		reads, wall, cpu = measure(fns, len(in.pool), cfg.warmUp(), cfg.window())
		speed.sample()
		writes, writeWall, _ = measure([]runFn{in.wr.step}, 1, cfg.burst()/2, cfg.burst())
	}
	speed.sample()
	o.count(reads)
	o.count(writes)
	stmts := reads.ops
	if s.mixed {
		stmts += writes.ops
	}
	per.add("stmt_per_s", float64(reads.ops)/wall.Seconds())
	per.add("rows_per_s", float64(reads.rows)/wall.Seconds())
	per.add("stmt_p50_us", reads.percentileUs(0.50))
	per.add("stmt_p99_us", reads.percentileUs(0.99))
	per.add("cpu_us_per_stmt", float64(cpu.Microseconds())/float64(stmts))
	per.add("write_per_s", float64(writes.ops)/writeWall.Seconds())
	per.add("write_p50_us", writes.percentileUs(0.50))

	// Close, then reopen: every acknowledged write must be there.
	in.disconnect()
	if err := in.closeDB(); err != nil {
		return nil, 0, fmt.Errorf("close: %w", err)
	}
	ivs, ids := in.wr.live()
	in.expect(ivs, ids)
	stored := float64(len(ids))
	if s.join {
		stored += float64(len(in.other))
	}
	per.add("file_bytes_per_interval", float64(in.fileBytes())/stored)
	for k := 0; k < reopens; k++ {
		ms, err := in.reopen(k, k == 0, ids, o)
		if err != nil {
			return nil, 0, fmt.Errorf("reopen: %w", err)
		}
		per.add("reopen_ms", ms)
	}
	speed.sample()
	return per, speed.slowdown(), nil
}

// reopen times one Open → first query answered → Close cycle and returns
// its milliseconds. The first query is pooled query k, checked against
// the model of acknowledged writes; with full, every row of the database
// is also read back and compared with the model, outside the timing.
func (in *instance) reopen(k int, full bool, ids []int64, o *outcome) (float64, error) {
	t0 := time.Now()
	db, err := ritree.Open(in.path, in.options()...)
	if err != nil {
		return 0, err
	}
	in.db = db
	_, err = in.checkedReader(embedded{db})(k % len(in.pool))
	took := time.Since(t0)
	o.check(err)
	if full {
		var sum int64
		for _, id := range ids {
			sum += id
		}
		o.check(scanAll(db, in.table(), int64(len(ids)), sum))
		if in.join {
			n := int64(len(in.other))
			o.check(scanAll(db, "b", n, n*(n-1)/2))
		}
	}
	t0 = time.Now()
	err = in.closeDB()
	return float64(took+time.Since(t0)) / 1e6, err
}

// scanAll reads every row of a collection and compares the row count and
// id sum with what the model holds.
func scanAll(db *ritree.DB, table string, rows, sum int64) error {
	gotRows, gotSum, err := embedded{db}.query(newStmt("SELECT id FROM "+table), nil, nil)
	if err == nil && (gotRows != rows || gotSum != sum) {
		err = fmt.Errorf("%s after reopen holds (%d rows, id sum %d), the acknowledged writes make (%d, %d): %w",
			table, gotRows, gotSum, rows, sum, errMismatch)
	}
	return err
}
