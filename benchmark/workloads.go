package main

import (
	"database/sql"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"

	"ritree"
	_ "ritree/driver" // registers the "ritree" database/sql driver
	"ritree/internal/interval"
	"ritree/internal/pagestore"
	"ritree/internal/server"
	"ritree/internal/workload"
)

const (
	domain   = interval.DomainMax - interval.DomainMin + 1 // 2^20
	poolSize = 4096
	// fitCache is a buffer cache (in 2 KB pages, 128 MB) that holds every
	// workload's whole database.
	fitCache = 65536
)

// spec is one workload. BENCHMARK.json and the README say why each exists.
type spec struct {
	name   string
	method string        // access method of the collection(s)
	kind   workload.Kind // data distribution (paper, Table 1)
	n      int           // intervals loaded per collection at scale 1
	d      int64         // duration parameter of the distribution
	cache  int           // buffer cache pages; 0 is the shipped default (200)
	conns  int           // > 0: the clients are this many connections to an in-process server
	qlen   int64         // query length; 0 is a stabbing query
	zipf   bool          // query positions are Zipf-skewed over 1024 domain buckets
	join   bool          // the statement joins two collections
	mixed  bool          // the writer runs beside a reader that favours recent data
}

var specs = []spec{
	{name: "wire-stab", method: "hint_sharded", kind: workload.D1, n: 200000, d: 10, cache: fitCache, conns: 2},
	{name: "embed-range-hot", method: "hint", kind: workload.D1, n: 200000, d: 2000, cache: fitCache, qlen: 4000},
	{name: "embed-range-cold", method: "ritree", kind: workload.D1, n: 200000, d: 2000, qlen: 4000, zipf: true},
	{name: "embed-join", method: "hint", kind: workload.D1, n: 16000, d: 500, cache: fitCache, join: true},
	{name: "durable-mixed", method: "hint_sharded", kind: workload.D3, n: 100000, d: 2000, cache: fitCache, qlen: 100, mixed: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) cachePages() int {
	if s.cache == 0 {
		return pagestore.DefaultCacheSize
	}
	return s.cache
}

func (s spec) options() []ritree.Option {
	if s.cache == 0 {
		return nil
	}
	return []ritree.Option{ritree.WithCacheSize(s.cache)}
}

// table is the collection the queries read and the writer writes.
func (s spec) table() string {
	if s.join {
		return "a"
	}
	return "ev"
}

func (s spec) readSQL() string {
	switch {
	case s.join:
		return "SELECT COUNT(*) FROM a, b WHERE allen_overlaps(a.lower, a.upper, b.lower, b.upper)"
	case s.mixed:
		// The reader checks every row against its query, so it needs the bounds.
		return "SELECT lower, upper, id FROM ev WHERE intersects(lower, upper, :lo, :hi)"
	}
	return "SELECT id FROM ev WHERE intersects(lower, upper, :lo, :hi)"
}

// query is one pooled query with the answer the oracle expects: the row
// count and the sum of the last column (the ids, or the join's pair count).
type query struct {
	args      []int64
	recent    bool // moves with the writer's front (mixed workload)
	rows, sum int64
}

var errMismatch = errors.New("answer differs from the oracle")

// instance is a workload that has been set up: database loaded and open
// under the options the workload measures, server and connections up.
type instance struct {
	spec
	path     string
	db       *ritree.DB
	fileSQL  *sql.DB // owns db when database/sql opened it over file://
	srv      *server.Server
	sdb      *sql.DB
	sqlConns []*sqlConn
	readStmt stmt
	pool     []query
	other    []interval.Interval // the join's second collection
	front0   int64               // the writer's front when the pool was made
	readers  []target            // one per client
	wr       *writer
}

// setUp generates the workload's inputs from seed, loads them and opens
// everything the measured phase needs. All of it is set-up time.
func setUp(s spec, seed int64, scale float64, dir string) (in *instance, err error) {
	n := int(float64(s.n) * scale)
	if n < 1000 {
		n = 1000
	}
	extra := int(50000 * scale)
	if extra < 2000 {
		extra = 2000
	}
	in = &instance{spec: s, path: filepath.Join(dir, s.name+".pages"), readStmt: newStmt(s.readSQL())}
	defer func() {
		if err != nil {
			in.destroy()
		}
	}()

	// Inputs: the first n arrivals are loaded, the rest feed the writer.
	arrivals := workload.Generate(workload.Spec{Kind: s.kind, N: n + extra, D: s.d}, seed)
	data, ids := arrivals[:n], workload.IDs(n)
	if s.join {
		in.other = workload.Generate(workload.Spec{Kind: s.kind, N: n, D: s.d}, seed+1)
	}
	in.front0 = data[n-1].Lower
	in.makePool(seed + 2)
	in.expect(data, ids)

	// Load with a cache that fits, so loading costs CPU and not evictions;
	// a workload that measures the default cache reopens under it.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return in, err
	}
	if in.db, err = ritree.Open(in.path, ritree.WithCacheSize(fitCache)); err != nil {
		return in, err
	}
	if err := in.load(s.table(), data, ids); err != nil {
		return in, err
	}
	if s.join {
		if err := in.load("b", in.other, ids); err != nil {
			return in, err
		}
	}
	if s.cache != fitCache {
		if err := in.db.Close(); err != nil {
			return in, err
		}
		if in.db, err = ritree.Open(in.path, s.options()...); err != nil {
			return in, err
		}
	}

	// Clients: connections to an in-process server, or the embedded API.
	var writeTo target = embedded{in.db}
	if s.conns > 0 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return in, err
		}
		in.srv = server.New(in.db, server.Options{})
		go in.srv.Serve(ln)
		if in.sdb, err = sql.Open("ritree", "tcp://"+ln.Addr().String()); err != nil {
			return in, err
		}
		for i := 0; i <= s.conns; i++ {
			c, err := newSQLConn(in.sdb)
			if err != nil {
				return in, err
			}
			in.sqlConns = append(in.sqlConns, c)
		}
		for _, c := range in.sqlConns[:s.conns] {
			in.readers = append(in.readers, c)
		}
		writeTo = in.sqlConns[s.conns]
	} else {
		in.readers = []target{embedded{in.db}}
	}
	in.wr = newWriter(writeTo, s.table(), arrivals, n)
	return in, nil
}

func (in *instance) load(table string, ivs []interval.Interval, ids []int64) error {
	c, err := in.db.CreateCollection(table, ritree.AccessMethod(in.method))
	if err != nil {
		return err
	}
	return c.BulkLoad(ivs, ids)
}

// makePool draws the pooled queries.
func (in *instance) makePool(seed int64) {
	if in.join {
		in.pool = []query{{rows: 1}}
		return
	}
	rng := rand.New(rand.NewSource(seed))
	in.pool = make([]query, poolSize)
	span := domain - in.qlen
	var zipf *rand.Zipf
	var bucketOf []int
	if in.zipf {
		zipf = rand.NewZipf(rng, 1.1, 1, 1023)
		bucketOf = rng.Perm(1024) // which domain bucket the rank-k position is
	}
	for i := range in.pool {
		lo := rng.Int63n(span)
		recent := false
		switch {
		case in.zipf:
			lo = int64(bucketOf[zipf.Uint64()])*(domain/1024) + rng.Int63n(domain/1024)
			if lo >= span {
				lo = span - 1
			}
		case in.mixed && i%5 != 0:
			// Four in five queries fall in the newest twentieth of the domain.
			recent = true
			lo = in.front0 - rng.Int63n(domain/20)
			if lo < 0 {
				lo = 0
			}
		}
		in.pool[i] = query{args: []int64{lo, lo + in.qlen}, recent: recent}
	}
}

// expect fills in the oracle's answer for every pooled query over the
// given live rows of the queried collection.
func (in *instance) expect(ivs []interval.Interval, ids []int64) {
	if in.join {
		in.pool[0].sum = overlapPairs(ivs, in.other)
		return
	}
	o := newOracle(ivs, ids)
	for i := range in.pool {
		q := &in.pool[i]
		q.rows, q.sum = o.expect(q.args[0], q.args[1])
	}
}

// reader returns the client operation of the measured phase over t.
func (in *instance) reader(t target) runFn {
	if in.mixed {
		return in.mixedReader(t)
	}
	return in.checkedReader(t)
}

// checkedReader runs pooled query i, drains it and compares the answer
// with the oracle. It needs the collection to hold what expect last saw.
func (in *instance) checkedReader(t target) runFn {
	return func(i int) (int64, error) {
		q := &in.pool[i]
		rows, sum, err := t.query(in.readStmt, q.args, nil)
		if err == nil && (rows != q.rows || sum != q.sum) {
			err = fmt.Errorf("query %d %v: got (%d rows, sum %d), want (%d, %d): %w", i, q.args, rows, sum, q.rows, q.sum, errMismatch)
		}
		return rows, err
	}
}

// mixedReader reads while the writer writes, so no fixed answer exists.
// It checks what must hold of any snapshot: every row intersects the
// query, and the rows of a two-row transaction come both or not at all.
func (in *instance) mixedReader(t target) runFn {
	args := make([]int64, 2)
	var lo, hi, bad, twins int64
	check := func(row []int64) {
		if row[1] < lo || row[0] > hi {
			bad++
		}
		if row[2] >= twinBase {
			twins++
		}
	}
	return func(i int) (int64, error) {
		q := &in.pool[i]
		lo, hi = q.args[0], q.args[1]
		if q.recent {
			shift := in.wr.front.Load() - in.front0
			lo, hi = lo+shift, hi+shift
		}
		args[0], args[1] = lo, hi
		bad, twins = 0, 0
		rows, _, err := t.query(in.readStmt, args, check)
		if err == nil && (bad > 0 || twins%2 != 0) {
			err = fmt.Errorf("query [%d, %d]: %d rows outside the query, %d rows of two-row transactions: %w", lo, hi, bad, twins, errMismatch)
		}
		return rows, err
	}
}

func (in *instance) readFns() []runFn {
	fns := make([]runFn, len(in.readers))
	for i, t := range in.readers {
		fns[i] = in.reader(t)
	}
	return fns
}

// disconnect closes the connections and stops the server, leaving the
// database open.
func (in *instance) disconnect() {
	for _, c := range in.sqlConns {
		c.close()
	}
	in.sqlConns = nil
	if in.sdb != nil {
		in.sdb.Close()
		in.sdb = nil
	}
	if in.srv != nil {
		in.srv.Close()
		in.srv = nil
	}
}

// closeDB closes the database, through database/sql when that opened it.
func (in *instance) closeDB() error {
	db, fileSQL := in.db, in.fileSQL
	in.db, in.fileSQL = nil, nil
	switch {
	case fileSQL != nil:
		return fileSQL.Close()
	case db != nil:
		return db.Close()
	}
	return nil
}

// destroy stops everything and removes the files.
func (in *instance) destroy() {
	in.disconnect()
	in.closeDB()
	os.Remove(in.path)
	os.Remove(in.path + ".wal")
}

// fileBytes is the size of the database and its write-ahead log.
func (in *instance) fileBytes() int64 {
	var total int64
	for _, p := range []string{in.path, in.path + ".wal"} {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total
}
