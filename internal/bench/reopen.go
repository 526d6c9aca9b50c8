package bench

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ritree/internal/hint"
	"ritree/internal/interval"
	"ritree/internal/obs"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	"ritree/internal/ritree"
	"ritree/internal/sqldb"
	"ritree/internal/workload"
)

// Reopen measures the session-reopen lifecycle of persisted domain
// indexes: file-backed databases get a table with a ritree domain index,
// a hint one, or both, are closed, and a new session re-attaches the
// catalog-recorded definitions through Engine.AttachCatalogIndexes (the
// path cmd/risql takes on -db reopen). The interesting asymmetry is the
// attach cost — the RI-tree's relations persist in the page store, so
// attaching is O(1) catalog work plus the staleness verification, while
// the main-memory HINT, closed here without a persisted snapshot,
// rebuilds from the heap with an O(n) scan (reopenSnapshotSection
// measures the snapshot path). The last cycle cross-checks an INTERSECTS
// query against brute force.
func Reopen(c Config) (*Table, error) {
	c = c.WithDefaults()
	t := &Table{
		ID:     "reopen",
		Title:  "domain-index re-attach cost on database reopen, D1",
		Header: []string{"phase", "ms", "phys reads", "log reads"},
		Notes: []string{
			"ritree attach reopens the persisted hidden relations and verifies them against the",
			"base table's row count (O(1)); hint attach without a snapshot rebuilds from the heap",
			"(O(n) scan); AttachCatalogIndexes is what risql -db runs before the first prompt",
		},
	}
	n := c.scaled(20000)
	spec := workload.Spec{Kind: workload.D1, N: n, D: 2000}
	ivs := workload.Generate(spec, c.Seed)

	openStore := func(path string) (*pagestore.Store, error) {
		be, err := pagestore.OpenFileBackend(path, c.PageSize)
		if err != nil {
			return nil, err
		}
		return pagestore.New(be, pagestore.Options{PageSize: c.PageSize, CacheSize: c.CacheSize})
	}
	newSession := func(db *rel.DB) *sqldb.Engine {
		eng := sqldb.NewEngine(db)
		ritree.RegisterIndexType(eng)
		hint.RegisterIndexType(eng)
		return eng
	}

	// cycle builds one database — the table, the given domain indexes
	// (name → indextype), the data loaded through SQL so every insert
	// maintains them — closes it, and measures a cold session's attach.
	cycle := func(label string, indexes [][2]string) (*rel.DB, *sqldb.Engine, error) {
		f, err := os.CreateTemp("", "ribench-reopen-*.pages")
		if err != nil {
			return nil, nil, err
		}
		path := f.Name()
		f.Close()
		defer os.Remove(path)
		st, err := openStore(path)
		if err != nil {
			return nil, nil, err
		}
		db, err := rel.CreateDB(st)
		if err != nil {
			return nil, nil, err
		}
		eng := newSession(db)
		c.logf("  reopen: loading %d intervals for %s...", n, label)
		if _, err := eng.Exec("CREATE TABLE iv (lo int, hi int, id int)", nil); err != nil {
			return nil, nil, err
		}
		for _, ix := range indexes {
			if _, err := eng.Exec("CREATE INDEX "+ix[0]+" ON iv (lo, hi) INDEXTYPE IS "+ix[1], nil); err != nil {
				return nil, nil, err
			}
		}
		for i, iv := range ivs {
			_, err := eng.Exec("INSERT INTO iv VALUES (:lo, :hi, :id)",
				map[string]interface{}{"lo": iv.Lower, "hi": iv.Upper, "id": int64(i)})
			if err != nil {
				return nil, nil, err
			}
		}
		if err := db.Close(); err != nil {
			return nil, nil, err
		}

		st2, err := openStore(path)
		if err != nil {
			return nil, nil, err
		}
		db2, err := rel.OpenDB(st2, 1)
		if err != nil {
			return nil, nil, err
		}
		e2 := newSession(db2)
		st2.ResetStats()
		t0 := time.Now()
		if err := e2.AttachCatalogIndexes(); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", label, err)
		}
		elapsed := time.Since(t0)
		s := st2.Stats()
		t.AddRow(label, f3(elapsed.Seconds()*1000), d0(s.PhysicalReads), d0(s.LogicalReads))
		return db2, e2, nil
	}

	for _, one := range []struct {
		label string
		index [2]string
	}{
		{"ritree attach (persisted tree)", [2]string{"iv_rit", ritree.IndexTypeName}},
		{"hint attach (heap rebuild)", [2]string{"iv_mm", hint.IndexTypeName}},
	} {
		db2, _, err := cycle(one.label, [][2]string{one.index})
		if err != nil {
			return nil, err
		}
		if err := db2.Close(); err != nil {
			return nil, err
		}
	}
	db2, e2, err := cycle("AttachCatalogIndexes (both)",
		[][2]string{{"iv_rit", ritree.IndexTypeName}, {"iv_mm", hint.IndexTypeName}})
	if err != nil {
		return nil, err
	}
	defer db2.Close()

	// Cross-check a post-reopen intersection query against brute force.
	qlen := workload.CalibrateLength(ivs, 0.01, c.Seed+53)
	mid := (interval.DomainMin + interval.DomainMax) / 2
	q := interval.New(mid, mid+qlen)
	want := 0
	for _, iv := range ivs {
		if iv.Intersects(q) {
			want++
		}
	}
	res, err := e2.Exec(fmt.Sprintf("SELECT id FROM iv WHERE intersects(lo, hi, %d, %d)", q.Lower, q.Upper), nil)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) != want {
		return nil, fmt.Errorf("bench: post-reopen query returned %d rows, brute force says %d — reattached index is wrong", len(res.Rows), want)
	}
	t.AddRow(fmt.Sprintf("post-reopen query check: ok (%d results)", want), "", "", "")

	if err := reopenSnapshotSection(c, t); err != nil {
		return nil, err
	}
	return t, nil
}

// reopenSnapshotSection measures the persisted-snapshot attach path at
// paper scale: one session builds a hint index over N intervals and
// persists its flat layout; two cold sessions then attach the same
// catalog definition, one forced to rebuild from the heap, one loading
// the snapshot (plus tail replay, zero here). The parity self-assert
// runs a batch of INTERSECTS queries through both sessions and requires
// identical id lists — the snapshot path must be indistinguishable from
// the rebuild except in attach cost.
func reopenSnapshotSection(c Config, t *Table) error {
	ns := c.scaled(1000000)
	spec := workload.Spec{Kind: workload.D1, N: ns, D: 2000}
	ivs := workload.Generate(spec, c.Seed+101)

	f, err := os.CreateTemp("", "ribench-reopen-snap-*.pages")
	if err != nil {
		return err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)

	openStore := func() (*pagestore.Store, error) {
		be, err := pagestore.OpenFileBackend(path, c.PageSize)
		if err != nil {
			return nil, err
		}
		return pagestore.New(be, pagestore.Options{PageSize: c.PageSize, CacheSize: c.CacheSize})
	}

	// Build session: heap first (plain relational inserts — no index to
	// maintain yet), then CREATE INDEX bulk-builds the hint structure from
	// it, and PersistIndexSnapshots writes the flat layout next to it.
	c.logf("  reopen: snapshot section — loading %d intervals...", ns)
	st, err := openStore()
	if err != nil {
		return err
	}
	db, err := rel.CreateDB(st)
	if err != nil {
		return err
	}
	eng := sqldb.NewEngine(db)
	hint.RegisterIndexType(eng)
	if _, err := eng.Exec("CREATE TABLE sv (lo int, hi int, id int)", nil); err != nil {
		return err
	}
	tab, err := db.Table("sv")
	if err != nil {
		return err
	}
	for i, iv := range ivs {
		if _, err := tab.Insert([]int64{iv.Lower, iv.Upper, int64(i)}); err != nil {
			return err
		}
	}
	if _, err := eng.Exec("CREATE INDEX sv_mm ON sv (lo, hi) INDEXTYPE IS hint", nil); err != nil {
		return err
	}
	t0 := time.Now()
	if err := eng.PersistIndexSnapshots(); err != nil {
		return err
	}
	persistMS := time.Since(t0).Seconds() * 1000
	if err := db.Close(); err != nil {
		return err
	}

	// Cold attach, both ways. Each session opens its own store so the
	// buffer cache starts empty.
	attach := func(snapshots bool) (*sqldb.Engine, *obs.Registry, float64, pagestore.Stats, error) {
		st2, err := openStore()
		if err != nil {
			return nil, nil, 0, pagestore.Stats{}, err
		}
		db2, err := rel.OpenDB(st2, 1)
		if err != nil {
			return nil, nil, 0, pagestore.Stats{}, err
		}
		e2 := sqldb.NewEngine(db2)
		hint.RegisterIndexType(e2)
		e2.SetIndexSnapshotsEnabled(snapshots)
		reg := obs.NewRegistry()
		e2.SetMetricsRegistry(reg)
		// Collect the previous phase's garbage before timing: a process
		// that just built 1M rows carries GC debt that would otherwise tax
		// whichever attach happens to allocate next (a real reopen starts
		// from a fresh process). Applied to both paths, so the comparison
		// stays fair.
		runtime.GC()
		st2.ResetStats()
		t0 := time.Now()
		if err := e2.AttachCatalogIndexes(); err != nil {
			return nil, nil, 0, pagestore.Stats{}, err
		}
		return e2, reg, time.Since(t0).Seconds() * 1000, st2.Stats(), nil
	}
	c.logf("  reopen: snapshot section — cold attach, rebuild path...")
	rbEng, _, rbMS, rbStats, err := attach(false)
	if err != nil {
		return err
	}
	c.logf("  reopen: snapshot section — cold attach, snapshot path...")
	snEng, snReg, snMS, snStats, err := attach(true)
	if err != nil {
		return err
	}
	snm := snReg.Snapshot()
	if snm.Counter("index.sv_mm.snapshot.loads") != 1 {
		return fmt.Errorf("bench: snapshot attach did not load the snapshot (fallbacks=%d)",
			snm.Counter("index.sv_mm.snapshot.rebuild_fallbacks"))
	}

	// Parity self-assert: both sessions must return identical id lists.
	qlen := workload.CalibrateLength(ivs, 0.001, c.Seed+157)
	rows := int64(0)
	for k := 0; k < 16; k++ {
		lo := interval.DomainMin + int64(k)*(interval.DomainMax-interval.DomainMin)/16
		sql := fmt.Sprintf("SELECT id FROM sv WHERE intersects(lo, hi, %d, %d) ORDER BY id", lo, lo+qlen)
		a, err := rbEng.Exec(sql, nil)
		if err != nil {
			return err
		}
		b, err := snEng.Exec(sql, nil)
		if err != nil {
			return err
		}
		if len(a.Rows) != len(b.Rows) {
			return fmt.Errorf("bench: parity check %d: rebuild %d rows, snapshot %d rows", k, len(a.Rows), len(b.Rows))
		}
		for i := range a.Rows {
			if a.Rows[i][0] != b.Rows[i][0] {
				return fmt.Errorf("bench: parity check %d row %d: rebuild id %v, snapshot id %v", k, i, a.Rows[i][0], b.Rows[i][0])
			}
		}
		rows += int64(len(a.Rows))
	}

	t.AddRow(fmt.Sprintf("[%d] hint snapshot persist", ns), f3(persistMS), "", "")
	t.AddRow(fmt.Sprintf("[%d] hint attach, heap rebuild", ns), f3(rbMS), d0(rbStats.PhysicalReads), d0(rbStats.LogicalReads))
	t.AddRow(fmt.Sprintf("[%d] hint attach, snapshot load", ns), f3(snMS), d0(snStats.PhysicalReads), d0(snStats.LogicalReads))
	t.AddRow(fmt.Sprintf("snapshot attach speedup: %.1fx; parity check: ok (%d ids across 16 queries)", rbMS/snMS, rows), "", "", "")
	t.AddObs("snapshot_attach", snm.Counters)
	return nil
}
