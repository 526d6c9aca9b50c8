package hint

import (
	"strings"
	"testing"

	"ritree/internal/interval"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	"ritree/internal/sqldb"
)

func TestIndexTypeEndToEnd(t *testing.T) {
	// §5 path with HINT as the access method: CREATE INDEX ... INDEXTYPE
	// IS hint, trigger-maintained, with INTERSECTS and CONTAINS_POINT
	// rewritten to main-memory HINT scans.
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 256})
	db, _ := rel.CreateDB(st)
	e := sqldb.NewEngine(db)
	RegisterIndexType(e)

	e.MustExec("CREATE TABLE reservations (room int, arrival int, departure int)", nil)
	// Pre-populate some rows, then create the domain index (backfill).
	for i := 0; i < 50; i++ {
		e.MustExec("INSERT INTO reservations VALUES (:r, :a, :d)",
			map[string]interface{}{"r": i, "a": i * 10, "d": i*10 + 15})
	}
	e.MustExec("CREATE INDEX resv_iv ON reservations (arrival, departure) INDEXTYPE IS hint", nil)
	// Insert more rows after: trigger maintenance.
	for i := 50; i < 100; i++ {
		e.MustExec("INSERT INTO reservations VALUES (:r, :a, :d)",
			map[string]interface{}{"r": i, "a": i * 10, "d": i*10 + 15})
	}

	// The INTERSECTS operator must be served by the domain index.
	r := e.MustExec("EXPLAIN SELECT room FROM reservations WHERE intersects(arrival, departure, :lo, :hi)",
		map[string]interface{}{"lo": 100, "hi": 130})
	if !strings.Contains(r.Plan, "DOMAIN INDEX RESV_IV (INTERSECTS)") {
		t.Fatalf("plan = %s", r.Plan)
	}

	r = e.MustExec("SELECT room FROM reservations WHERE intersects(arrival, departure, :lo, :hi) ORDER BY room",
		map[string]interface{}{"lo": 100, "hi": 130})
	// Rooms with [10i, 10i+15] intersecting [100, 130]: i in {9,...,13}.
	if len(r.Rows) != 5 || r.Rows[0][0] != 9 || r.Rows[4][0] != 13 {
		t.Fatalf("rows = %v", r.Rows)
	}

	// Stabbing operator.
	r = e.MustExec("SELECT room FROM reservations WHERE contains_point(arrival, departure, :p) ORDER BY room",
		map[string]interface{}{"p": 555})
	if len(r.Rows) != 2 || r.Rows[0][0] != 54 || r.Rows[1][0] != 55 {
		t.Fatalf("rows = %v", r.Rows)
	}

	// Deletes maintain the domain index.
	e.MustExec("DELETE FROM reservations WHERE room = 10", nil)
	r = e.MustExec("SELECT room FROM reservations WHERE intersects(arrival, departure, :lo, :hi) ORDER BY room",
		map[string]interface{}{"lo": 100, "hi": 130})
	if len(r.Rows) != 4 {
		t.Fatalf("after delete rows = %v", r.Rows)
	}

	// Extra predicates compose with the domain index scan.
	r = e.MustExec("SELECT room FROM reservations WHERE intersects(arrival, departure, :lo, :hi) AND room > 11 ORDER BY room",
		map[string]interface{}{"lo": 100, "hi": 130})
	if len(r.Rows) != 2 || r.Rows[0][0] != 12 {
		t.Fatalf("rows = %v", r.Rows)
	}

	// DROP INDEX releases the main-memory structure.
	e.MustExec("DROP INDEX resv_iv", nil)
	if _, err := e.Exec("SELECT room FROM reservations WHERE intersects(arrival, departure, :lo, :hi)",
		map[string]interface{}{"lo": 0, "hi": 1}); err == nil {
		t.Fatal("operator still served after DROP INDEX")
	}
}

func TestIndexTypeAttachRebuilds(t *testing.T) {
	// HINT is main-memory: a fresh session over the same database finds
	// no persisted snapshot here and rebuilds the index from the base
	// table when it attaches the catalog definition.
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 256})
	db, _ := rel.CreateDB(st)
	e := sqldb.NewEngine(db)
	RegisterIndexType(e)
	e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
	e.MustExec("CREATE INDEX ev_iv ON ev (lo, hi) INDEXTYPE IS hint", nil)
	e.MustExec("INSERT INTO ev VALUES (10, 20, 1)", nil)
	e.MustExec("INSERT INTO ev VALUES (30, 40, 2)", nil)

	e2 := sqldb.NewEngine(db)
	RegisterIndexType(e2)
	if err := e2.AttachCatalogIndexes(); err != nil {
		t.Fatal(err)
	}
	r := e2.MustExec("SELECT id FROM ev WHERE intersects(lo, hi, :a, :b)",
		map[string]interface{}{"a": 15, "b": 15})
	if len(r.Rows) != 1 || r.Rows[0][0] != 1 {
		t.Fatalf("rows = %v", r.Rows)
	}
	r = e2.MustExec("SELECT id FROM ev WHERE contains_point(lo, hi, :p)",
		map[string]interface{}{"p": 35})
	if len(r.Rows) != 1 || r.Rows[0][0] != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestIndexTypeAdaptiveDomain(t *testing.T) {
	// The indextype sizes its domain to the data: negative bounds and
	// values far beyond the paper's [0, 2^20-1] space (timestamps) must
	// index and query transparently, growing the geometry as rows arrive.
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 256})
	db, _ := rel.CreateDB(st)
	e := sqldb.NewEngine(db)
	RegisterIndexType(e)
	e.MustExec("CREATE TABLE ev (id int, lo int, hi int)", nil)
	e.MustExec("CREATE INDEX ev_iv ON ev (lo, hi) INDEXTYPE IS hint", nil)

	base := int64(1700000000) // unix-epoch scale, >> 2^20
	rows := [][3]int64{
		{1, base, base + 3600},
		{2, base + 1800, base + 7200},
		{3, -5000, -100}, // negative bounds
		{4, 0, 10},
		{5, base + 10000, 1<<62 + 5}, // far-tail upper saturates
	}
	for _, r := range rows {
		e.MustExec("INSERT INTO ev VALUES (:i, :l, :h)",
			map[string]interface{}{"i": r[0], "l": r[1], "h": r[2]})
	}
	check := func(qlo, qhi int64, want ...int64) {
		t.Helper()
		r := e.MustExec("SELECT id FROM ev WHERE intersects(lo, hi, :a, :b) ORDER BY id",
			map[string]interface{}{"a": qlo, "b": qhi})
		if len(r.Rows) != len(want) {
			t.Fatalf("query [%d,%d]: rows = %v, want ids %v", qlo, qhi, r.Rows, want)
		}
		for i := range want {
			if r.Rows[i][0] != want[i] {
				t.Fatalf("query [%d,%d]: rows = %v, want ids %v", qlo, qhi, r.Rows, want)
			}
		}
	}
	check(base+1000, base+2000, 1, 2)
	check(-200, 5, 3, 4)
	check(base+100000, base+100001, 5)
	check(-100000000, 1<<61, 1, 2, 3, 4, 5) // huge window saturates cleanly
	check(-7000, -6000)                     // empty region

	// Deletes still maintain the adapted index.
	e.MustExec("DELETE FROM ev WHERE id = 2", nil)
	check(base+1000, base+2000, 1)

	// Starts beyond the supported ±2^59 range fail the statement without
	// leaving the heap and the domain index divergent (statement-level
	// atomicity in the engine).
	if _, err := e.Exec("INSERT INTO ev VALUES (9, :l, :h)",
		map[string]interface{}{"l": int64(1) << 60, "h": int64(1)<<60 + 5}); err == nil {
		t.Fatal("start beyond ±2^59 accepted")
	}
	r := e.MustExec("SELECT id FROM ev WHERE id = 9", nil)
	if len(r.Rows) != 0 {
		t.Fatalf("rejected row persisted in the heap: %v", r.Rows)
	}
	// Now-relative rows (upper = NowMarker) are likewise rejected
	// atomically: the hint indextype has no §4.6 evaluation, and
	// indexing them as infinite would diverge from the ritree indextype.
	if _, err := e.Exec("INSERT INTO ev VALUES (10, 50, :h)",
		map[string]interface{}{"h": interval.NowMarker}); err == nil {
		t.Fatal("now-relative row accepted")
	}
	r = e.MustExec("SELECT id FROM ev WHERE id = 10", nil)
	if len(r.Rows) != 0 {
		t.Fatalf("rejected now-relative row persisted: %v", r.Rows)
	}
	// Inverted intervals are rejected up front (even when the start
	// would also have forced a geometry rebuild).
	if _, err := e.Exec("INSERT INTO ev VALUES (11, :l, :h)",
		map[string]interface{}{"l": int64(1) << 55, "h": 5}); err == nil {
		t.Fatal("inverted row accepted")
	}
	r = e.MustExec("SELECT id FROM ev WHERE id = 11", nil)
	if len(r.Rows) != 0 {
		t.Fatalf("rejected inverted row persisted: %v", r.Rows)
	}
	check(-100000000, 1<<61, 1, 3, 4, 5) // index still answers consistently
}

func TestIndexTypeAgreesWithRITreeThroughSQL(t *testing.T) {
	// The same table served by both indextypes must answer identically;
	// here HINT's SQL answers are checked against a plain predicate scan
	// on a second, unindexed engine.
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 256})
	db, _ := rel.CreateDB(st)
	e := sqldb.NewEngine(db)
	RegisterIndexType(e)
	e.MustExec("CREATE TABLE seg (id int, lo int, hi int)", nil)
	e.MustExec("CREATE INDEX seg_iv ON seg (lo, hi) INDEXTYPE IS hint", nil)
	for i := 0; i < 300; i++ {
		lo := (i * 37) % 5000
		e.MustExec("INSERT INTO seg VALUES (:i, :lo, :hi)",
			map[string]interface{}{"i": i, "lo": lo, "hi": lo + (i%11)*40})
	}
	for _, q := range [][2]int{{0, 100}, {990, 1010}, {2500, 2500}, {0, 5600}} {
		idx := e.MustExec("SELECT id FROM seg WHERE intersects(lo, hi, :a, :b) ORDER BY id",
			map[string]interface{}{"a": q[0], "b": q[1]})
		scan := e.MustExec("SELECT id FROM seg WHERE lo <= :b AND hi >= :a ORDER BY id",
			map[string]interface{}{"a": q[0], "b": q[1]})
		if len(idx.Rows) != len(scan.Rows) {
			t.Fatalf("query %v: index %d rows, scan %d rows", q, len(idx.Rows), len(scan.Rows))
		}
		for i := range idx.Rows {
			if idx.Rows[i][0] != scan.Rows[i][0] {
				t.Fatalf("query %v row %d: %d vs %d", q, i, idx.Rows[i][0], scan.Rows[i][0])
			}
		}
	}
}

func TestSingleRowInsertsCompactLogarithmically(t *testing.T) {
	// A single-row INSERT reaches Apply as a batch of one. Re-flattening
	// after every batch would compact 2,000 times here; the rule (overlay
	// above 1024 entries and above the flat storage) compacts each time
	// the index doubles.
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 256})
	db, _ := rel.CreateDB(st)
	e := sqldb.NewEngine(db)
	RegisterIndexType(e)
	e.MustExec("CREATE TABLE ev (lo int, hi int)", nil)
	e.MustExec("CREATE INDEX ev_iv ON ev (lo, hi) INDEXTYPE IS hint", nil)
	ci, _ := e.CustomIndexByName("ev_iv")
	six := ci.(*indexType).BackingIndex()

	compactions, flat := 0, six.FlatEntries()
	for i := 0; i < 2000; i++ {
		lo := (i * 7919) % 700000
		e.MustExec("INSERT INTO ev VALUES (:lo, :hi)", map[string]interface{}{"lo": lo, "hi": lo + i%3000})
		// Inserts land in the overlay; only a compaction grows the flat storage.
		if f := six.FlatEntries(); f > flat {
			compactions++
			flat = f
		}
	}
	if compactions < 1 || compactions > 4 {
		t.Fatalf("2000 single-row inserts compacted %d times, want 1 to 4 (once per doubling past 1024 entries)", compactions)
	}
	if over := six.OverlayEntries(); over > flat && over > 1024 {
		t.Fatalf("overlay %d left above flat %d", over, flat)
	}
}
