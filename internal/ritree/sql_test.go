package ritree

import (
	"math/rand"
	"strings"
	"testing"

	"ritree/internal/interval"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	"ritree/internal/sqldb"
)

func TestSQLPathMatchesNativePath(t *testing.T) {
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 256})
	db, _ := rel.CreateDB(st)
	tr, err := Create(db, "iv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := sqldb.NewEngine(db)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		lo := rng.Int63n(1 << 16)
		if err := tr.Insert(interval.New(lo, lo+rng.Int63n(1024)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.InsertInfinite(100, 9001)
	for i := 0; i < 100; i++ {
		lo := rng.Int63n(1 << 16)
		q := interval.New(lo, lo+rng.Int63n(4096))
		native, err := tr.Intersecting(q)
		if err != nil {
			t.Fatal(err)
		}
		viaSQL, err := tr.IntersectingSQL(e, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(native) != len(viaSQL) {
			t.Fatalf("query %v: native %d ids, SQL %d ids", q, len(native), len(viaSQL))
		}
		for j := range native {
			if native[j] != viaSQL[j] {
				t.Fatalf("query %v: id %d native %d vs SQL %d", q, j, native[j], viaSQL[j])
			}
		}
	}
}

func TestFigure10PlanForRealTree(t *testing.T) {
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 128})
	db, _ := rel.CreateDB(st)
	tr, _ := Create(db, "iv", Options{})
	e := sqldb.NewEngine(db)
	for i := int64(0); i < 100; i++ {
		tr.Insert(interval.New(i*10, i*10+25), i)
	}
	plan, err := tr.ExplainIntersection(e, interval.New(300, 400))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"SELECT STATEMENT",
		"UNION-ALL",
		"NESTED LOOPS",
		"COLLECTION ITERATOR :LEFTNODES",
		"INDEX RANGE SCAN IV_UPPER_IX",
		"COLLECTION ITERATOR :RIGHTNODES",
		"INDEX RANGE SCAN IV_LOWER_IX",
	} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestIndexTypeEndToEnd(t *testing.T) {
	// §5: CREATE INDEX ... INDEXTYPE IS ritree, trigger-maintained, with
	// the INTERSECTS operator rewritten to a domain index scan.
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
	e.MustExec("CREATE INDEX resv_iv ON reservations (arrival, departure) INDEXTYPE IS ritree", nil)
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

	// DROP INDEX tears down the hidden tree; the operator then
	// evaluates over a full table scan, with the same answer.
	e.MustExec("DROP INDEX resv_iv", nil)
	binds := map[string]interface{}{"lo": 100, "hi": 130}
	r = e.MustExec("EXPLAIN SELECT room FROM reservations WHERE intersects(arrival, departure, :lo, :hi)", binds)
	if !strings.Contains(r.Plan, "TABLE ACCESS FULL RESERVATIONS") {
		t.Fatalf("plan after DROP INDEX = %s", r.Plan)
	}
	r = e.MustExec("SELECT room FROM reservations WHERE intersects(arrival, departure, :lo, :hi) ORDER BY room", binds)
	if len(r.Rows) != 4 {
		t.Fatalf("rows after DROP INDEX = %v", r.Rows)
	}
}

func TestIndexTypeReattach(t *testing.T) {
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 256})
	db, _ := rel.CreateDB(st)
	e := sqldb.NewEngine(db)
	RegisterIndexType(e)
	e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
	e.MustExec("CREATE INDEX ev_iv ON ev (lo, hi) INDEXTYPE IS ritree", nil)
	e.MustExec("INSERT INTO ev VALUES (10, 20, 1)", nil)

	// A second session over the same database re-attaches the index.
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
}

func TestAttachRejectsStaleTree(t *testing.T) {
	// If a session runs DML without the index attached, the persisted tree
	// diverges from the base table; attaching must detect that and refuse
	// (returning results from the stale tree would be silent corruption).
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 256})
	db, _ := rel.CreateDB(st)
	e := sqldb.NewEngine(db)
	RegisterIndexType(e)
	e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
	e.MustExec("CREATE INDEX ev_iv ON ev (lo, hi) INDEXTYPE IS ritree", nil)
	e.MustExec("INSERT INTO ev VALUES (10, 20, 1)", nil)

	// A rogue session without the index attached skips its maintenance.
	rogue := sqldb.NewEngine(db)
	rogue.MustExec("INSERT INTO ev VALUES (30, 40, 2)", nil)

	e3 := sqldb.NewEngine(db)
	RegisterIndexType(e3)
	err := e3.AttachCatalogIndexes()
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("AttachCatalogIndexes over stale tree = %v, want stale error", err)
	}
}

func TestAttachRejectsZeroNetRowDML(t *testing.T) {
	// Insert-then-delete DML by a session without the index attached nets
	// to zero rows, so the PR-2 row-count verification passes — only the
	// content checksum catches it. Trusting the tree would serve the
	// deleted row and miss the new one.
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 256})
	db, _ := rel.CreateDB(st)
	e := sqldb.NewEngine(db)
	RegisterIndexType(e)
	e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
	e.MustExec("CREATE INDEX ev_iv ON ev (lo, hi) INDEXTYPE IS ritree", nil)
	e.MustExec("INSERT INTO ev VALUES (10, 20, 1)", nil)
	e.MustExec("INSERT INTO ev VALUES (30, 40, 2)", nil)

	// A rogue session nets zero rows: one insert, one delete.
	rogue := sqldb.NewEngine(db)
	rogue.MustExec("INSERT INTO ev VALUES (50, 60, 3)", nil)
	rogue.MustExec("DELETE FROM ev WHERE id = 1", nil)

	tab, _ := db.Table("ev")
	if tab.RowCount() != 2 {
		t.Fatalf("RowCount = %d, want 2 (the count check must be blind here)", tab.RowCount())
	}
	e3 := sqldb.NewEngine(db)
	RegisterIndexType(e3)
	err := e3.AttachCatalogIndexes()
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("AttachCatalogIndexes over zero-net-row divergence = %v, want checksum-stale error", err)
	}
}

func TestAttachAcceptsMaintainedIndexChecksum(t *testing.T) {
	// DML through the engine (with maintenance) keeps checksum parity, so
	// a later attach succeeds — including after deletes.
	st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 256})
	db, _ := rel.CreateDB(st)
	e := sqldb.NewEngine(db)
	RegisterIndexType(e)
	e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
	e.MustExec("CREATE INDEX ev_iv ON ev (lo, hi) INDEXTYPE IS ritree", nil)
	e.MustExec("INSERT INTO ev VALUES (10, 20, 1)", nil)
	e.MustExec("INSERT INTO ev VALUES (30, 40, 2)", nil)
	e.MustExec("DELETE FROM ev WHERE id = 1", nil)

	e2 := sqldb.NewEngine(db)
	RegisterIndexType(e2)
	if err := e2.AttachCatalogIndexes(); err != nil {
		t.Fatalf("attach after maintained DML: %v", err)
	}
	r := e2.MustExec("SELECT id FROM ev WHERE intersects(lo, hi, 35, 36)", nil)
	if len(r.Rows) != 1 || r.Rows[0][0] != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
}
