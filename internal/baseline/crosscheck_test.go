// Package baseline_test cross-checks every interval access method of the
// reproduction — RI-tree, IST (D/V/H-order), MAP21, T-index, Window-List,
// and the main-memory HINT — against a brute-force reference on identical
// workloads.
package baseline_test

import (
	"fmt"
	"math/rand"

	"path/filepath"
	pub "ritree"
	"sort"
	"strings"
	"testing"

	"ritree/internal/baseline/ist"
	"ritree/internal/baseline/tile"
	"ritree/internal/baseline/winlist"
	"ritree/internal/hint"
	"ritree/internal/interval"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	"ritree/internal/ritree"
	"ritree/internal/sqldb"
)

type am interface {
	Name() string
	IntersectingFunc(q interval.Interval, fn func(id int64) bool) error
}

func collect(t *testing.T, m am, q interval.Interval) []int64 {
	t.Helper()
	var ids []int64
	if err := m.IntersectingFunc(q, func(id int64) bool { ids = append(ids, id); return true }); err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func newDB(t *testing.T) *rel.DB {
	t.Helper()
	st := pagestore.NewMem(pagestore.Options{PageSize: 2048, CacheSize: 256})
	db, err := rel.CreateDB(st)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func genWorkload(n int, domain, maxLen int64, seed int64) ([]interval.Interval, []int64) {
	rng := rand.New(rand.NewSource(seed))
	ivs := make([]interval.Interval, n)
	ids := make([]int64, n)
	for i := range ivs {
		lo := rng.Int63n(domain)
		ln := int64(0)
		if maxLen > 0 {
			ln = rng.Int63n(maxLen)
		}
		ivs[i] = interval.New(lo, lo+ln)
		ids[i] = int64(i)
	}
	return ivs, ids
}

func TestAllAccessMethodsAgree(t *testing.T) {
	const n = 2000
	ivs, ids := genWorkload(n, 1<<18, 2048, 77)

	db := newDB(t)
	rit, err := ritree.Create(db, "rit", ritree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rit.BulkLoad(ivs, ids); err != nil {
		t.Fatal(err)
	}
	istD, err := ist.Create(db, "istd", ist.DOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := istD.BulkLoad(ivs, ids); err != nil {
		t.Fatal(err)
	}
	istV, err := ist.Create(db, "istv", ist.VOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := istV.BulkLoad(ivs, ids); err != nil {
		t.Fatal(err)
	}
	istH, err := ist.Create(db, "isth", ist.HOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := istH.BulkLoad(ivs, ids); err != nil {
		t.Fatal(err)
	}
	m21, err := ist.CreateMap21(db, "m21", 21)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ivs {
		if err := m21.Insert(ivs[i], ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	ti, err := tile.Create(db, "tile", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ti.BulkLoad(ivs, ids); err != nil {
		t.Fatal(err)
	}
	wl, err := winlist.Build(db, "wl", ivs, ids)
	if err != nil {
		t.Fatal(err)
	}
	// The main-memory HINT, in its default geometry and in the
	// comparison-free one (levels == domain bits).
	hd, err := hint.New(hint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := hd.BulkLoad(ivs, ids); err != nil {
		t.Fatal(err)
	}
	hcf, err := hint.New(hint.Options{Bits: 19, Levels: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := hcf.BulkLoad(ivs, ids); err != nil {
		t.Fatal(err)
	}
	// ... and the sharded concurrent wrapper (BulkLoad leaves every
	// variant in the optimized flat layout, so this matrix pins the
	// optimized paths against the reference).
	hsh, err := hint.NewSharded(hint.Options{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := hsh.BulkLoad(ivs, ids); err != nil {
		t.Fatal(err)
	}

	methods := []am{rit, istD, istV, istH, m21, ti, wl, hd, hcf, hsh}

	rng := rand.New(rand.NewSource(78))
	for qi := 0; qi < 100; qi++ {
		lo := rng.Int63n(1 << 18)
		q := interval.New(lo, lo+rng.Int63n(8192))
		if qi%10 == 0 {
			q = interval.Point(lo) // stabbing queries too
		}
		var want []int64
		for i, iv := range ivs {
			if iv.Intersects(q) {
				want = append(want, ids[i])
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, m := range methods {
			got := collect(t, m, q)
			if len(got) != len(want) {
				t.Fatalf("%s query %v: %d results, brute force %d", m.Name(), q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s query %v: result %d = %d, want %d", m.Name(), q, i, got[i], want[i])
				}
			}
		}
	}
}

// openFileDB opens (or creates) a file-backed database at path.
func openFileDB(t *testing.T, path string) *rel.DB {
	t.Helper()
	be, err := pagestore.OpenFileBackend(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pagestore.New(be, pagestore.Options{PageSize: 1024, CacheSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	var db *rel.DB
	if st.NumAllocated() == 0 {
		db, err = rel.CreateDB(st)
	} else {
		db, err = rel.OpenDB(st, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// newSession builds an engine over db with both indextypes registered.
func newSession(t *testing.T, db *rel.DB) *sqldb.Engine {
	t.Helper()
	e := sqldb.NewEngine(db)
	ritree.RegisterIndexType(e)
	hint.RegisterIndexType(e)
	return e
}

type liveIv struct {
	iv interval.Interval
	id int64
}

// checkDomainIndex compares the engine's INTERSECTS and CONTAINS_POINT
// answers on table tb against a brute-force scan of live.
func checkDomainIndex(t *testing.T, e *sqldb.Engine, tb string, live []liveIv, queries []interval.Interval) {
	t.Helper()
	for _, q := range queries {
		var want []int64
		for _, p := range live {
			if p.iv.Intersects(q) {
				want = append(want, p.id)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		op := fmt.Sprintf("intersects(lo, hi, %d, %d)", q.Lower, q.Upper)
		if q.Lower == q.Upper {
			op = fmt.Sprintf("contains_point(lo, hi, %d)", q.Lower)
		}
		res, err := e.Exec(fmt.Sprintf("SELECT id FROM %s WHERE %s ORDER BY id", tb, op), nil)
		if err != nil {
			t.Fatalf("%s: %v", tb, err)
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("%s query %v: %d results, brute force %d", tb, q, len(res.Rows), len(want))
		}
		for i := range want {
			if res.Rows[i][0] != want[i] {
				t.Fatalf("%s query %v: result %d = %d, want %d", tb, q, i, res.Rows[i][0], want[i])
			}
		}
		// The domain index must actually serve the operator (no fallback).
		plan, err := e.Exec(fmt.Sprintf("EXPLAIN SELECT id FROM %s WHERE %s", tb, op), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan.Plan, "DOMAIN INDEX") {
			t.Fatalf("%s: operator not served by domain index:\n%s", tb, plan.Plan)
		}
	}
}

func TestReopenLifecycleCrosscheck(t *testing.T) {
	// The full session lifecycle of paper §5's promise: definitions created
	// in one session persist in the catalog, a reopened database re-attaches
	// them via AttachCatalogIndexes, and post-reopen DML keeps both access
	// methods in lockstep with a brute-force baseline. One table carries a
	// ritree domain index (persisted hidden relations), the other a hint
	// domain index (rebuilt from the heap), over identical data.
	path := filepath.Join(t.TempDir(), "lifecycle.pages")
	rng := rand.New(rand.NewSource(41))
	newIv := func() interval.Interval {
		lo := rng.Int63n(1 << 16)
		return interval.New(lo, lo+rng.Int63n(2048))
	}

	// Session 1: create tables + domain indexes, insert initial rows.
	db := openFileDB(t, path)
	e := newSession(t, db)
	var live []liveIv
	for _, tb := range []string{"rt", "ht"} {
		e.MustExec("CREATE TABLE "+tb+" (lo int, hi int, id int)", nil)
	}
	e.MustExec("CREATE INDEX rt_iv ON rt (lo, hi) INDEXTYPE IS ritree", nil)
	e.MustExec("CREATE INDEX ht_iv ON ht (lo, hi) INDEXTYPE IS hint", nil)
	for i := 0; i < 400; i++ {
		iv := newIv()
		live = append(live, liveIv{iv, int64(i)})
		for _, tb := range []string{"rt", "ht"} {
			e.MustExec("INSERT INTO "+tb+" VALUES (:lo, :hi, :id)",
				map[string]interface{}{"lo": iv.Lower, "hi": iv.Upper, "id": int64(i)})
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2: reopen, auto-attach, run DML, crosscheck.
	db = openFileDB(t, path)
	e = newSession(t, db)
	if err := e.AttachCatalogIndexes(); err != nil {
		t.Fatal(err)
	}
	defs := db.CustomIndexes()
	if len(defs) != 2 {
		t.Fatalf("catalog lost definitions: %v", defs)
	}
	// Post-reopen inserts and deletes must maintain both domain indexes.
	for i := 400; i < 500; i++ {
		iv := newIv()
		live = append(live, liveIv{iv, int64(i)})
		for _, tb := range []string{"rt", "ht"} {
			e.MustExec("INSERT INTO "+tb+" VALUES (:lo, :hi, :id)",
				map[string]interface{}{"lo": iv.Lower, "hi": iv.Upper, "id": int64(i)})
		}
	}
	for i := 0; i < 80; i++ {
		j := rng.Intn(len(live))
		for _, tb := range []string{"rt", "ht"} {
			e.MustExec(fmt.Sprintf("DELETE FROM %s WHERE id = %d", tb, live[j].id), nil)
		}
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	var queries []interval.Interval
	for qi := 0; qi < 30; qi++ {
		lo := rng.Int63n(1 << 16)
		q := interval.New(lo, lo+rng.Int63n(4096))
		if qi%5 == 0 {
			q = interval.Point(lo)
		}
		queries = append(queries, q)
	}
	checkDomainIndex(t, e, "rt", live, queries)
	checkDomainIndex(t, e, "ht", live, queries)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 3: reopen once more — the post-reopen DML of session 2 must
	// have maintained the persisted ritree relations, so a fresh attach
	// passes verification and still agrees with brute force.
	db = openFileDB(t, path)
	defer db.Close()
	e = newSession(t, db)
	if err := e.AttachCatalogIndexes(); err != nil {
		t.Fatal(err)
	}
	checkDomainIndex(t, e, "rt", live, queries)
	checkDomainIndex(t, e, "ht", live, queries)
}

func TestReopenWithoutAttachIsDetected(t *testing.T) {
	// Regression guard for the pre-fix silent-corruption mode: a session
	// that reopens the database and runs DML *without* attaching lets the
	// persisted RI-tree rot. The attach path must detect the divergence and
	// refuse the stale tree rather than serve wrong results.
	path := filepath.Join(t.TempDir(), "stale.pages")
	db := openFileDB(t, path)
	e := newSession(t, db)
	e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
	e.MustExec("CREATE INDEX ev_iv ON ev (lo, hi) INDEXTYPE IS ritree", nil)
	e.MustExec("INSERT INTO ev VALUES (10, 20, 1)", nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Rogue session: DML without AttachCatalogIndexes skips maintenance.
	db = openFileDB(t, path)
	rogue := newSession(t, db)
	rogue.MustExec("INSERT INTO ev VALUES (30, 40, 2)", nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The next honest session must refuse the stale tree, loudly.
	db = openFileDB(t, path)
	e = newSession(t, db)
	err := e.AttachCatalogIndexes()
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("AttachCatalogIndexes over stale tree = %v, want stale-index error", err)
	}
	// Recovery: DROP INDEX works on the unattached definition, after which
	// a recreated index serves correct results again.
	e.MustExec("DROP INDEX ev_iv", nil)
	if err := e.AttachCatalogIndexes(); err != nil {
		t.Fatalf("attach after dropping the stale definition: %v", err)
	}
	e.MustExec("CREATE INDEX ev_iv ON ev (lo, hi) INDEXTYPE IS ritree", nil)
	r := e.MustExec("SELECT id FROM ev WHERE intersects(lo, hi, 10, 40) ORDER BY id", nil)
	if len(r.Rows) != 2 || r.Rows[0][0] != 1 || r.Rows[1][0] != 2 {
		t.Fatalf("recreated index rows = %v", r.Rows)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// And the recreated index survives another reopen cleanly.
	db = openFileDB(t, path)
	defer db.Close()
	e = newSession(t, db)
	if err := e.AttachCatalogIndexes(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenUnregisteredIndexTypeFailsLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unreg.pages")
	db := openFileDB(t, path)
	e := newSession(t, db)
	e.MustExec("CREATE TABLE ev (lo int, hi int, id int)", nil)
	e.MustExec("CREATE INDEX ev_mm ON ev (lo, hi) INDEXTYPE IS hint", nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openFileDB(t, path)
	defer db.Close()
	e2 := sqldb.NewEngine(db)
	ritree.RegisterIndexType(e2) // hint deliberately missing
	err := e2.AttachCatalogIndexes()
	if err == nil || !strings.Contains(err.Error(), "hint") || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("AttachCatalogIndexes without hint registered = %v, want loud failure", err)
	}
}

func TestHintDynamicAgreesWithRITree(t *testing.T) {
	// The two dynamic access methods — disk-relational RI-tree and
	// main-memory HINT — stay in lockstep through a mixed
	// insert/delete/query workload.
	db := newDB(t)
	rit, err := ritree.Create(db, "rit", ritree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hd, err := hint.New(hint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	type pair struct {
		iv interval.Interval
		id int64
	}
	var live []pair
	nextID := int64(0)
	for round := 0; round < 5; round++ {
		for i := 0; i < 300; i++ {
			lo := rng.Int63n(1 << 18)
			iv := interval.New(lo, lo+rng.Int63n(4096))
			if err := rit.Insert(iv, nextID); err != nil {
				t.Fatal(err)
			}
			if err := hd.Insert(iv, nextID); err != nil {
				t.Fatal(err)
			}
			live = append(live, pair{iv, nextID})
			nextID++
		}
		for i := 0; i < 100 && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			p := live[j]
			ok1, err := rit.Delete(p.iv, p.id)
			if err != nil {
				t.Fatal(err)
			}
			ok2, err := hd.Delete(p.iv, p.id)
			if err != nil {
				t.Fatal(err)
			}
			if !ok1 || !ok2 {
				t.Fatalf("delete (%v, %d): ritree %v, hint %v", p.iv, p.id, ok1, ok2)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for qi := 0; qi < 20; qi++ {
			lo := rng.Int63n(1 << 18)
			q := interval.New(lo, lo+rng.Int63n(8192))
			if qi%5 == 0 {
				q = interval.Point(lo)
			}
			a := collect(t, rit, q)
			b := collect(t, hd, q)
			if len(a) != len(b) {
				t.Fatalf("query %v: RI-tree %d ids, HINT %d ids", q, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("query %v id %d: %d vs %d", q, i, a[i], b[i])
				}
			}
		}
	}
}

func TestStorageCharacteristics(t *testing.T) {
	// Figure 12's qualitative shape: IST stores n entries, the RI-tree 2n,
	// the T-index redundancy·n with redundancy > 2 for long intervals.
	const n = 3000
	ivs, ids := genWorkload(n, 1<<20, 4096, 12) // mean length ~2k (D1-like)

	db := newDB(t)
	rit, _ := ritree.Create(db, "rit", ritree.Options{})
	rit.BulkLoad(ivs, ids)
	istD, _ := ist.Create(db, "istd", ist.DOrder)
	istD.BulkLoad(ivs, ids)
	ti, _ := tile.Create(db, "tile", 8)
	ti.BulkLoad(ivs, ids)

	if got := istD.EntryCount(); got != n {
		t.Fatalf("IST entries = %d, want %d", got, n)
	}
	if got := rit.IndexEntries(); got != 2*n {
		t.Fatalf("RI-tree entries = %d, want %d", got, 2*n)
	}
	red := ti.Redundancy()
	if red < 2 {
		t.Fatalf("T-index redundancy = %.2f, want > 2 for 2k-length intervals", red)
	}
	if got := ti.EntryCount(); got < 2*n {
		t.Fatalf("T-index entries = %d, want > %d", got, 2*n)
	}
}

func TestTileDeleteAndInsert(t *testing.T) {
	db := newDB(t)
	ti, _ := tile.Create(db, "tile", 6)
	iv := interval.New(100, 900)
	if err := ti.Insert(iv, 1); err != nil {
		t.Fatal(err)
	}
	if err := ti.Insert(interval.New(500, 600), 2); err != nil {
		t.Fatal(err)
	}
	ids, _ := ti.Intersecting(interval.New(550, 560))
	if len(ids) != 2 {
		t.Fatalf("got %v", ids)
	}
	ok, err := ti.Delete(iv, 1)
	if err != nil || !ok {
		t.Fatalf("delete = %v, %v", ok, err)
	}
	ids, _ = ti.Intersecting(interval.New(550, 560))
	if len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("after delete got %v", ids)
	}
	ok, _ = ti.Delete(iv, 1)
	if ok {
		t.Fatal("double delete succeeded")
	}
}

func TestISTDeleteAndSweepAsymmetry(t *testing.T) {
	db := newDB(t)
	istD, _ := ist.Create(db, "istd", ist.DOrder)
	ivs, ids := genWorkload(4000, 1<<20, 1024, 5)
	istD.BulkLoad(ivs, ids)

	// Delete a few and verify.
	for i := 0; i < 5; i++ {
		ok, err := istD.Delete(ivs[i], ids[i])
		if err != nil || !ok {
			t.Fatalf("delete %d = %v, %v", i, ok, err)
		}
	}
	got, _ := istD.Intersecting(ivs[0])
	for _, id := range got {
		if id == ids[0] {
			t.Fatal("deleted interval still returned")
		}
	}

	// The D-order asymmetry (Figure 17): a stab near the domain's upper
	// bound scans far fewer index entries than one near the lower bound.
	db.ResetStats()
	istD.Intersecting(interval.Point(interval.DomainMax - 10))
	highIO := db.Stats().LogicalReads
	db.ResetStats()
	istD.Intersecting(interval.Point(interval.DomainMin + 10))
	lowIO := db.Stats().LogicalReads
	if lowIO < highIO*4 {
		t.Fatalf("D-order sweep asymmetry missing: low-end %d reads vs high-end %d", lowIO, highIO)
	}
}

func TestWindowListStatic(t *testing.T) {
	db := newDB(t)
	ivs, ids := genWorkload(1500, 1<<16, 512, 9)
	wl, err := winlist.Build(db, "wl", ivs, ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Insert(interval.New(1, 2), 99); err != winlist.ErrStatic {
		t.Fatalf("Insert = %v, want ErrStatic", err)
	}
	if _, err := wl.Delete(ivs[0], ids[0]); err != winlist.ErrStatic {
		t.Fatalf("Delete = %v, want ErrStatic", err)
	}
	// O(n) space: window memberships bounded by a small multiple of n.
	if wl.EntryCount() > 4*int64(len(ivs)) {
		t.Fatalf("window-list entries = %d for n = %d: space blow-up", wl.EntryCount(), len(ivs))
	}
	if wl.Windows() < 2 {
		t.Fatalf("expected multiple windows, got %d", wl.Windows())
	}
	// Reopen from catalog.
	wl2, err := winlist.Open(db, "wl")
	if err != nil {
		t.Fatal(err)
	}
	q := interval.New(1000, 2000)
	a, _ := wl.Intersecting(q)
	b, _ := wl2.Intersecting(q)
	if len(a) != len(b) {
		t.Fatalf("reopened window list disagrees: %d vs %d", len(a), len(b))
	}
}

func TestMap21PartitionsBoundScans(t *testing.T) {
	db := newDB(t)
	m21, _ := ist.CreateMap21(db, "m21", 21)
	// Mostly short intervals plus a handful of very long ones: partitions
	// keep short-interval queries from paying for the long ones.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		lo := rng.Int63n(1 << 19)
		m21.Insert(interval.New(lo, lo+rng.Int63n(64)), int64(i))
	}
	for i := 3000; i < 3010; i++ {
		m21.Insert(interval.New(0, 1<<19), int64(i))
	}
	q := interval.New(1<<18, 1<<18+100)
	got, err := m21.Intersecting(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range got {
		if id >= 3000 {
			found = true
		}
	}
	if !found {
		t.Fatal("long spanning intervals missing from result")
	}
	if m21.Count() != 3010 {
		t.Fatalf("Count = %d", m21.Count())
	}
}

func TestHOrderLengthQueries(t *testing.T) {
	db := newDB(t)
	istH, _ := ist.Create(db, "isth", ist.HOrder)
	for i := int64(0); i < 100; i++ {
		istH.Insert(interval.New(i*10, i*10+i%20), i)
	}
	ids, err := istH.IntersectingWithLength(interval.New(0, 2000), 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		ln := id % 20
		if ln < 5 || ln > 10 {
			t.Fatalf("id %d has length %d outside [5,10]", id, ln)
		}
	}
	if len(ids) == 0 {
		t.Fatal("no length-constrained results")
	}
}

// TestCollectionsAgreeWithReference runs the crosscheck matrix through
// the public API: one DB, one collection per registered access method,
// against the same brute-force reference the direct access methods are
// pinned to.
func TestCollectionsAgreeWithReference(t *testing.T) {
	const n = 2000
	ivs, ids := genWorkload(n, 1<<18, 2048, 77)

	db, err := pub.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var cols []*pub.Collection
	for _, method := range db.AccessMethods() {
		c, err := db.CreateCollection("cc_"+method, pub.AccessMethod(method))
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if err := c.BulkLoad(ivs, ids); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		cols = append(cols, c)
	}
	rng := rand.New(rand.NewSource(78))
	for qi := 0; qi < 60; qi++ {
		lo := rng.Int63n(1 << 18)
		q := interval.New(lo, lo+rng.Int63n(8192))
		if qi%10 == 0 {
			q = interval.Point(lo)
		}
		var want []int64
		for i, iv := range ivs {
			if iv.Intersects(q) {
				want = append(want, ids[i])
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, m := range cols {
			got, err := m.Intersecting(q)
			if err != nil {
				t.Fatalf("%s: %v", m.Method(), err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s query %v: %d results, brute force %d", m.Method(), q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s query %v: result %d = %d, want %d", m.Method(), q, i, got[i], want[i])
				}
			}
			if n, err := m.CountIntersecting(q); err != nil || n != int64(len(want)) {
				t.Fatalf("%s query %v: count %d (%v), want %d", m.Method(), q, n, err, len(want))
			}
		}
	}
	// One Allen sweep through the collections (the detailed relation
	// matrix is the root package's TestAllenSQLCrosscheckMatrix).
	q := interval.New(100000, 110000)
	for r := interval.Before; r <= interval.After; r++ {
		var want []int64
		for i, iv := range ivs {
			if r.Holds(iv, q) {
				want = append(want, ids[i])
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, m := range cols {
			got, err := m.Query(r, q)
			if err != nil {
				t.Fatalf("%s/%v: %v", m.Method(), r, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s relation %v: %d results, brute force %d", m.Method(), r, len(got), len(want))
			}
		}
	}
}
