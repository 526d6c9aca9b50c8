package sqldb_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ritree/internal/hint"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
	"ritree/internal/ritree"
	"ritree/internal/sqldb"
)

// TestIndexContract runs every indextype — the three real access methods
// and the brute-force double — through the access-method contract: after
// random batches (bulk inserts, multi-row deletes, transactions mixing
// both, rows that widen HINT's domain) a Reader over the live database and
// a Reader over a snapshot's shadow database agree with brute force; a
// Reader bound before a commit never sees it; Ordered ascends by lower
// bound and delivers each row's true bounds wherever HasOrdered is true —
// including rows whose upper lies beyond 2^59, where HINT's entries
// saturate; a refused batch leaves heap and index as they were.
func TestIndexContract(t *testing.T) {
	methods := []struct {
		name     string
		register func(e *sqldb.Engine)
	}{
		{ritree.IndexTypeName, ritree.RegisterIndexType},
		{hint.IndexTypeName, hint.RegisterIndexType},
		{hint.ShardedIndexTypeName, func(e *sqldb.Engine) { hint.RegisterShardedIndexType(e, 3) }},
		{"brute", func(e *sqldb.Engine) { e.RegisterIndexType("brute", &sqldb.BruteType{}) }},
	}
	for _, m := range methods {
		t.Run(m.name, func(t *testing.T) {
			st := pagestore.NewMem(pagestore.Options{PageSize: 1024, CacheSize: 256})
			db, err := rel.CreateDB(st)
			if err != nil {
				t.Fatal(err)
			}
			e := sqldb.NewEngine(db)
			m.register(e)
			e.MustExec("CREATE TABLE iv (lo int, hi int, id int)", nil)
			e.MustExec("CREATE INDEX iv_x ON iv (lo, hi) INDEXTYPE IS "+m.name, nil)
			ci, ok := e.CustomIndexByName("iv_x")
			if !ok {
				t.Fatal("index not attached")
			}
			c := &contract{t: t, e: e, ci: ci, rng: rand.New(rand.NewSource(7)), model: map[int64][2]int64{}}
			// A far-tail row: its exact upper must survive every method.
			c.nextID++
			e.MustExec("INSERT INTO iv VALUES (:lo, :hi, :id)", map[string]interface{}{"lo": 1000, "hi": farTail, "id": c.nextID})
			c.model[c.nextID] = [2]int64{1000, farTail}

			var bound []boundReader
			for round := 0; round < 12; round++ {
				c.randomBatch(round)
				c.check("live", c.reader(db), db, c.model)
				shadow := c.shadow(st, db)
				rd := c.reader(shadow)
				c.check("shadow", rd, shadow, c.model)
				bound = append(bound, boundReader{rd, shadow, copyModel(c.model)})
				// Readers bound in earlier rounds still answer from the
				// state they were bound to.
				for i, b := range bound {
					c.check(fmt.Sprintf("reader bound in round %d, after round %d", i, round), b.rd, b.db, b.model)
				}
				c.refusedBatch(db)
			}
		})
	}
}

type boundReader struct {
	rd    sqldb.Reader
	db    *rel.DB
	model map[int64][2]int64
}

type contract struct {
	t      *testing.T
	e      *sqldb.Engine
	ci     sqldb.Index
	rng    *rand.Rand
	model  map[int64][2]int64 // id -> (lo, hi): the brute-force truth
	nextID int64
}

func copyModel(m map[int64][2]int64) map[int64][2]int64 {
	c := make(map[int64][2]int64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// farTail is an upper bound beyond 2^59, where HINT's stored uppers
// saturate.
const farTail = int64(1)<<60 + 12345

func (c *contract) interval(round int) (lo, hi int64) {
	span := int64(1) << 20
	if round%4 == 3 {
		span <<= 6 // beyond HINT's current domain: forces a geometry rebuild
	}
	lo = c.rng.Int63n(span)
	if c.rng.Intn(40) == 0 {
		return lo, farTail + lo
	}
	return lo, lo + c.rng.Int63n(5000)
}

func (c *contract) someIDs(n int) []int64 {
	var ids []int64
	for id := range c.model {
		if len(ids) == n {
			break
		}
		ids = append(ids, id)
	}
	return ids
}

// randomBatch applies one random batch through the engine, which hands it
// to Index.Apply: a bulk insert, a multi-row DELETE, or a transaction
// whose COMMIT is one batch of inserts and deletes.
func (c *contract) randomBatch(round int) {
	c.t.Helper()
	insert := func(exec func(lo, hi, id int64)) {
		for i := 0; i < 1+c.rng.Intn(40); i++ {
			lo, hi := c.interval(round)
			c.nextID++
			exec(lo, hi, c.nextID)
			c.model[c.nextID] = [2]int64{lo, hi}
		}
	}
	sqlInsert := func(lo, hi, id int64) {
		c.e.MustExec("INSERT INTO iv VALUES (:lo, :hi, :id)", map[string]interface{}{"lo": lo, "hi": hi, "id": id})
	}
	sqlDelete := func(ids []int64) {
		for _, id := range ids {
			c.e.MustExec("DELETE FROM iv WHERE id = :id", map[string]interface{}{"id": id})
			delete(c.model, id)
		}
	}
	switch {
	case round == 0 || round%3 == 1:
		var rows [][]int64
		insert(func(lo, hi, id int64) { rows = append(rows, []int64{lo, hi, id}) })
		if _, err := c.e.BulkInsert("iv", rows); err != nil {
			c.t.Fatal(err)
		}
	case round%3 == 2:
		ids := c.someIDs(1 + c.rng.Intn(15))
		lo, hi := slices.Min(ids), slices.Max(ids)
		r := c.e.MustExec("DELETE FROM iv WHERE id >= :a AND id <= :b", map[string]interface{}{"a": lo, "b": hi})
		var n int64
		for id := range c.model {
			if id >= lo && id <= hi {
				delete(c.model, id)
				n++
			}
		}
		if r.Affected != n {
			c.t.Fatalf("DELETE affected %d rows, model says %d", r.Affected, n)
		}
	default:
		// Victims resolve against the BEGIN snapshot: pick them among the
		// rows that exist now.
		victims := c.someIDs(c.rng.Intn(10))
		c.e.MustExec("BEGIN", nil)
		insert(sqlInsert)
		sqlDelete(victims)
		c.e.MustExec("COMMIT", nil)
	}
}

func (c *contract) reader(db *rel.DB) sqldb.Reader {
	c.t.Helper()
	rd, err := c.ci.Reader(db)
	if err != nil {
		c.t.Fatal(err)
	}
	return rd
}

// shadow opens a read-only database over a snapshot of the current
// committed state, the way the engine's views do.
func (c *contract) shadow(st *pagestore.Store, db *rel.DB) *rel.DB {
	c.t.Helper()
	snap, err := st.AcquireSnapshot()
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(snap.Release)
	sst, err := pagestore.New(snap, pagestore.Options{PageSize: st.PageSize(), CacheSize: st.CacheSize()})
	if err != nil {
		c.t.Fatal(err)
	}
	shadow, err := rel.OpenDB(sst, db.CatalogRoot())
	if err != nil {
		c.t.Fatal(err)
	}
	return shadow
}

// check compares rd, bound to db, with brute force over model.
func (c *contract) check(what string, rd sqldb.Reader, db *rel.DB, model map[int64][2]int64) {
	c.t.Helper()
	tab, err := db.Table("iv")
	if err != nil {
		c.t.Fatal(err)
	}
	idOf := func(rid rel.RowID) int64 {
		row, err := tab.GetRaw(rid)
		if err != nil {
			c.t.Fatalf("%s: reader reported row %d, not in its state: %v", what, rid, err)
		}
		return row[2]
	}
	for i := 0; i < 8; i++ {
		qlo, _ := c.interval(i)
		op, args, qhi := "intersects", []int64{qlo, qlo + 20000}, qlo+20000
		if i%2 == 1 {
			op, args, qhi = "contains_point", []int64{qlo}, qlo
		}
		var want []int64
		for id, iv := range model {
			if iv[0] <= qhi && qlo <= iv[1] {
				want = append(want, id)
			}
		}
		var got []int64
		if err := rd.Scan(op, args, func(rid rel.RowID) bool { got = append(got, idOf(rid)); return true }); err != nil {
			c.t.Fatalf("%s: Scan: %v", what, err)
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			c.t.Fatalf("%s: %s%v = %d ids, brute force %d", what, op, args, len(got), len(want))
		}
		if n, err := rd.Count(op, args); err != nil || n != int64(len(want)) {
			c.t.Fatalf("%s: Count %s%v = %d, %v; brute force %d", what, op, args, n, err, len(want))
		}
	}
	if c.ci.HasOrdered() {
		n, prev := 0, int64(-1<<62)
		err := rd.Ordered(func(rid rel.RowID, lo, hi int64) bool {
			id := idOf(rid)
			if want := model[id]; lo != want[0] || hi != want[1] {
				c.t.Fatalf("%s: Ordered delivered row %d as [%d, %d], model [%d, %d]", what, id, lo, hi, want[0], want[1])
			}
			if lo < prev {
				c.t.Fatalf("%s: Ordered went from lower %d back to %d", what, prev, lo)
			}
			prev = lo
			n++
			return true
		})
		if err != nil || n != len(model) {
			c.t.Fatalf("%s: Ordered streamed %d of %d rows, err %v", what, n, len(model), err)
		}
	}
}

// refusedBatch offers batches every method must refuse — an inverted
// interval, last in a bulk batch and alone in a statement — and checks
// heap and index are as they were.
func (c *contract) refusedBatch(db *rel.DB) {
	c.t.Helper()
	tab, _ := db.Table("iv")
	rows, chk := tab.RowCount(), tab.ContentChecksum()
	if _, err := c.e.BulkInsert("iv", [][]int64{{10, 20, -1}, {30, 40, -2}, {50, 5, -3}}); err == nil {
		c.t.Fatal("batch with an inverted interval accepted")
	}
	if _, err := c.e.Exec("INSERT INTO iv VALUES (50, 5, -3)", nil); err == nil {
		c.t.Fatal("inverted interval accepted")
	}
	if tab.RowCount() != rows || tab.ContentChecksum() != chk {
		c.t.Fatalf("refused batch changed the heap: %d rows (was %d)", tab.RowCount(), rows)
	}
	c.check("live after a refused batch", c.reader(db), db, c.model)
	// The SQL path over a fresh view agrees too.
	res, err := c.e.Query(context.Background(), "SELECT id FROM iv WHERE intersects(lo, hi, 0, 100)", nil)
	if err != nil {
		c.t.Fatal(err)
	}
	defer res.Close()
	for res.Next() {
		if res.Row()[0] < 0 {
			c.t.Fatalf("row %d of a refused batch is visible", res.Row()[0])
		}
	}
}
