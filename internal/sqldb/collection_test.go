package sqldb

import (
	"slices"
	"strings"
	"testing"

	"ritree/internal/pagestore"
	"ritree/internal/rel"
)

// newCollectionEngine registers the brute-force double (double_test.go)
// as access method "fake".
func newCollectionEngine(t *testing.T) *Engine {
	t.Helper()
	st := pagestore.NewMem(pagestore.Options{})
	db, err := rel.CreateDB(st)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db)
	e.RegisterIndexType("fake", &BruteType{})
	return e
}

func TestEngineCreateCollectionStatement(t *testing.T) {
	e := newCollectionEngine(t)
	if _, err := e.Exec("CREATE COLLECTION spans USING fake", nil); err != nil {
		t.Fatal(err)
	}
	infos := e.Collections()
	if len(infos) != 1 || infos[0].Name != "spans" || infos[0].Method != "fake" {
		t.Fatalf("Collections = %v", infos)
	}
	if m, ok := e.CollectionMethod("spans"); !ok || m != "fake" {
		t.Fatalf("CollectionMethod = %q, %v", m, ok)
	}
	if _, err := e.Exec("INSERT INTO spans VALUES (10, 20, 7)", nil); err != nil {
		t.Fatal(err)
	}
	r, err := e.Exec("SELECT id FROM spans WHERE intersects(lower, upper, 15, 16)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0] != 7 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// Unknown method errors and leaves no half-made collection behind.
	if _, err := e.Exec("CREATE COLLECTION bad USING nope", nil); err == nil {
		t.Fatal("unknown access method accepted")
	}
	if _, err := e.DB().Table("bad"); err == nil {
		t.Fatal("failed CREATE COLLECTION left the base table behind")
	}
	// DROP COLLECTION removes table, index and definition.
	if _, err := e.Exec("DROP COLLECTION spans", nil); err != nil {
		t.Fatal(err)
	}
	if len(e.Collections()) != 0 {
		t.Fatal("collection survived DROP COLLECTION")
	}
	if _, err := e.Exec("DROP COLLECTION spans", nil); err == nil {
		t.Fatal("double DROP COLLECTION succeeded")
	}
	// DROP COLLECTION refuses plain tables; DROP TABLE handles those.
	e.MustExec("CREATE TABLE plain (a int)", nil)
	if _, err := e.Exec("DROP COLLECTION plain", nil); err == nil || !strings.Contains(err.Error(), "no collection") {
		t.Fatalf("DROP COLLECTION on a plain table: %v", err)
	}
}

func TestEngineDefaultAccessMethodAndRegistry(t *testing.T) {
	e := newCollectionEngine(t)
	if got := e.IndexTypes(); !slices.Equal(got, []string{"fake"}) {
		t.Fatalf("IndexTypes = %v", got)
	}
	// Default method is "ritree", which this engine does not register.
	if _, err := e.Exec("CREATE COLLECTION d1", nil); err == nil {
		t.Fatal("default method resolved without registration")
	}
	e.RegisterIndexType(DefaultAccessMethod, e.indexTypes["fake"])
	if _, err := e.Exec("CREATE COLLECTION d1", nil); err != nil {
		t.Fatal(err)
	}
	if m, _ := e.CollectionMethod("d1"); m != DefaultAccessMethod {
		t.Fatalf("method = %q", m)
	}
}

func TestEngineProgrammaticRowDML(t *testing.T) {
	e := newCollectionEngine(t)
	if err := e.CreateCollection("c", "fake", nil); err != nil {
		t.Fatal(err)
	}
	first, err := e.BulkInsert("c", [][]int64{{1, 5, 100}})
	if err != nil || len(first) != 1 {
		t.Fatal(first, err)
	}
	rid := first[0]
	ci, ok := e.CustomIndexByName(CollectionIndexName("c"))
	if !ok {
		t.Fatal("collection index not attached")
	}
	f := ci.(*BruteIndex)
	if f.Len() != 1 {
		t.Fatalf("maintenance missed: %d entries", f.Len())
	}
	// BulkInsert is one Apply batch.
	rows := [][]int64{{2, 3, 101}, {4, 9, 102}, {7, 8, 103}}
	rids, err := e.BulkInsert("c", rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 3 || f.Applies != 2 || f.Len() != 4 {
		t.Fatalf("bulk: rids=%d applies=%d indexed=%d", len(rids), f.Applies, f.Len())
	}
	found, err := e.DeleteCollectionRow("c", func(_ Reader, tab *rel.Table) (Entry, bool, error) {
		row, err := tab.GetRaw(rid)
		return Entry{RID: rid, Row: row}, err == nil, err
	})
	if err != nil || !found {
		t.Fatal(found, err)
	}
	if f.Len() != 3 {
		t.Fatalf("delete maintenance missed: %d entries", f.Len())
	}
	tab, _ := e.DB().Table("c")
	if tab.RowCount() != 3 {
		t.Fatalf("heap count = %d", tab.RowCount())
	}
}

func TestParseCollectionStatements(t *testing.T) {
	st, err := Parse("CREATE COLLECTION flights USING hint_sharded;")
	if err != nil {
		t.Fatal(err)
	}
	cs, ok := st.(*CreateCollectionStmt)
	if !ok || cs.Name != "flights" || cs.Method != "hint_sharded" {
		t.Fatalf("parsed %#v", st)
	}
	st, err = Parse("CREATE COLLECTION flights")
	if err != nil {
		t.Fatal(err)
	}
	if cs := st.(*CreateCollectionStmt); cs.Method != "" {
		t.Fatalf("method = %q", cs.Method)
	}
	st, err = Parse("DROP COLLECTION flights")
	if err != nil {
		t.Fatal(err)
	}
	if ds := st.(*DropCollectionStmt); ds.Name != "flights" {
		t.Fatalf("parsed %#v", st)
	}
	if _, err := Parse("CREATE COLLECTION"); err == nil {
		t.Fatal("nameless CREATE COLLECTION parsed")
	}
}
