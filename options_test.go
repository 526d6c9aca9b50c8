package ritree

import (
	"path/filepath"
	"strings"
	"testing"

	"ritree/internal/hint"
	ritcore "ritree/internal/ritree"
	"ritree/internal/sqldb"
)

// backingSharded reaches the HINT behind a collection's access-method
// index (test-only observability).
func backingSharded(t *testing.T, db *DB, name string) *hint.Sharded {
	t.Helper()
	ci, ok := db.eng.CustomIndexByName(sqldb.CollectionIndexName(name))
	if !ok {
		t.Fatalf("collection %s has no attached index", name)
	}
	b, ok := ci.(interface{ BackingIndex() *hint.Sharded })
	if !ok {
		t.Fatalf("collection %s index %T exposes no BackingIndex", name, ci)
	}
	return b.BackingIndex()
}

// backingTree reaches the RI-tree behind a ritree collection's
// access-method index (test-only observability).
func backingTree(t *testing.T, db *DB, name string) *ritcore.Tree {
	t.Helper()
	ci, ok := db.eng.CustomIndexByName(sqldb.CollectionIndexName(name))
	if !ok {
		t.Fatalf("collection %s has no attached index", name)
	}
	b, ok := ci.(interface{ BackingTree() *ritcore.Tree })
	if !ok {
		t.Fatalf("collection %s index %T exposes no BackingTree", name, ci)
	}
	return b.BackingTree()
}

func TestCollectionOptionsConfigureHINT(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := db.CreateCollection("tuned",
		AccessMethod(AccessMethodHINTSharded), WithMethodParam("bits", "24"), WithMethodParam("shards", "4"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(NewInterval(10, 20), 1); err != nil {
		t.Fatal(err)
	}
	ix := backingSharded(t, db, "tuned")
	if ix.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", ix.Shards())
	}
	if ix.Bits() < 24 {
		t.Fatalf("Bits = %d, want >= 24", ix.Bits())
	}
	// Unknown and malformed parameters are rejected, not ignored.
	if _, err := db.CreateCollection("bad1",
		AccessMethod(AccessMethodHINT), WithMethodParam("bitz", "20")); err == nil ||
		!strings.Contains(err.Error(), "unknown parameter") {
		t.Fatalf("typo parameter = %v, want unknown-parameter error", err)
	}
	if _, err := db.CreateCollection("bad2",
		AccessMethod(AccessMethodHINT), WithMethodParam("bits", "lots")); err == nil {
		t.Fatal("malformed bits value accepted")
	}
}

func TestCollectionOptionsPersistAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tuned.pages")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("tuned",
		AccessMethod(AccessMethodHINTSharded), WithMethodParam("bits", "24"), WithMethodParam("shards", "4"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(NewInterval(10, 20), 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ix := backingSharded(t, db2, "tuned")
	if ix.Shards() != 4 || ix.Bits() < 24 {
		t.Fatalf("reopened geometry: shards=%d bits=%d, want 4 / >=24 (params not persisted?)",
			ix.Shards(), ix.Bits())
	}
	c2, err := db2.Collection("tuned")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := c2.Intersecting(NewInterval(15, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("reopened query = %v", ids)
	}
}

func TestCreateCollectionWithClauseSQL(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE COLLECTION cx USING hint_sharded WITH (bits = 22, shards = 3)", nil); err != nil {
		t.Fatal(err)
	}
	ix := backingSharded(t, db, "cx")
	if ix.Shards() != 3 || ix.Bits() < 22 {
		t.Fatalf("WITH clause geometry: shards=%d bits=%d", ix.Shards(), ix.Bits())
	}
	if _, err := db.Exec("CREATE COLLECTION cy USING hint WITH (bits = 9999)", nil); err == nil {
		t.Fatal("out-of-range bits accepted")
	}
}

func TestRITreeSkeletonParam(t *testing.T) {
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := db.CreateCollection("sk", WithMethodParam("skeleton", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(NewInterval(5, 9), 1); err != nil {
		t.Fatal(err)
	}
	if backingTree(t, db, "sk").SkeletonSize() < 0 {
		t.Fatal("skeleton=1 did not materialize the backbone")
	}
	if _, err := db.CreateCollection("sk2", WithMethodParam("skeleton", "maybe")); err == nil {
		t.Fatal("bad skeleton value accepted")
	}
}
