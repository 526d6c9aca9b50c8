package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ritree/internal/rel"
)

// registerFake registers the brute-force double (double_test.go) as
// indextype "fake" and returns it, for exercising the engine-side
// indextype machinery without the real access methods.
func registerFake(e *Engine, dropErr error) *BruteType {
	bt := &BruteType{DropErr: dropErr}
	e.RegisterIndexType("fake", bt)
	return bt
}

// last returns the most recently built index.
func (t *BruteType) last() *BruteIndex { return t.Built[len(t.Built)-1] }

func TestCreateCustomIndexRecordsCatalogDef(t *testing.T) {
	e := newEngine(t)
	registerFake(e, nil)
	mustExec(t, e, "CREATE TABLE ev (lo int, hi int)", nil)
	mustExec(t, e, "CREATE INDEX ev_f ON ev (lo, hi) INDEXTYPE IS fake", nil)

	def, ok := e.DB().CustomIndex("ev_f")
	if !ok {
		t.Fatal("CREATE INDEX ... INDEXTYPE did not record a catalog definition")
	}
	if def.IndexType != "fake" || def.Table != "ev" || len(def.Columns) != 2 {
		t.Fatalf("def = %+v", def)
	}
	mustExec(t, e, "DROP INDEX ev_f", nil)
	if _, ok := e.DB().CustomIndex("ev_f"); ok {
		t.Fatal("DROP INDEX left the catalog definition behind")
	}
}

func TestIndexNamespaceSharedAcrossKinds(t *testing.T) {
	e := newEngine(t)
	registerFake(e, nil)
	mustExec(t, e, "CREATE TABLE ev (lo int, hi int)", nil)

	// custom first, builtin second
	mustExec(t, e, "CREATE INDEX x ON ev (lo, hi) INDEXTYPE IS fake", nil)
	if _, err := e.Exec("CREATE INDEX x ON ev (lo)", nil); !errors.Is(err, rel.ErrExists) {
		t.Fatalf("builtin over custom name = %v, want ErrExists", err)
	}
	// builtin first, custom second
	mustExec(t, e, "CREATE INDEX y ON ev (lo)", nil)
	if _, err := e.Exec("CREATE INDEX y ON ev (lo, hi) INDEXTYPE IS fake", nil); !errors.Is(err, rel.ErrExists) {
		t.Fatalf("custom over builtin name = %v, want ErrExists", err)
	}
	// the failed duplicate must not have left a dangling definition
	if _, ok := e.DB().CustomIndex("y"); ok {
		t.Fatal("failed CREATE INDEX recorded a definition")
	}
}

func TestDropCustomIndexFailureKeepsRegistration(t *testing.T) {
	e := newEngine(t)
	bt := registerFake(e, fmt.Errorf("storage busy"))
	mustExec(t, e, "CREATE TABLE ev (lo int, hi int)", nil)
	mustExec(t, e, "CREATE INDEX ev_f ON ev (lo, hi) INDEXTYPE IS fake", nil)
	last := bt.last()

	if _, err := e.Exec("DROP INDEX ev_f", nil); err == nil || !strings.Contains(err.Error(), "remains attached") {
		t.Fatalf("DROP INDEX with failing Drop = %v, want 'remains attached' error", err)
	}
	// Index must still be attached (maintenance keeps running)...
	before := last.Applies
	mustExec(t, e, "INSERT INTO ev VALUES (1, 2)", nil)
	if last.Applies != before+1 {
		t.Fatal("failed DROP INDEX detached the index: maintenance skipped")
	}
	// ...and its catalog definition intact, so a retry is possible.
	if _, ok := e.DB().CustomIndex("ev_f"); !ok {
		t.Fatal("failed DROP INDEX removed the catalog definition")
	}
	last.DropErr = nil
	mustExec(t, e, "DROP INDEX ev_f", nil)
	if !last.Dropped {
		t.Fatal("retried DROP INDEX did not drop storage")
	}
	if _, ok := e.DB().CustomIndex("ev_f"); ok {
		t.Fatal("retried DROP INDEX left the catalog definition")
	}
}

func TestAttachCatalogIndexes(t *testing.T) {
	e := newEngine(t)
	registerFake(e, nil)
	mustExec(t, e, "CREATE TABLE ev (lo int, hi int)", nil)
	mustExec(t, e, "CREATE INDEX ev_f ON ev (lo, hi) INDEXTYPE IS fake", nil)

	// A second session over the same database: nothing attached until
	// AttachCatalogIndexes walks the catalog.
	e2 := NewEngine(e.DB())
	bt2 := registerFake(e2, nil)
	if err := e2.AttachCatalogIndexes(); err != nil {
		t.Fatal(err)
	}
	if len(bt2.Built) != 1 || !bt2.last().Attached {
		t.Fatalf("AttachCatalogIndexes did not use the Attach path: %+v", bt2.Built)
	}
	// Maintenance runs on the re-attached index.
	mustExec(t, e2, "INSERT INTO ev VALUES (3, 4)", nil)
	if got := bt2.last().Applies; got != 1 {
		t.Fatalf("re-attached index saw %d batches, want 1", got)
	}
	// Idempotent: a second walk attaches nothing new.
	if err := e2.AttachCatalogIndexes(); err != nil {
		t.Fatal(err)
	}
	if len(bt2.Built) != 1 {
		t.Fatal("second AttachCatalogIndexes re-attached an already-attached index")
	}
}

func TestAttachCatalogIndexesUnregisteredTypeFailsLoudly(t *testing.T) {
	e := newEngine(t)
	registerFake(e, nil)
	mustExec(t, e, "CREATE TABLE ev (lo int, hi int)", nil)
	mustExec(t, e, "CREATE INDEX ev_f ON ev (lo, hi) INDEXTYPE IS fake", nil)

	e2 := NewEngine(e.DB()) // session without the indextype registered
	err := e2.AttachCatalogIndexes()
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("AttachCatalogIndexes = %v, want unregistered-indextype error", err)
	}
}

func TestDropUnattachedCustomIndex(t *testing.T) {
	// DROP INDEX must work on a catalog definition that is not attached in
	// this session — it is the recovery path the attach errors advise.
	e := newEngine(t)
	registerFake(e, nil)
	mustExec(t, e, "CREATE TABLE ev (lo int, hi int)", nil)
	mustExec(t, e, "CREATE INDEX ev_f ON ev (lo, hi) INDEXTYPE IS fake", nil)

	// Session with the indextype registered: storage dropped through
	// DropStorage, without attaching.
	e2 := NewEngine(e.DB())
	bt2 := registerFake(e2, nil)
	mustExec(t, e2, "DROP INDEX ev_f", nil)
	if len(bt2.StorageDropped) != 1 || bt2.StorageDropped[0] != "ev_f" || len(bt2.Built) != 0 {
		t.Fatalf("unattached DROP INDEX: DropStorage calls %v, attaches %d", bt2.StorageDropped, len(bt2.Built))
	}
	if _, ok := e.DB().CustomIndex("ev_f"); ok {
		t.Fatal("unattached DROP INDEX left the catalog definition")
	}

	// Session without the indextype registered: the definition alone goes.
	mustExec(t, e, "CREATE INDEX ev_g ON ev (lo, hi) INDEXTYPE IS fake", nil)
	e3 := NewEngine(e.DB())
	mustExec(t, e3, "DROP INDEX ev_g", nil)
	if _, ok := e.DB().CustomIndex("ev_g"); ok {
		t.Fatal("DROP INDEX without a handler left the catalog definition")
	}
}

func TestDropTableCascadesUnattachedDefs(t *testing.T) {
	e := newEngine(t)
	registerFake(e, nil)
	mustExec(t, e, "CREATE TABLE ev (lo int, hi int)", nil)
	mustExec(t, e, "CREATE INDEX ev_f ON ev (lo, hi) INDEXTYPE IS fake", nil)

	// A fresh session that never attached still drops table + definitions.
	e2 := NewEngine(e.DB())
	registerFake(e2, nil)
	mustExec(t, e2, "DROP TABLE ev", nil)
	if _, ok := e.DB().CustomIndex("ev_f"); ok {
		t.Fatal("DROP TABLE left an unattached catalog definition")
	}
	if len(e.DB().CustomIndexes()) != 0 {
		t.Fatalf("defs remain: %v", e.DB().CustomIndexes())
	}
}

func TestDropTableCascadesToDomainIndexes(t *testing.T) {
	// DROP TABLE must detach and drop attached domain indexes: a recreated
	// same-named table would otherwise be served stale results through the
	// surviving registration and hidden storage.
	e := newEngine(t)
	bt := registerFake(e, nil)
	mustExec(t, e, "CREATE TABLE ev (lo int, hi int)", nil)
	mustExec(t, e, "CREATE INDEX ev_f ON ev (lo, hi) INDEXTYPE IS fake", nil)
	dropped := bt.last()
	mustExec(t, e, "DROP TABLE ev", nil)
	if !dropped.Dropped {
		t.Fatal("DROP TABLE left the domain index storage alive")
	}
	if _, ok := e.DB().CustomIndex("ev_f"); ok {
		t.Fatal("DROP TABLE left the catalog definition")
	}
	// The recreated table starts with no domain index attached.
	mustExec(t, e, "CREATE TABLE ev (lo int, hi int)", nil)
	before := dropped.Applies
	mustExec(t, e, "INSERT INTO ev VALUES (1, 2)", nil)
	if dropped.Applies != before {
		t.Fatal("stale domain index still maintained after DROP TABLE + recreate")
	}
}
