package rel

import (
	"encoding/binary"
	"runtime"
	"testing"

	"ritree/internal/pagestore"
)

// fuzzPageSize keeps catalog pages small, so a fuzz input spans several
// chain pages and their headers.
const fuzzPageSize = 256

// fuzzBase builds the database whose catalog chain the fuzz input
// replaces: the tables, index, domain-index definitions and blob of the
// catalog tests, with rows, over a MemBackend store. Deterministic, so a
// seed laid out against one build lines up with the next.
func fuzzBase(tb testing.TB) *pagestore.Store {
	tb.Helper()
	st, err := pagestore.New(pagestore.NewMemBackend(), pagestore.Options{PageSize: fuzzPageSize, CacheSize: 64})
	if err != nil {
		tb.Fatal(err)
	}
	db, err := CreateDB(st)
	if err != nil {
		tb.Fatal(err)
	}
	ev, err := db.CreateTable("ev", []string{"lo", "hi", "id"})
	if err != nil {
		tb.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		if _, err := ev.Insert([]int64{i, i + 5, i}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := db.CreateTable("t", []string{"a"}); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.CreateIndex("ev_lo", "ev", []string{"lo"}); err != nil {
		tb.Fatal(err)
	}
	for _, def := range []CustomIndexDef{
		{Name: "ev_iv", IndexType: "ritree", Table: "ev", Columns: []string{"lo", "hi"}},
		{Name: "ev_mm", IndexType: "hint", Table: "ev", Columns: []string{"lo", "hi"}, Params: map[string]string{"bits": "12"}},
	} {
		if err := db.RecordCustomIndex(def); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.PutBlob("snap", make([]byte, 600)); err != nil {
		tb.Fatal(err)
	}
	return st
}

// catalogChain returns the pages of st's catalog chain, in order.
func catalogChain(tb testing.TB, st *pagestore.Store) []pagestore.PageID {
	tb.Helper()
	var ids []pagestore.PageID
	for pid := pagestore.PageID(1); pid != pagestore.InvalidPage; {
		ids = append(ids, pid)
		p, err := st.Get(pid)
		if err != nil {
			tb.Fatal(err)
		}
		pid = catNext(p.Data())
		p.Release()
	}
	return ids
}

// chainPages returns the n pages the fuzz input lands on: the base
// catalog chain, then freshly allocated pages.
func chainPages(tb testing.TB, st *pagestore.Store, n int) []pagestore.PageID {
	tb.Helper()
	ids := catalogChain(tb, st)
	for len(ids) < n {
		id, err := st.Allocate()
		if err != nil {
			tb.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids[:n]
}

// chainSeed lays a catalog payload out as the page images the harness
// writes, linked through the pages chainPages returns.
func chainSeed(tb testing.TB, payload []byte) []byte {
	chunk := fuzzPageSize - catHeaderSize
	n := (len(payload) + chunk - 1) / chunk
	ids := chainPages(tb, fuzzBase(tb), n)
	out := make([]byte, 0, n*fuzzPageSize)
	for i := range ids {
		pg := make([]byte, fuzzPageSize)
		pg[0] = catPageType
		if i+1 < n {
			setCatNext(pg, ids[i+1])
		}
		k := copy(pg[catHeaderSize:], payload[min(i*chunk, len(payload)):])
		binary.LittleEndian.PutUint32(pg[8:12], uint32(k))
		out = append(out, pg...)
	}
	return out
}

// FuzzOpenCatalog opens a database whose catalog chain holds the fuzz
// bytes, page image after page image. OpenDB must return an error or a
// database, never panic, and allocate in proportion to the input.
func FuzzOpenCatalog(f *testing.F) {
	base := fuzzBase(f)
	var own []byte
	for _, id := range catalogChain(f, base) {
		p, err := base.Get(id)
		if err != nil {
			f.Fatal(err)
		}
		own = append(own, p.Data()...)
		p.Release()
	}
	f.Add(own)
	f.Add(chainSeed(f, []byte(`{"tables":[{"name":"t","columns":["a"],"header":3}],"indexes":null}`)))
	f.Add(chainSeed(f, []byte(`{"tables":[{"name":"ev","columns":["lo","hi","id"],"header":2}],"indexes":null,"custom_indexes":[{"name":"ev_iv","indextype":"ritree","table":"ev","columns":["lo","hi"]}]}`)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, chain []byte) {
		st := fuzzBase(t)
		n := (len(chain) + fuzzPageSize - 1) / fuzzPageSize
		for i, id := range chainPages(t, st, max(n, 1)) {
			p, err := st.GetMut(id)
			if err != nil {
				t.Fatal(err)
			}
			clear(p.Data())
			copy(p.Data(), chain[min(i*fuzzPageSize, len(chain)):])
			p.Release()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := OpenDB(st, 1)
		runtime.ReadMemStats(&after)
		if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(64*len(chain)+1<<20); alloc > budget {
			t.Fatalf("OpenDB allocated %d bytes for a %d-byte catalog (budget %d)", alloc, len(chain), budget)
		}
		if err != nil {
			return
		}
		for _, name := range db.Tables() {
			if _, err := db.Table(name); err != nil {
				t.Fatal(err)
			}
		}
	})
}
