package ritree

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"ritree/internal/pagestore"
	"ritree/internal/rel"
)

var errInjected = errors.New("injected read fault")

// failingBackend fails every page read while armed.
type failingBackend struct {
	pagestore.Backend
	armed atomic.Bool
}

func (f *failingBackend) ReadPage(id pagestore.PageID, buf []byte) error {
	if f.armed.Load() {
		return errInjected
	}
	return f.Backend.ReadPage(id, buf)
}

// TestHeapReadFaultIsAnError: a base-relation page that cannot be read
// must fail the query, never drop the row and return a shorter answer.
// The buffer cache is far smaller than the heap, so once the backend
// fails, the row fetches behind every read path miss and hit the fault.
func TestHeapReadFaultIsAnError(t *testing.T) {
	for _, method := range testMethods {
		t.Run(method, func(t *testing.T) {
			fb := &failingBackend{Backend: pagestore.NewMemBackend()}
			st, err := pagestore.New(fb, pagestore.Options{PageSize: pagestore.DefaultPageSize, CacheSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			rdb, err := rel.CreateDB(st)
			if err != nil {
				t.Fatal(err)
			}
			db, err := newDB(st, rdb, applyOptions(nil), false, false)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			defer fb.armed.Store(false)
			c, err := db.CreateCollection("f", AccessMethod(method))
			if err != nil {
				t.Fatal(err)
			}
			// The first row never ends, so a far-tail query has a row to
			// verify against the heap, on a page long evicted.
			const n = 5000
			ivs := make([]Interval, n)
			ids := make([]int64, n)
			for i := range ivs {
				ivs[i] = NewInterval(int64(i*10), int64(i*10+50))
				ids[i] = int64(i)
			}
			ivs[0].Upper = Infinity
			if err := c.BulkLoad(ivs, ids); err != nil {
				t.Fatal(err)
			}
			drain := func(sql string) error {
				rows, err := db.Query(context.Background(), sql, nil)
				if err != nil {
					return err
				}
				defer rows.Close()
				for rows.Next() {
				}
				return rows.Err()
			}
			statements := []string{
				"SELECT id FROM f WHERE intersects(lower, upper, 0, 100000)",
				"SELECT COUNT(*) FROM f a, f b WHERE intersects(a.lower, a.upper, b.lower, b.upper)",
			}
			// Build the snapshot view while the backend is healthy, so the
			// armed drains below fail in their row fetches, not in view setup.
			if err := drain("SELECT id FROM f WHERE contains_point(lower, upper, -1)"); err != nil {
				t.Fatal(err)
			}

			fb.armed.Store(true)
			if ids, err := c.Intersecting(NewInterval(0, 100000)); !errors.Is(err, errInjected) {
				t.Fatalf("Intersecting = %d ids, %v; want the injected fault", len(ids), err)
			}
			if ids, err := c.Query(Overlaps, NewInterval(100, 100000)); !errors.Is(err, errInjected) {
				t.Fatalf("Query = %d ids, %v; want the injected fault", len(ids), err)
			}
			farTail := NewInterval(int64(1)<<60, int64(1)<<60+5)
			if ids, err := c.Intersecting(farTail); !errors.Is(err, errInjected) {
				t.Fatalf("far-tail Intersecting = %v, %v; want the injected fault", ids, err)
			}
			for _, sql := range statements {
				if err := drain(sql); !errors.Is(err, errInjected) {
					t.Fatalf("drained %q = %v; want the injected fault", sql, err)
				}
			}
		})
	}
}
