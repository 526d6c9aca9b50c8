package sqldb

import (
	"fmt"
	"sort"

	"ritree/internal/obs"
	"ritree/internal/rel"
)

// BruteType is the access-method contract's brute-force test double: an
// index keeps its (lower, upper) entries in a map, a Reader is a copy of
// that map made when it is bound, and every query scans it. The double
// also records what the engine asked of it. It is exported so the
// conformance test (package sqldb_test) runs it beside the real methods.
type BruteType struct {
	Built          []*BruteIndex // every index Create or Attach returned
	StorageDropped []string      // index names handed to DropStorage
	DropErr        error         // given to every index built
	// Unordered makes Ordered stream by descending lower bound: a feed
	// whose promise of order does not hold.
	Unordered bool
}

func (t *BruteType) Create(e *Engine, name, table string, cols []string, _ map[string]string) (Index, error) {
	tab, err := e.DB().Table(table)
	if err != nil {
		return nil, err
	}
	ix := &BruteIndex{name: name, table: table, cols: cols, DropErr: t.DropErr, unordered: t.Unordered,
		lo: tab.Schema().ColIndex(cols[0]), hi: tab.Schema().ColIndex(cols[1]),
		rows: make(map[rel.RowID][2]int64)}
	t.Built = append(t.Built, ix)
	return ix, tab.Scan(func(rid rel.RowID, row []int64) bool {
		ix.rows[rid] = [2]int64{row[ix.lo], row[ix.hi]}
		return true
	})
}

func (t *BruteType) Attach(e *Engine, name, table string, cols []string, params map[string]string) (Index, error) {
	ix, err := t.Create(e, name, table, cols, params)
	t.Built[len(t.Built)-1].Attached = true
	return ix, err
}

func (t *BruteType) DropStorage(_ *Engine, name, _ string, _ []string) error {
	t.StorageDropped = append(t.StorageDropped, name)
	return nil
}

type BruteIndex struct {
	name, table string
	cols        []string
	lo, hi      int
	rows        map[rel.RowID][2]int64
	now         int64
	unordered   bool
	Attached    bool // built by Attach
	Applies     int  // Apply calls that succeeded
	DropErr     error
	Dropped     bool
}

func (x *BruteIndex) Name() string                      { return x.name }
func (x *BruteIndex) Table() string                     { return x.table }
func (x *BruteIndex) Columns() []string                 { return x.cols }
func (x *BruteIndex) HasOrdered() bool                  { return true }
func (x *BruteIndex) Persist() error                    { return nil }
func (x *BruteIndex) BindMetrics(*obs.Registry, string) {}
func (x *BruteIndex) SetNow(now int64) error            { x.now = now; return nil }
func (x *BruteIndex) Len() int                          { return len(x.rows) }
func (x *BruteIndex) HasOperator(op string) bool {
	return op == "intersects" || op == "contains_point"
}

// Apply refuses inverted intervals, after validating the whole batch.
func (x *BruteIndex) Apply(ins, del []Entry) error {
	for _, en := range ins {
		if en.Row[x.lo] > en.Row[x.hi] {
			return fmt.Errorf("brute: inverted interval [%d, %d]", en.Row[x.lo], en.Row[x.hi])
		}
	}
	for _, en := range ins {
		x.rows[en.RID] = [2]int64{en.Row[x.lo], en.Row[x.hi]}
	}
	for _, en := range del {
		delete(x.rows, en.RID)
	}
	x.Applies++
	return nil
}

func (x *BruteIndex) Drop() error {
	if x.DropErr != nil {
		return x.DropErr
	}
	x.Dropped = true
	return nil
}

func (x *BruteIndex) Reader(*rel.DB) (Reader, error) {
	r := bruteReader{rows: make(map[rel.RowID][2]int64, len(x.rows)), now: x.now, unordered: x.unordered}
	for rid, iv := range x.rows {
		r.rows[rid] = iv
	}
	return r, nil
}

type bruteReader struct {
	rows      map[rel.RowID][2]int64
	now       int64
	unordered bool
}

func (r bruteReader) Now() (int64, bool) { return r.now, true }

func (r bruteReader) Scan(op string, args []int64, fn func(rel.RowID) bool) error {
	qlo, qhi := args[0], args[len(args)-1]
	for rid, iv := range r.rows {
		if iv[0] <= qhi && qlo <= iv[1] && !fn(rid) {
			break
		}
	}
	return nil
}

func (r bruteReader) Count(op string, args []int64) (n int64, err error) {
	return n, r.Scan(op, args, func(rel.RowID) bool { n++; return true })
}

func (r bruteReader) Ordered(fn func(rid rel.RowID, lo, hi int64) bool) error {
	rids := make([]rel.RowID, 0, len(r.rows))
	for rid := range r.rows {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(i, j int) bool { return (r.rows[rids[i]][0] < r.rows[rids[j]][0]) != r.unordered })
	for _, rid := range rids {
		if iv := r.rows[rid]; !fn(rid, iv[0], iv[1]) {
			break
		}
	}
	return nil
}
