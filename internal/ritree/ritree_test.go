package ritree

import (
	"math/rand"
	"sort"
	"testing"

	"ritree/internal/interval"
	"ritree/internal/pagestore"
	"ritree/internal/rel"
)

func newTestTree(t *testing.T, opts Options) (*Tree, *rel.DB) {
	t.Helper()
	st := pagestore.NewMem(pagestore.Options{PageSize: 512, CacheSize: 128})
	db, err := rel.CreateDB(st)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(db, "iv", opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr, db
}

// brute is the reference implementation: a plain list of intervals.
type brute struct {
	ivs []interval.Interval
	ids []int64
}

func (b *brute) insert(iv interval.Interval, id int64) {
	b.ivs = append(b.ivs, iv)
	b.ids = append(b.ids, id)
}

func (b *brute) remove(iv interval.Interval, id int64) bool {
	for i := range b.ivs {
		if b.ivs[i] == iv && b.ids[i] == id {
			b.ivs = append(b.ivs[:i], b.ivs[i+1:]...)
			b.ids = append(b.ids[:i], b.ids[i+1:]...)
			return true
		}
	}
	return false
}

func (b *brute) intersecting(q interval.Interval, now int64) []int64 {
	var out []int64
	for i, iv := range b.ivs {
		eff := iv
		if eff.Upper == interval.NowMarker {
			eff.Upper = now
			if !eff.Valid() {
				continue
			}
		}
		if eff.Intersects(q) {
			out = append(out, b.ids[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInsertAndIntersectBasic(t *testing.T) {
	tr, _ := newTestTree(t, Options{})
	data := []struct {
		iv interval.Interval
		id int64
	}{
		{interval.New(1, 5), 1},
		{interval.New(3, 9), 2},
		{interval.New(10, 20), 3},
		{interval.New(15, 15), 4},
		{interval.New(0, 100), 5},
	}
	for _, d := range data {
		if err := tr.Insert(d.iv, d.id); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count() != 5 {
		t.Fatalf("Count = %d, want 5", tr.Count())
	}
	cases := []struct {
		q    interval.Interval
		want []int64
	}{
		{interval.New(4, 4), []int64{1, 2, 5}},
		{interval.New(6, 9), []int64{2, 5}},
		{interval.New(21, 30), []int64{5}},
		{interval.New(101, 200), nil},
		{interval.New(15, 15), []int64{3, 4, 5}},
		{interval.New(-50, 0), []int64{5}},
		{interval.New(-50, -1), nil},
	}
	for _, c := range cases {
		got, err := tr.Intersecting(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(got, c.want) {
			t.Errorf("Intersecting(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestInvalidIntervalRejected(t *testing.T) {
	tr, _ := newTestTree(t, Options{})
	if err := tr.Insert(interval.New(5, 3), 1); err == nil {
		t.Fatal("invalid interval accepted")
	}
	// Invalid query returns no results, no error.
	ids, err := tr.Intersecting(interval.New(5, 3))
	if err != nil || ids != nil {
		t.Fatalf("invalid query = %v, %v", ids, err)
	}
}

func TestOffsetFarFromOrigin(t *testing.T) {
	// §3.4: intervals located far from the origin must not blow up the
	// tree height; offset shifts the data space.
	tr, _ := newTestTree(t, Options{})
	base := int64(1_000_000_000)
	b := &brute{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		lo := base + rng.Int63n(4096)
		iv := interval.New(lo, lo+rng.Int63n(256))
		tr.Insert(iv, int64(i))
		b.insert(iv, int64(i))
	}
	p := tr.Params()
	if !p.OffsetSet || p.Offset < base-1-4096 {
		t.Fatalf("offset not applied: %+v", p)
	}
	if p.RightRoot > 8192 {
		t.Fatalf("rightRoot = %d: data space not shifted compactly", p.RightRoot)
	}
	if h := tr.Height(); h > 14 {
		t.Fatalf("height = %d, want around log2(4096+256)+1", h)
	}
	for i := 0; i < 50; i++ {
		lo := base + rng.Int63n(4500) - 200
		q := interval.New(lo, lo+rng.Int63n(500))
		got, err := tr.Intersecting(q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(got, b.intersecting(q, tr.Now())) {
			t.Fatalf("query %v: got %v, want %v", q, got, b.intersecting(q, tr.Now()))
		}
	}
}

func TestDynamicExpansionBothSides(t *testing.T) {
	// §3.4: the data space must expand at the upper AND the lower bound.
	tr, _ := newTestTree(t, Options{})
	b := &brute{}
	// First insert fixes offset; later intervals lie far left and far
	// right of it.
	seq := []interval.Interval{
		interval.New(1000, 1010),
		interval.New(5000, 5100),   // expand right
		interval.New(10, 20),       // expand left (negative shifted)
		interval.New(-8000, -7900), // further left
		interval.New(99999, 99999), // far right point
		interval.New(-8000, 99999), // spans everything incl. node 0
	}
	for i, iv := range seq {
		if err := tr.Insert(iv, int64(i)); err != nil {
			t.Fatal(err)
		}
		b.insert(iv, int64(i))
	}
	p := tr.Params()
	if p.LeftRoot >= 0 {
		t.Fatalf("leftRoot = %d, want negative after left expansion", p.LeftRoot)
	}
	if p.RightRoot <= 0 {
		t.Fatalf("rightRoot = %d, want positive", p.RightRoot)
	}
	queries := []interval.Interval{
		interval.New(-10000, 0),
		interval.New(0, 100000),
		interval.New(-8000, -8000),
		interval.New(1005, 1005),
		interval.New(-7950, 15),
		interval.New(99999, 200000),
		interval.New(-999999, 999999),
	}
	for _, q := range queries {
		got, err := tr.Intersecting(q)
		if err != nil {
			t.Fatal(err)
		}
		want := b.intersecting(q, tr.Now())
		if !equalIDs(got, want) {
			t.Fatalf("query %v: got %v, want %v", q, got, want)
		}
	}
}

func TestRandomizedAgainstBruteForce(t *testing.T) {
	// The central correctness test: mixed inserts/deletes/queries checked
	// against a brute-force model, across several data shapes.
	shapes := []struct {
		name            string
		domain, maxLen  int64
		negativeAllowed bool
	}{
		{"small-dense", 256, 32, false},
		{"wide-sparse", 1 << 20, 4096, false},
		{"negative", 4096, 512, true},
		{"points-only", 1024, 0, false},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			tr, _ := newTestTree(t, Options{})
			b := &brute{}
			rng := rand.New(rand.NewSource(99))
			nextID := int64(0)
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // insert
					lo := rng.Int63n(sh.domain)
					if sh.negativeAllowed {
						lo -= sh.domain / 2
					}
					ln := int64(0)
					if sh.maxLen > 0 {
						ln = rng.Int63n(sh.maxLen)
					}
					iv := interval.New(lo, lo+ln)
					if err := tr.Insert(iv, nextID); err != nil {
						t.Fatal(err)
					}
					b.insert(iv, nextID)
					nextID++
				case op < 7 && len(b.ivs) > 0: // delete random live interval
					i := rng.Intn(len(b.ivs))
					iv, id := b.ivs[i], b.ids[i]
					ok, err := tr.Delete(iv, id)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatalf("step %d: Delete(%v,%d) = false", step, iv, id)
					}
					b.remove(iv, id)
				case op < 8: // delete something absent
					iv := interval.New(rng.Int63n(sh.domain), rng.Int63n(sh.domain)+sh.domain)
					ok, err := tr.Delete(iv, 1<<40)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						t.Fatalf("step %d: deleted absent interval", step)
					}
				default: // query
					lo := rng.Int63n(sh.domain)
					if sh.negativeAllowed {
						lo -= sh.domain / 2
					}
					q := interval.New(lo, lo+rng.Int63n(sh.domain/4+1))
					got, err := tr.Intersecting(q)
					if err != nil {
						t.Fatal(err)
					}
					want := b.intersecting(q, tr.Now())
					if !equalIDs(got, want) {
						t.Fatalf("step %d: query %v: got %v, want %v", step, q, got, want)
					}
				}
			}
			if tr.Count() != int64(len(b.ivs)) {
				t.Fatalf("Count = %d, model %d", tr.Count(), len(b.ivs))
			}
		})
	}
}

func TestAblationVariantsAgree(t *testing.T) {
	// The Figure-8 three-branch form and the minstep-disabled traversal
	// must return exactly the intersection results of the optimized tree.
	st := pagestore.NewMem(pagestore.Options{PageSize: 512, CacheSize: 128})
	db, _ := rel.CreateDB(st)
	base, err := Create(db, "iv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b := &brute{}
	for i := 0; i < 1500; i++ {
		lo := rng.Int63n(1 << 16)
		iv := interval.New(lo, lo+rng.Int63n(2048))
		base.Insert(iv, int64(i))
		b.insert(iv, int64(i))
	}
	threeBranch, err := Open(db, "iv", Options{ThreeBranchQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	noMinstep, err := Open(db, "iv", Options{DisableMinStep: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		lo := rng.Int63n(1 << 16)
		q := interval.New(lo, lo+rng.Int63n(4096))
		want := b.intersecting(q, base.Now())
		for name, tr := range map[string]*Tree{"two-fold": base, "three-branch": threeBranch, "no-minstep": noMinstep} {
			got, err := tr.Intersecting(q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(got, want) {
				t.Fatalf("%s: query %v: got %d ids, want %d", name, q, len(got), len(want))
			}
		}
	}
}

func TestMinStepPruningReducesProbes(t *testing.T) {
	// With only long intervals stored, minstep grows and queries must
	// touch fewer nodes than with pruning disabled (§3.4, Figure 15).
	st := pagestore.NewMem(pagestore.Options{PageSize: 512, CacheSize: 512})
	db, _ := rel.CreateDB(st)
	tr, _ := Create(db, "iv", Options{})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		lo := rng.Int63n(1 << 18)
		tr.Insert(interval.New(lo, lo+1024+rng.Int63n(1024)), int64(i))
	}
	p := tr.Params()
	if p.MinStep < 2 {
		t.Fatalf("minstep = %d; long intervals should register high", p.MinStep)
	}
	q := interval.New(5000, 5100)
	pruned := tr.collectNodes(q)
	tr2, _ := Open(db, "iv", Options{DisableMinStep: true})
	full := tr2.collectNodes(q)
	if len(pruned.Left)+len(pruned.Right) >= len(full.Left)+len(full.Right) {
		t.Fatalf("pruning did not reduce probes: %d vs %d",
			len(pruned.Left)+len(pruned.Right), len(full.Left)+len(full.Right))
	}
}

func TestSkeletonMaterialization(t *testing.T) {
	// §7 extension: with the backbone partially materialized, queries drop
	// probes of empty nodes but return identical results.
	st := pagestore.NewMem(pagestore.Options{PageSize: 512, CacheSize: 256})
	db, _ := rel.CreateDB(st)
	plain, err := Create(db, "iv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	b := &brute{}
	for i := 0; i < 2000; i++ {
		lo := rng.Int63n(1 << 18)
		iv := interval.New(lo, lo+rng.Int63n(256))
		plain.Insert(iv, int64(i))
		b.insert(iv, int64(i))
	}
	skel, err := Open(db, "iv", Options{MaterializeBackbone: true})
	if err != nil {
		t.Fatal(err)
	}
	if skel.SkeletonSize() <= 0 {
		t.Fatalf("SkeletonSize = %d", skel.SkeletonSize())
	}
	if plain.SkeletonSize() != -1 {
		t.Fatal("plain tree reports a skeleton")
	}
	probesPlain, probesSkel := 0, 0
	for i := 0; i < 100; i++ {
		lo := rng.Int63n(1 << 18)
		q := interval.New(lo, lo+rng.Int63n(4096))
		want := b.intersecting(q, plain.Now())
		for _, tr := range []*Tree{plain, skel} {
			got, err := tr.Intersecting(q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(got, want) {
				t.Fatalf("query %v: got %d, want %d", q, len(got), len(want))
			}
		}
		tp := plain.collectNodes(q)
		ts := skel.collectNodes(q)
		probesPlain += len(tp.Left) + len(tp.Right)
		probesSkel += len(ts.Left) + len(ts.Right)
	}
	if probesSkel >= probesPlain {
		t.Fatalf("skeleton did not reduce probes: %d vs %d", probesSkel, probesPlain)
	}
	// Maintenance on insert and delete.
	iv := interval.New(777777, 777999)
	skel.Insert(iv, 99999)
	ids, _ := skel.Intersecting(interval.Point(777800))
	if !equalIDs(ids, []int64{99999}) {
		t.Fatalf("after insert: %v", ids)
	}
	ok, _ := skel.Delete(iv, 99999)
	if !ok {
		t.Fatal("delete failed")
	}
	ids, _ = skel.Intersecting(interval.Point(777800))
	if len(ids) != 0 {
		t.Fatalf("after delete: %v", ids)
	}
}

func TestParamsPersistence(t *testing.T) {
	st := pagestore.NewMem(pagestore.Options{PageSize: 512, CacheSize: 128})
	db, _ := rel.CreateDB(st)
	tr, _ := Create(db, "iv", Options{})
	tr.Insert(interval.New(100, 200), 1)
	tr.Insert(interval.New(5000, 6000), 2)
	want := tr.Params()

	tr2, err := Open(db, "iv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Params() != want {
		t.Fatalf("reopened params = %+v, want %+v", tr2.Params(), want)
	}
	ids, err := tr2.Intersecting(interval.New(150, 5500))
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(ids, []int64{1, 2}) {
		t.Fatalf("reopened query = %v", ids)
	}
}

func TestPointWorkload(t *testing.T) {
	// Degenerate intervals: minstep must hit 1 and stab queries work.
	tr, _ := newTestTree(t, Options{})
	for i := int64(0); i < 500; i++ {
		if err := tr.Insert(interval.Point(i*2), i); err != nil {
			t.Fatal(err)
		}
	}
	if ms := tr.Params().MinStep; ms != 1 {
		t.Fatalf("minstep = %d, want 1 for point data", ms)
	}
	ids, err := tr.Stab(100)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(ids, []int64{50}) {
		t.Fatalf("Stab(100) = %v", ids)
	}
	ids, _ = tr.Stab(101)
	if len(ids) != 0 {
		t.Fatalf("Stab(101) = %v, want empty", ids)
	}
}

func TestProbeCountBoundedByHeight(t *testing.T) {
	// §4.4: the transient collections have O(h) entries; the number of
	// index probes per query must not depend on n.
	tr, _ := newTestTree(t, Options{})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		lo := rng.Int63n(1 << 20)
		tr.Insert(interval.New(lo, lo+rng.Int63n(2048)), int64(i))
	}
	h := tr.Height()
	for i := 0; i < 100; i++ {
		lo := rng.Int63n(1 << 20)
		q := interval.New(lo, lo+rng.Int63n(8192))
		tn := tr.collectNodes(q)
		probes := len(tn.Left) + len(tn.Right)
		// Upper bound: both root-to-bound paths (2h) plus the range pair
		// plus the two temporal sentinels.
		if probes > 2*h+3 {
			t.Fatalf("query %v: %d probes exceeds 2h+3 = %d", q, probes, 2*h+3)
		}
	}
}

func TestTemporalNowAndInfinity(t *testing.T) {
	tr, _ := newTestTree(t, Options{})
	// Regular, infinite, and now-relative intervals side by side (§4.6).
	tr.Insert(interval.New(10, 20), 1)
	tr.InsertInfinite(15, 2)                         // [15, ∞)
	tr.InsertNow(18, 3)                              // [18, now]
	tr.Insert(interval.New(5, interval.Infinity), 4) // routed to InsertInfinite
	tr.Insert(interval.New(40, interval.NowMarker), 5)

	tr.SetNow(50)
	cases := []struct {
		q    interval.Interval
		want []int64
	}{
		{interval.New(0, 9), []int64{4}},            // only [5,∞)
		{interval.New(16, 17), []int64{1, 2, 4}},    // now-interval [18,now] starts later
		{interval.New(19, 25), []int64{1, 2, 3, 4}}, // now >= 19
		{interval.New(45, 60), []int64{2, 3, 4, 5}},
		{interval.New(1000, 2000), []int64{2, 4}}, // beyond now: only infinite
	}
	for _, c := range cases {
		got, err := tr.Intersecting(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(got, c.want) {
			t.Errorf("now=50 query %v = %v, want %v", c.q, got, c.want)
		}
	}

	// Advancing now changes results with zero index maintenance.
	tr.SetNow(17)
	got, _ := tr.Intersecting(interval.New(19, 25))
	if !equalIDs(got, []int64{1, 2, 4}) {
		t.Fatalf("now=17 query = %v, want [1 2 4]", got)
	}

	// Deleting sentinel intervals works.
	ok, err := tr.Delete(interval.New(15, interval.Infinity), 2)
	if err != nil || !ok {
		t.Fatalf("Delete infinite = %v, %v", ok, err)
	}
	ok, err = tr.Delete(interval.New(18, interval.NowMarker), 3)
	if err != nil || !ok {
		t.Fatalf("Delete now = %v, %v", ok, err)
	}
	tr.SetNow(50)
	got, _ = tr.Intersecting(interval.New(19, 25))
	if !equalIDs(got, []int64{1, 4}) {
		t.Fatalf("after sentinel deletes = %v, want [1 4]", got)
	}
}

func TestHeightIndependentOfN(t *testing.T) {
	// §3.5: "In any case, the tree height does not depend on the number of
	// intervals."
	heights := map[int]int{}
	for _, n := range []int{100, 1000, 5000} {
		tr, _ := newTestTree(t, Options{})
		rng := rand.New(rand.NewSource(31))
		for i := 0; i < n; i++ {
			lo := rng.Int63n(1 << 16)
			tr.Insert(interval.New(lo, lo+rng.Int63n(16)), int64(i))
		}
		heights[n] = tr.Height()
	}
	if heights[1000] > heights[100]+1 || heights[5000] > heights[1000]+1 {
		t.Fatalf("height grew with n: %v", heights)
	}
}

func TestDuplicateIntervalsDistinctIDs(t *testing.T) {
	tr, _ := newTestTree(t, Options{})
	iv := interval.New(10, 20)
	for id := int64(0); id < 10; id++ {
		if err := tr.Insert(iv, id); err != nil {
			t.Fatal(err)
		}
	}
	ids, _ := tr.Intersecting(interval.New(15, 15))
	if len(ids) != 10 {
		t.Fatalf("got %d ids, want 10", len(ids))
	}
	// Delete removes exactly one registration per call.
	ok, _ := tr.Delete(iv, 3)
	if !ok {
		t.Fatal("delete failed")
	}
	ids, _ = tr.Intersecting(interval.New(15, 15))
	if len(ids) != 9 {
		t.Fatalf("after delete: %d ids, want 9", len(ids))
	}
	ok, _ = tr.Delete(iv, 3)
	if ok {
		t.Fatal("second delete of same id succeeded")
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	tr, _ := newTestTree(t, Options{})
	ids, err := tr.Intersecting(interval.New(0, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("empty tree returned %v", ids)
	}
	ok, err := tr.Delete(interval.New(0, 1), 1)
	if err != nil || ok {
		t.Fatalf("delete on empty tree = %v, %v", ok, err)
	}
}
