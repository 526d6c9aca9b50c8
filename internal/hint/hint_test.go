package hint

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ritree/internal/interval"
)

// brute is the reference implementation: a plain slice scanned linearly.
type brute struct {
	ivs []interval.Interval
	ids []int64
}

func (b *brute) insert(iv interval.Interval, id int64) {
	b.ivs = append(b.ivs, iv)
	b.ids = append(b.ids, id)
}

func (b *brute) delete(iv interval.Interval, id int64) bool {
	for i := range b.ivs {
		if b.ids[i] == id && b.ivs[i] == iv {
			b.ivs[i] = b.ivs[len(b.ivs)-1]
			b.ids[i] = b.ids[len(b.ids)-1]
			b.ivs = b.ivs[:len(b.ivs)-1]
			b.ids = b.ids[:len(b.ids)-1]
			return true
		}
	}
	return false
}

func (b *brute) intersecting(q interval.Interval) []int64 {
	var out []int64
	for i := range b.ivs {
		if b.ivs[i].Intersects(q) {
			out = append(out, b.ids[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedEqual(a, b []int64) bool {
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

// adversarialInterval draws an interval biased toward the shapes that
// stress the decomposition: point intervals, domain-spanning intervals,
// shared and partition-aligned endpoints, and infinite uppers.
func adversarialInterval(rng *rand.Rand, max int64) interval.Interval {
	switch rng.Intn(10) {
	case 0: // point
		p := rng.Int63n(max + 1)
		return interval.Point(p)
	case 1: // spans the whole domain
		return interval.New(0, max)
	case 2: // hugs the domain start
		return interval.New(0, rng.Int63n(max+1))
	case 3: // hugs the domain end
		return interval.New(rng.Int63n(max+1), max)
	case 4: // quantized endpoints: many shared bounds and aligned cuts
		q := max / 16
		if q == 0 {
			q = 1
		}
		lo := (rng.Int63n(max+1) / q) * q
		hi := lo + rng.Int63n(3)*q
		if hi > max {
			hi = max
		}
		return interval.New(lo, hi)
	case 5: // infinite upper bound (clamped into the domain by the index)
		return interval.New(rng.Int63n(max+1), interval.Infinity)
	default: // general short-to-medium interval
		lo := rng.Int63n(max + 1)
		hi := lo + rng.Int63n(max/8+1)
		return interval.New(lo, hi)
	}
}

func adversarialQuery(rng *rand.Rand, max int64) interval.Interval {
	switch rng.Intn(10) {
	case 0: // stabbing
		return interval.Point(rng.Int63n(max + 1))
	case 1: // whole domain
		return interval.New(0, max)
	case 2: // aligned window
		q := max / 32
		if q == 0 {
			q = 1
		}
		lo := (rng.Int63n(max+1) / q) * q
		hi := lo + q - 1
		if hi > max {
			hi = max
		}
		return interval.New(lo, hi)
	case 3: // entirely or partly beyond the domain (clamped by the index)
		lo := max - 2 + rng.Int63n(8)
		return interval.New(lo, lo+rng.Int63n(6))
	case 4: // entirely or partly below the domain
		lo := -5 + rng.Int63n(8)
		hi := lo + rng.Int63n(6)
		return interval.New(lo, hi)
	default:
		lo := rng.Int63n(max + 1)
		hi := lo + rng.Int63n(max/16+1)
		if hi > max {
			hi = max
		}
		return interval.New(lo, hi)
	}
}

// TestRandomizedCrossCheck is the property test: mixed insert/delete
// workloads with adversarial interval shapes, cross-checking intersection
// and stabbing results against a brute-force scan after every batch, over
// several index geometries including Levels == Bits. Periodic Optimize calls move entries into the
// flat storage mid-workload, so deletes and queries exercise every mix of
// flat segments and dynamic overlay.
func TestRandomizedCrossCheck(t *testing.T) {
	configs := []Options{
		{},                     // defaults: bits 20, m 10
		{Bits: 14, Levels: 14}, // bottom-level granularity one
		{Bits: 14, Levels: 1},  // degenerate two-partition bottom
		{Bits: 20, Levels: 16},
		{Bits: 10, Levels: 4},
	}
	for ci, opts := range configs {
		x, err := New(opts)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		ref := &brute{}
		max := x.DomainMax()
		nextID := int64(0)

		for round := 0; round < 8; round++ {
			// Insert a batch.
			for i := 0; i < 400; i++ {
				iv := adversarialInterval(rng, max)
				if err := x.Insert(iv, nextID); err != nil {
					t.Fatalf("%s: insert %v: %v", x.Name(), iv, err)
				}
				ref.insert(iv, nextID)
				nextID++
			}
			// Compact on some rounds, so later deletes and queries hit
			// flat segments, overlay buckets, and both.
			if round%3 == 1 {
				x.Optimize()
				if x.OverlayEntries() != 0 {
					t.Fatalf("%s: overlay = %d after Optimize", x.Name(), x.OverlayEntries())
				}
			}
			// Delete a random subset (including an already-deleted pair,
			// which must report false).
			for i := 0; i < 120 && len(ref.ivs) > 0; i++ {
				j := rng.Intn(len(ref.ivs))
				iv, id := ref.ivs[j], ref.ids[j]
				ok, err := x.Delete(iv, id)
				if err != nil {
					t.Fatalf("%s: delete: %v", x.Name(), err)
				}
				if !ok {
					t.Fatalf("%s: delete (%v, %d) reported missing", x.Name(), iv, id)
				}
				ref.delete(iv, id)
			}
			if ok, _ := x.Delete(interval.New(1, 2), -999); ok {
				t.Fatalf("%s: delete of never-inserted pair succeeded", x.Name())
			}

			if got, want := x.Count(), int64(len(ref.ivs)); got != want {
				t.Fatalf("%s: Count = %d, want %d", x.Name(), got, want)
			}

			// Cross-check queries.
			for qi := 0; qi < 60; qi++ {
				q := adversarialQuery(rng, max)
				want := ref.intersecting(q)
				got, err := x.Intersecting(q)
				if err != nil {
					t.Fatalf("%s: query %v: %v", x.Name(), q, err)
				}
				if !sortedEqual(got, want) {
					t.Fatalf("%s: query %v: got %d ids %v, want %d ids %v",
						x.Name(), q, len(got), got, len(want), want)
				}
			}
			// Stabbing via Stab must agree with a point query.
			p := rng.Int63n(max + 1)
			want := ref.intersecting(interval.Point(p))
			got, err := x.Stab(p)
			if err != nil {
				t.Fatal(err)
			}
			if !sortedEqual(got, want) {
				t.Fatalf("%s: stab %d: got %v, want %v", x.Name(), p, got, want)
			}
		}

		// Drain: delete everything, index must be empty.
		for len(ref.ivs) > 0 {
			iv, id := ref.ivs[0], ref.ids[0]
			if ok, _ := x.Delete(iv, id); !ok {
				t.Fatalf("%s: drain delete failed for (%v, %d)", x.Name(), iv, id)
			}
			ref.delete(iv, id)
		}
		if x.Count() != 0 || x.Entries() != 0 || x.Replicas() != 0 {
			t.Fatalf("%s: after drain count=%d entries=%d replicas=%d",
				x.Name(), x.Count(), x.Entries(), x.Replicas())
		}
	}
}

// TestOptimizeEquivalence loads the same workload three ways — purely
// incremental, bulk loaded, and incremental + explicit Optimize — and
// checks the three answer every query identically (the flat layout is a
// storage change, never a semantic one).
func TestOptimizeEquivalence(t *testing.T) {
	opts := Options{Bits: 16, Levels: 8}
	dyn, _ := New(opts)
	bulk, _ := New(opts)
	opt, _ := New(opts)
	rng := rand.New(rand.NewSource(7))
	max := dyn.DomainMax()
	var ivs []interval.Interval
	var ids []int64
	for i := int64(0); i < 4000; i++ {
		iv := adversarialInterval(rng, max)
		ivs = append(ivs, iv)
		ids = append(ids, i)
		if err := dyn.Insert(iv, i); err != nil {
			t.Fatal(err)
		}
		if err := opt.Insert(iv, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := bulk.BulkLoad(ivs, ids); err != nil {
		t.Fatal(err)
	}
	opt.Optimize()
	if dyn.Optimized() || !bulk.Optimized() || !opt.Optimized() {
		t.Fatalf("optimized flags: dyn=%v bulk=%v opt=%v",
			dyn.Optimized(), bulk.Optimized(), opt.Optimized())
	}
	if bulk.FlatEntries() != bulk.Entries() || bulk.OverlayEntries() != 0 {
		t.Fatalf("bulk: flat=%d overlay=%d entries=%d",
			bulk.FlatEntries(), bulk.OverlayEntries(), bulk.Entries())
	}
	if dyn.Entries() != bulk.Entries() || dyn.Entries() != opt.Entries() {
		t.Fatalf("entries diverge: %d / %d / %d", dyn.Entries(), bulk.Entries(), opt.Entries())
	}
	for qi := 0; qi < 400; qi++ {
		q := adversarialQuery(rng, max)
		a, err := dyn.Intersecting(q)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := bulk.Intersecting(q)
		c, _ := opt.Intersecting(q)
		if !sortedEqual(a, b) || !sortedEqual(a, c) {
			t.Fatalf("query %v: dyn %d ids, bulk %d ids, opt %d ids", q, len(a), len(b), len(c))
		}
	}
	// Inserts after Optimize land in the overlay and are immediately
	// visible.
	if err := opt.Insert(interval.New(5, 9), 99999); err != nil {
		t.Fatal(err)
	}
	if opt.OverlayEntries() == 0 {
		t.Fatal("post-Optimize insert did not go to the overlay")
	}
	ids2, _ := opt.Intersecting(interval.New(6, 7))
	found := false
	for _, id := range ids2 {
		if id == 99999 {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-Optimize insert invisible: %v", ids2)
	}
}

// TestShardedCrossCheck drives the concurrent wrapper through the same
// adversarial workload as the core index, single-threaded, to pin the
// sharding itself (routing, fan-out, exactly-once union) against brute
// force.
func TestShardedCrossCheck(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		s, err := NewSharded(Options{Bits: 14, Levels: 7, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if s.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", s.Shards(), shards)
		}
		rng := rand.New(rand.NewSource(int64(40 + shards)))
		ref := &brute{}
		max := s.DomainMax()
		for i := int64(0); i < 2000; i++ {
			iv := adversarialInterval(rng, max)
			if err := s.Insert(iv, i); err != nil {
				t.Fatal(err)
			}
			ref.insert(iv, i)
		}
		s.Optimize()
		for i := 0; i < 500 && len(ref.ivs) > 0; i++ {
			j := rng.Intn(len(ref.ivs))
			iv, id := ref.ivs[j], ref.ids[j]
			if ok, err := s.Delete(iv, id); err != nil || !ok {
				t.Fatalf("delete (%v, %d) = %v, %v", iv, id, ok, err)
			}
			ref.delete(iv, id)
		}
		if got, want := s.Count(), int64(len(ref.ivs)); got != want {
			t.Fatalf("Count = %d, want %d", got, want)
		}
		if s.Entries()-s.Replicas() != s.Count() {
			t.Fatalf("entries=%d replicas=%d count=%d", s.Entries(), s.Replicas(), s.Count())
		}
		for qi := 0; qi < 200; qi++ {
			q := adversarialQuery(rng, max)
			want := ref.intersecting(q)
			got, err := s.Intersecting(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sortedEqual(got, want) {
				t.Fatalf("shards=%d query %v: got %d ids, want %d ids", shards, q, len(got), len(want))
			}
		}
		// Early termination across shard boundaries.
		seen := 0
		if err := s.IntersectingFunc(interval.New(0, max), func(int64) bool { seen++; return seen < 3 }); err != nil {
			t.Fatal(err)
		}
		if seen != 3 && s.Count() >= 3 {
			t.Fatalf("early termination saw %d", seen)
		}
		s.Clear()
		if s.Count() != 0 || s.Entries() != 0 {
			t.Fatal("Clear left residue")
		}
	}
	if _, err := NewSharded(Options{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := New(Options{Shards: 4}); err == nil {
		t.Fatal("bare New accepted Shards > 1")
	}
}

func TestDuplicateRegistrations(t *testing.T) {
	x, _ := New(Options{Bits: 12, Levels: 6})
	iv := interval.New(100, 900)
	for i := 0; i < 3; i++ {
		if err := x.Insert(iv, 7); err != nil {
			t.Fatal(err)
		}
	}
	ids, _ := x.Intersecting(interval.New(500, 500))
	if len(ids) != 3 {
		t.Fatalf("got %v, want three copies", ids)
	}
	if ok, _ := x.Delete(iv, 7); !ok {
		t.Fatal("delete failed")
	}
	ids, _ = x.Intersecting(interval.New(500, 500))
	if len(ids) != 2 {
		t.Fatalf("after one delete got %v", ids)
	}
}

func TestInfiniteAndOutOfDomain(t *testing.T) {
	x, _ := New(Options{Bits: 12, Levels: 12}) // comparison-free geometry
	max := x.DomainMax()
	if err := x.Insert(interval.New(10, interval.Infinity), 1); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(interval.New(0, 5), 2); err != nil {
		t.Fatal(err)
	}
	// A query clamped from beyond the domain must still see only the
	// infinite interval (id 2 ends at 5 < query start).
	ids, err := x.Intersecting(interval.New(max+100, max+200))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("beyond-domain query got %v, want [1]", ids)
	}
	// A query entirely below the domain matches nothing.
	ids, err = x.Intersecting(interval.New(-20, -10))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("below-domain query got %v, want none", ids)
	}
	// Now-relative intervals are rejected: HINT has no §4.6 evaluation,
	// and treating [lo, now] as [lo, ∞) would silently diverge from the
	// RI-tree.
	if err := x.Insert(interval.New(10, interval.NowMarker), 8); err == nil {
		t.Fatal("now-relative interval accepted")
	}
	// Starts outside the domain are rejected.
	if err := x.Insert(interval.New(-1, 5), 3); err == nil {
		t.Fatal("negative start accepted")
	}
	if err := x.Insert(interval.New(max+1, max+2), 4); err == nil {
		t.Fatal("start beyond domain accepted")
	}
	if err := x.Insert(interval.New(9, 3), 5); err == nil {
		t.Fatal("inverted interval accepted")
	}
	if _, err := x.Intersecting(interval.New(9, 3)); err == nil {
		t.Fatal("inverted query accepted")
	}
}

func TestOutOfDomainQueryBoundaries(t *testing.T) {
	// Regression: the partition-alignment shortcuts must not justify
	// skipped comparisons from a clamped query bound. At comparison-free
	// geometry, a query entirely above the domain used to report the
	// interval touching DomainMax.
	for _, opts := range []Options{{Bits: 8, Levels: 8}, {Bits: 8, Levels: 3}} {
		x, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		max := x.DomainMax()
		x.Insert(interval.New(max, max), 1)
		x.Insert(interval.New(0, 0), 2)
		x.Insert(interval.New(0, max), 3)
		if ids, _ := x.Intersecting(interval.New(max+1, max+5)); len(ids) != 0 {
			t.Fatalf("%s: above-domain query got %v", x.Name(), ids)
		}
		if ids, _ := x.Intersecting(interval.New(-5, -1)); len(ids) != 0 {
			t.Fatalf("%s: below-domain query got %v", x.Name(), ids)
		}
		if ids, _ := x.Stab(max + 1); len(ids) != 0 {
			t.Fatalf("%s: stab past domain got %v", x.Name(), ids)
		}
		// Straddling queries still match the boundary intervals.
		ids, _ := x.Intersecting(interval.New(max-1, max+5))
		if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
			t.Fatalf("%s: straddling query got %v", x.Name(), ids)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{Bits: 8, Levels: 9}); err == nil {
		t.Fatal("Levels > Bits accepted")
	}
	if _, err := New(Options{Bits: 63}); err == nil {
		t.Fatal("Bits > 62 accepted")
	}
	if _, err := New(Options{Bits: 30, Levels: 23}); err == nil {
		t.Fatal("Levels > maxLevels accepted")
	}
	x, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if x.Bits() != DefaultBits || x.Levels() != DefaultLevels {
		t.Fatalf("defaults: bits=%d levels=%d", x.Bits(), x.Levels())
	}
	if _, err := New(Options{Bits: 12, Levels: 12}); err != nil {
		t.Fatalf("Levels == Bits rejected: %v", err)
	}
}

func TestEarlyTermination(t *testing.T) {
	x, _ := New(Options{Bits: 12, Levels: 6})
	for i := int64(0); i < 50; i++ {
		x.Insert(interval.New(i*10, i*10+500), i)
	}
	seen := 0
	err := x.IntersectingFunc(interval.New(0, 4095), func(int64) bool {
		seen++
		return seen < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatalf("early termination saw %d results, want 5", seen)
	}
}

func TestEntriesAccounting(t *testing.T) {
	x, _ := New(Options{Bits: 12, Levels: 6})
	// A domain-spanning interval replicates across levels; a point does not.
	x.Insert(interval.New(0, x.DomainMax()), 1)
	x.Insert(interval.Point(17), 2)
	if x.Entries() < 2 || x.Replicas() > x.Entries() {
		t.Fatalf("entries=%d replicas=%d", x.Entries(), x.Replicas())
	}
	// Each interval has exactly one original copy.
	if got := x.Entries() - x.Replicas(); got != x.Count() {
		t.Fatalf("originals = %d, want Count = %d", got, x.Count())
	}
	x.Clear()
	if x.Count() != 0 || x.Entries() != 0 || x.Replicas() != 0 {
		t.Fatal("Clear left residue")
	}
	ids, _ := x.Intersecting(interval.New(0, x.DomainMax()))
	if len(ids) != 0 {
		t.Fatalf("after Clear got %v", ids)
	}
}

func TestLevelsEqualBitsMatchesDefault(t *testing.T) {
	// The same workload through the Levels == Bits geometry and a coarse
	// geometry must agree query-for-query.
	a, _ := New(Options{Bits: 13, Levels: 13})
	b, _ := New(Options{Bits: 13, Levels: 5})
	rng := rand.New(rand.NewSource(99))
	max := a.DomainMax()
	for i := int64(0); i < 3000; i++ {
		iv := adversarialInterval(rng, max)
		if err := a.Insert(iv, i); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert(iv, i); err != nil {
			t.Fatal(err)
		}
	}
	for qi := 0; qi < 300; qi++ {
		q := adversarialQuery(rng, max)
		ra, _ := a.Intersecting(q)
		rb, _ := b.Intersecting(q)
		if !sortedEqual(ra, rb) {
			t.Fatalf("query %v: fine %d ids vs coarse %d ids", q, len(ra), len(rb))
		}
	}
}

func TestShardedParallelQueriesMatchSingleShard(t *testing.T) {
	// The parallel per-shard fan-out with ascending merge must answer
	// byte-identically to a single-shard index over the same data.
	rng := rand.New(rand.NewSource(31337))
	one, err := NewSharded(Options{})
	if err != nil {
		t.Fatal(err)
	}
	many, err := NewSharded(Options{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5000; i++ {
		lo := rng.Int63n(1 << 18)
		iv := interval.New(lo, lo+rng.Int63n(4096))
		if err := one.Insert(iv, i); err != nil {
			t.Fatal(err)
		}
		if err := many.Insert(iv, i); err != nil {
			t.Fatal(err)
		}
	}
	for qi := 0; qi < 200; qi++ {
		lo := rng.Int63n(1 << 18)
		q := interval.New(lo, lo+rng.Int63n(8192))
		if qi%5 == 0 {
			q = interval.Point(lo)
		}
		a, err := one.Intersecting(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := many.Intersecting(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, b) {
			t.Fatalf("query %v: single %d ids, sharded %d ids", q, len(a), len(b))
		}
		if !slices.IsSorted(b) {
			t.Fatalf("query %v: sharded result not ascending", q)
		}
		na, _ := one.CountIntersecting(q)
		nb, _ := many.CountIntersecting(q)
		if na != nb {
			t.Fatalf("query %v: counts %d vs %d", q, na, nb)
		}
	}
}

func TestMergeAscending(t *testing.T) {
	cases := [][][]int64{
		{},
		{{}},
		{{1, 3, 5}},
		{{1, 3}, {2, 4}, {}},
		{{5}, {1}, {3}},
		{{1, 1, 2}, {1, 2, 2}},
	}
	for _, lists := range cases {
		var want []int64
		cp := make([][]int64, len(lists))
		for i, l := range lists {
			want = append(want, l...)
			cp[i] = slices.Clone(l)
		}
		slices.Sort(want)
		got := mergeAscending(cp)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("mergeAscending(%v) = %v, want %v", lists, got, want)
		}
	}
}
