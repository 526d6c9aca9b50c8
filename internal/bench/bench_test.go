package bench

import (
	"strconv"
	"strings"
	"testing"

	"ritree/internal/interval"
)

// The harness runs every experiment at a tiny scale and asserts the
// paper's qualitative shapes — a regression net for the figure generators
// themselves (full scale runs via cmd/ribench).

func tinyConfig() Config {
	return Config{Scale: 0.02}.WithDefaults() // floors at n = 1000-2000
}

func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d) in %d rows", tb.ID, row, col, len(tb.Rows))
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(tb.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tb.ID, row, col, tb.Rows[row][col])
	}
	return v
}

func TestEveryExperimentRuns(t *testing.T) {
	c := tinyConfig()
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			tb, err := Run(id, c)
			if err != nil {
				t.Fatal(err)
			}
			if tb.ID != id || len(tb.Rows) == 0 || len(tb.Header) == 0 {
				t.Fatalf("experiment %s produced empty table %+v", id, tb)
			}
			out := tb.String()
			if !strings.Contains(out, tb.Title) {
				t.Fatal("table text lacks the title")
			}
			if csv := tb.CSV(); strings.Count(csv, "\n") != len(tb.Rows)+1 {
				t.Fatalf("CSV has wrong row count:\n%s", csv)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", tinyConfig()); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestFig12Shape(t *testing.T) {
	tb, err := Fig12(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Columns: n, T-index, IST, RI-tree, redundancy.
	for r := range tb.Rows {
		n := cell(t, tb, r, 0)
		ti := cell(t, tb, r, 1)
		ist := cell(t, tb, r, 2)
		ri := cell(t, tb, r, 3)
		if ist != n {
			t.Fatalf("row %d: IST entries %v != n %v", r, ist, n)
		}
		if ri != 2*n {
			t.Fatalf("row %d: RI entries %v != 2n", r, ri)
		}
		if ti < 2*n {
			t.Fatalf("row %d: T-index entries %v not redundant (n=%v)", r, ti, n)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tb, err := Fig13(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// At every selectivity the RI-tree must need at most as much physical
	// I/O as the competitors (ties possible at tiny scale where caches
	// hold everything; compare with slack on the raw columns IO RI / IO
	// T-idx / IO IST).
	for r := range tb.Rows {
		ri := cell(t, tb, r, 1)
		ti := cell(t, tb, r, 2)
		ist := cell(t, tb, r, 3)
		if ri > ti+1 || ri > ist+1 {
			t.Fatalf("row %d: RI I/O %v exceeds T-index %v or IST %v", r, ri, ti, ist)
		}
	}
}

func TestFig15Flatness(t *testing.T) {
	tb, err := Fig15(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// minstep must grow with the minimum stored length (§3.4 lemma).
	if len(tb.Rows) < 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	first := cell(t, tb, 0, 1)
	last := cell(t, tb, 3, 1)
	if last <= first {
		t.Fatalf("minstep did not grow: %v -> %v", first, last)
	}
}

func TestFig16RedundancyGrows(t *testing.T) {
	tb, err := Fig16(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tb, 0, 7)             // redundancy at mean duration 0
	last := cell(t, tb, len(tb.Rows)-1, 7) // at mean duration 2000
	if first != 1 {
		t.Fatalf("point-data redundancy = %v, want 1", first)
	}
	if last < 3 {
		t.Fatalf("long-duration redundancy = %v, want >> 1", last)
	}
}

func TestHintComparisonShape(t *testing.T) {
	// The speedup cells are wall-clock ratios; on a loaded machine (CI
	// runners included) a scheduling stall can dent one measurement, so
	// allow several runs before declaring the shape wrong (locally the
	// margin is 4-20x above the bar).
	var tb *Table
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		tb, err = HintComparison(tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for r := range tb.Rows {
			if cell(t, tb, r, 7) < 5 {
				ok = false
			}
		}
		if ok {
			break
		}
	}
	// The regime labels ride along for the recorded benchmark entries:
	// RI-tree disk-relational, both HINT variants main-memory.
	if len(tb.Methods) != 3 ||
		tb.Methods[0].Regime != RegimeDisk ||
		tb.Methods[1].Regime != RegimeMemory || tb.Methods[2].Regime != RegimeMemory {
		t.Fatalf("methods = %+v", tb.Methods)
	}
	if !strings.Contains(tb.JSON(), `"regime": "main-memory"`) {
		t.Fatalf("JSON lacks regime label:\n%s", tb.JSON())
	}
	// Columns: sel%, ms RI, ms HINT-base, ms HINT, q/s RI, q/s HINT,
	// IO HINT, x vs RI, x vs base. The acceptance bar: optimized HINT
	// intersection throughput at least 5x the RI-tree's at every
	// selectivity (at any scale the measured gap is far larger). The
	// baseline ratio is wall-clock noise at tiny scale, so assert only
	// that it was measured.
	for r := range tb.Rows {
		speedup := cell(t, tb, r, 7)
		if speedup < 5 {
			t.Fatalf("row %d: HINT speedup %v < 5x over RI-tree", r, speedup)
		}
		if io := cell(t, tb, r, 6); io != 0 {
			t.Fatalf("row %d: HINT physical I/O = %v, want 0", r, io)
		}
		if base := cell(t, tb, r, 8); base <= 0 {
			t.Fatalf("row %d: baseline ratio = %v", r, base)
		}
	}
}

func TestHintAblationShape(t *testing.T) {
	tb, err := HintAblation(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Columns: variant, ms 0.5%, q/s 0.5%, ms 2.0%, q/s 2.0%, entries,
	// flat entries. One row per optimization level; speed ordering
	// between adjacent levels is wall-clock noise at tiny scale, so
	// assert the structural invariants instead.
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 variants", len(tb.Rows))
	}
	for r := range tb.Rows {
		// ms/query can legitimately round to 0.000 at tiny scale (the
		// flat layout answers in microseconds); only a negative cell is
		// malformed.
		if ms := cell(t, tb, r, 1); ms < 0 {
			t.Fatalf("row %d: ms = %v", r, ms)
		}
		entries := cell(t, tb, r, 5)
		flat := cell(t, tb, r, 6)
		if entries <= 0 {
			t.Fatalf("row %d: entries = %v", r, entries)
		}
		optimized := r == 1 // the flat row
		if optimized && flat != entries {
			t.Fatalf("row %d: flat entries %v != entries %v after Optimize", r, flat, entries)
		}
		if !optimized && flat != 0 {
			t.Fatalf("row %d: flat entries %v in dynamic variant", r, flat)
		}
	}
	// Both forms store the same copies.
	if cell(t, tb, 0, 5) != cell(t, tb, 1, 5) {
		t.Fatalf("overlay entries %v != flat entries %v", cell(t, tb, 0, 5), cell(t, tb, 1, 5))
	}
	for _, m := range tb.Methods {
		if m.Regime != RegimeMemory {
			t.Fatalf("method %+v not main-memory", m)
		}
	}
}

func TestRegimeOf(t *testing.T) {
	c := tinyConfig()
	rit, err := NewRITree(c)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := NewHINT(c)
	if err != nil {
		t.Fatal(err)
	}
	if RegimeOf(rit) != RegimeDisk {
		t.Fatalf("RI-tree regime = %q", RegimeOf(rit))
	}
	if RegimeOf(hm) != RegimeMemory {
		t.Fatalf("HINT regime = %q", RegimeOf(hm))
	}
}

func TestMeasureAccounting(t *testing.T) {
	c := tinyConfig()
	c.Latency = 0
	am, err := NewRITree(c)
	if err != nil {
		t.Fatal(err)
	}
	ivs := []interval.Interval{
		interval.New(0, 10), interval.New(5, 20), interval.New(100, 200),
	}
	if err := am.Load(ivs, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	queries := []interval.Interval{interval.Point(6), interval.Point(150)}
	m, err := Measure(c, am, 3, queries)
	if err != nil {
		t.Fatal(err)
	}
	if m.Queries != 2 {
		t.Fatalf("Queries = %d", m.Queries)
	}
	// Stab 6 hits {1,2}; stab 150 hits {3}: 1.5 results/query.
	if m.AvgResults != 1.5 {
		t.Fatalf("AvgResults = %v, want 1.5", m.AvgResults)
	}
	if m.Selectivity != 0.5 {
		t.Fatalf("Selectivity = %v, want 0.5", m.Selectivity)
	}
	if m.AvgLogReads <= 0 {
		t.Fatalf("AvgLogReads = %v", m.AvgLogReads)
	}
}
