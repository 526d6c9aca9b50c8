// Command ribench regenerates the tables and figures of the paper's
// experimental evaluation (§6) on the reproduction's own substrate, plus
// the RI-tree-vs-HINT main-memory comparison (experiment id "hint":
// RI-tree against the never-compacted HINT baseline and the optimized
// HINT), the HINT storage-form ablation (experiment id "hintopt": sorted
// subdivisions vs the flat cache-conscious layout) and three RI-tree
// ablations (minstep pruning, the Figure 8 query form, the materialized
// backbone).
//
// ribench measures access methods on their own stores. End-to-end costs
// of the database — SQL cursors, joins, the wire server, concurrent
// writers, reopen — are measured by the benchmark/ module and asserted by
// the named tests in the root, driver and internal/sqldb packages.
//
// Usage:
//
//	ribench -list
//	ribench -exp fig13
//	ribench -exp all -scale 0.1
//	ribench -exp fig10                 # the Figure 9 statement's Figure 10 plan
//	ribench -exp fig14 -latency 200us -csv
//	ribench -exp hint -json
//	ribench -exp hintopt -json
//
// Every experiment prints a paper-style table; the notes under each table
// state the shape the paper reports, so the output is self-checking by
// eye. Absolute numbers differ from the 1998 Oracle/Pentium testbed — the
// shapes are the reproduction target (see the table notes and README
// "Performance").
//
// -json emits each table as a JSON document whose "methods" array labels
// every access method with its storage regime (disk-relational vs
// main-memory), so recorded benchmark entries stay comparable across
// regimes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ritree/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		scale   = flag.Float64("scale", 1.0, "database size multiplier (1.0 = paper scale)")
		latency = flag.Duration("latency", 0, "simulated disk latency per physical read during query phases (e.g. 200us)")
		seed    = flag.Int64("seed", 0, "workload seed (0 = default)")
		csv     = flag.Bool("csv", false, "also print CSV after each table")
		jsonOut = flag.Bool("json", false, "print each table as JSON (with storage-regime labels) instead of text")
		quiet   = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.Experiments() {
			fmt.Println(id)
		}
		return
	}
	cfg := bench.Config{Scale: *scale, Latency: *latency, Seed: *seed}
	if !*quiet {
		cfg.Progress = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.Experiments()
	}
	start := time.Now()
	for _, id := range ids {
		t0 := time.Now()
		table, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ribench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *jsonOut {
			fmt.Println(table.JSON())
		} else {
			fmt.Println(table.String())
		}
		if *csv {
			fmt.Println(table.CSV())
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(t0).Round(time.Millisecond))
		}
	}
	if !*quiet && *exp == "all" {
		fmt.Fprintf(os.Stderr, "[all experiments done in %v]\n", time.Since(start).Round(time.Millisecond))
	}
}
