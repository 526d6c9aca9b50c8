// Command benchmark is the repository's benchmark: a single-process,
// closed-loop load generator over five workloads that reports end-to-end
// metrics, checks every answer against an oracle, and in a second, traced
// pass replays the same query pool through a ladder of the layers' public
// entry points. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md says what they mean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ritree/internal/pagestore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams passed in: results go to stdout as one
// JSON line per workload, the readable report to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed of the generated data and queries")
		seconds  = fs.Float64("seconds", 10, "length of the measured phase")
		trace    = fs.Int("trace", 2, "0: end-to-end metrics, 1: per-layer metrics from the traced pass, 2: both")
		scale    = fs.Float64("scale", 1, "multiplies the data sizes")
		dir      = fs.String("dir", ".bench_build", "directory for the database files")
		specPath = fs.String("spec", "BENCHMARK.json", "the benchmark's declaration")
		out      = fs.String("out", "", "write the result file here")
		traceOut = fs.String("trace-out", "", "write the spans of the traced pass here, one JSON object per line")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	bs, err := loadSpec(*specPath)
	if err != nil {
		return fatal(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(stdout, bs, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fatal(err)
		}
		if worse > 0 {
			return 1
		}
		return 0
	}

	var todo []spec
	for _, w := range bs.Workloads {
		if s, ok := specByName(w.Name); ok && (*name == "all" || *name == w.Name) {
			todo = append(todo, s)
		}
	}
	if len(todo) == 0 {
		return fatal(fmt.Errorf("no workload %q in %s", *name, *specPath))
	}
	if *traceOut != "" { // every workload appends its spans
		if err := os.WriteFile(*traceOut, nil, 0o644); err != nil {
			return fatal(err)
		}
	}
	work := filepath.Join(*dir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(work)
	cfg := config{seed: *seed, scale: *scale, dur: time.Duration(*seconds * float64(time.Second)), dir: work, traceOut: *traceOut}
	file := resultFile{Env: describeEnv(cfg)}

	failed := false
	for _, s := range todo {
		r := workloadResult{Name: s.name, PageSize: pagestore.DefaultPageSize, Cache: s.cachePages()}
		passes := []struct {
			on   bool
			run  func(spec, config) (*outcome, error)
			defs []metricDef
			into *map[string]value
		}{
			{*trace != 1, runUntraced, bs.EndToEnd, &r.EndToEnd},
			{*trace != 0, runTraced, bs.PerLayer, &r.PerLayer},
		}
		for i, p := range passes {
			if !p.on {
				continue
			}
			o, err := p.run(s, cfg)
			if err != nil {
				return fatal(err)
			}
			if *p.into, err = collect(p.defs, o.metrics, i == 0); err != nil {
				return fatal(fmt.Errorf("%s: %w", s.name, err))
			}
			if o.measured != nil {
				r.AsMeasured = o.measured
			}
			r.Attempted += o.attempted
			r.Failed += o.failed
			r.Notes = append(r.Notes, o.notes...)
			r.Errors = append(r.Errors, o.errs...)
		}
		r.FailRatio = float64(r.Failed) / float64(r.Attempted)
		report(stderr, bs, r)
		if err := contractLine(stdout, r); err != nil {
			return fatal(err)
		}
		failed = failed || r.Failed > 0
		file.Workloads = append(file.Workloads, r)
	}
	if *out != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			return fatal(err)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// report prints one workload's metrics by name with their units.
func report(w io.Writer, bs *benchSpec, r workloadResult) {
	fmt.Fprintf(w, "\n== %s  (%d-byte pages, %d-page cache)\n", r.Name, r.PageSize, r.Cache)
	for _, group := range []struct {
		title string
		defs  []metricDef
		vals  map[string]value
	}{{"end to end", bs.EndToEnd, r.EndToEnd}, {"per layer", bs.PerLayer, r.PerLayer}} {
		if group.vals == nil {
			continue
		}
		fmt.Fprintf(w, "-- %s\n", group.title)
		for _, d := range group.defs {
			if v := group.vals[d.Name]; v.Value != nil {
				fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.Name, *v.Value, d.Unit)
			}
		}
	}
	fmt.Fprintf(w, "  %-40s %16.6f (%d failed of %d attempted)\n", "fail_ratio", r.FailRatio, r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  #", n)
	}
	sort.Strings(r.Errors)
	for i, e := range r.Errors {
		if i == 8 {
			break
		}
		fmt.Fprintln(w, "  !", e)
	}
}
