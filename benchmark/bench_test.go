package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs all five workloads, both passes, at a fiftieth of the
// size for a fifth of a second each, and checks the shape of what comes
// out: every declared metric reported once under a well-formed name, no
// failed operation, the call ladder ordered, the join run as a merge join.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	spans := filepath.Join(dir, "spans.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-workload", "all", "-scale", "0.02", "-seconds", "0.2", "-spec", "../BENCHMARK.json",
		"-dir", dir, "-out", out, "-trace-out", spans,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	bs, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}

	// One result line per workload, holding exactly the declared metrics.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(bs.Workloads) {
		t.Fatalf("%d result lines for %d workloads", len(lines), len(bs.Workloads))
	}
	declared := len(bs.EndToEnd) + len(bs.PerLayer)
	for _, line := range lines {
		var got struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("result line: %v\n%s", err, line)
		}
		if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
		}
		if len(got.Metrics) != declared {
			t.Errorf("%d metrics on the result line, %d declared", len(got.Metrics), declared)
		}
		for name, v := range got.Metrics {
			if v.Value == nil || v.Unit == "" {
				t.Errorf("metric %s on the result line has no number or no unit", name)
			}
		}
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var file resultFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.Env.NProc < 1 || file.Env.GoVersion == "" || file.Env.Filesystem == "" {
		t.Errorf("env block incomplete: %+v", file.Env)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	seen := make(map[string]bool) // per-layer metrics some workload measured
	for _, r := range file.Workloads {
		if r.Failed != 0 || r.FailRatio != 0 {
			t.Errorf("%s: %d failed, fail_ratio %v: %v", r.Name, r.Failed, r.FailRatio, r.Errors)
		}
		for _, d := range bs.EndToEnd {
			if v, ok := r.EndToEnd[d.Name]; !ok || v.Value == nil || *v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive", r.Name, d.Name)
			}
		}
		for _, d := range bs.PerLayer {
			v, ok := r.PerLayer[d.Name]
			if !ok {
				t.Errorf("%s: per-layer metric %s not reported", r.Name, d.Name)
			}
			if !wellFormed.MatchString(d.Name) {
				t.Errorf("metric name %q is malformed", d.Name)
			}
			if v.Value != nil {
				seen[d.Name] = true
			}
		}
		if len(r.EndToEnd) != len(bs.EndToEnd) || len(r.PerLayer) != len(bs.PerLayer) {
			t.Errorf("%s: reports metrics the declaration does not list", r.Name)
		}
		// Each rung does all the work of the rung below: cumulative time
		// may not fall on the way up (a tenth of slack for tiny samples).
		below := 0.0
		for _, layer := range []string{"hint", "ritree", "collection", "sqldb", "driver", "server"} {
			v := r.PerLayer[layer+".call_p50_us"].Value
			if v == nil {
				continue
			}
			if *v < 0.9*below {
				t.Errorf("%s: rung %s takes %.1f µs, the rung below %.1f µs", r.Name, layer, *v, below)
			}
			below = *v
		}
		if r.Name == "embed-join" && r.PerLayer["sqldb.join_pairs_per_s"].Value == nil {
			t.Errorf("embed-join did not report the merge join's counters")
		}
	}
	for _, d := range bs.PerLayer {
		if !seen[d.Name] {
			t.Errorf("per-layer metric %s was measured on no workload", d.Name)
		}
	}
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("span dump missing or empty: %v", err)
	}

	// A result file agrees with itself.
	var table bytes.Buffer
	if worse, err := compareFiles(&table, bs, out, out); err != nil || worse != 0 {
		t.Errorf("comparing the result file with itself: %d worse, %v\n%s", worse, err, table.String())
	}
}
