package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// metricDef is one metric as BENCHMARK.json declares it. The file is the
// catalogue: the program computes values by name and reports exactly the
// names the file lists, with the file's units.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bs benchSpec
	if err := json.Unmarshal(raw, &bs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bs, nil
}

// value is a reported metric; a nil Value says the metric's layer is not
// on this workload's path.
type value struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name     string           `json:"name"`
	PageSize int              `json:"page_size"`
	Cache    int              `json:"cache_pages"`
	EndToEnd map[string]value `json:"end_to_end,omitempty"`
	// AsMeasured holds the end-to-end metrics before they were put at
	// reference speed, and the slowdown that was divided out.
	AsMeasured map[string]float64 `json:"as_measured,omitempty"`
	PerLayer   map[string]value   `json:"per_layer,omitempty"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	FailRatio  float64            `json:"fail_ratio"`
	Notes      []string           `json:"notes,omitempty"`
	Errors     []string           `json:"errors,omitempty"`
}

// environment is recorded in every result file, so that two files can be
// told apart by more than their numbers. It names no host.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Instances  int     `json:"instances"`
	Reopens    int     `json:"reopens_per_instance"`
	Scale      float64 `json:"scale"`
	Filesystem string  `json:"filesystem"`
}

type resultFile struct {
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

func describeEnv(cfg config) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: cfg.seed, Seconds: cfg.dur.Seconds(), Instances: instances, Reopens: reopens, Scale: cfg.scale, Filesystem: filesystemOf(cfg.dir),
	}
}

// filesystemOf names the filesystem type under dir, which decides what an
// fsync costs.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// collect picks the declared metrics out of the computed ones. A declared
// end-to-end metric the run did not compute is a bug in the benchmark; a
// per-layer one is a layer this workload does not use.
func collect(defs []metricDef, computed map[string]float64, required bool) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := computed[d.Name]
		switch {
		case ok && (math.IsNaN(v) || math.IsInf(v, 0)):
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		case ok:
			out[d.Name] = value{Value: &v, Unit: d.Unit}
		case required:
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		default:
			out[d.Name] = value{Unit: d.Unit}
		}
	}
	return out, nil
}

// contractLine is the one-line result a caller parses: on it a metric
// whose layer is not on the workload's path reads 0.
func contractLine(w io.Writer, r workloadResult) error {
	type num struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]num)
	for _, group := range []map[string]value{r.EndToEnd, r.PerLayer} {
		for name, v := range group {
			n := num{Unit: v.Unit}
			if v.Value != nil {
				n.Value = *v.Value
			}
			metrics[name] = n
		}
	}
	line, err := json.Marshal(map[string]interface{}{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err == nil {
		_, err = fmt.Fprintf(w, "%s\n", line)
	}
	return err
}

// compareFiles prints, for every end-to-end metric of every workload in
// both files, the two values, the relative change and the metric's bound,
// and says whether the second file is worse by more than the bound.
func compareFiles(w io.Writer, bs *benchSpec, pathA, pathB string) (worse int, err error) {
	read := func(path string) (map[string]workloadResult, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		byName := make(map[string]workloadResult)
		for _, r := range rf.Workloads {
			byName[r.Name] = r
		}
		return byName, nil
	}
	a, err := read(pathA)
	if err != nil {
		return 0, err
	}
	b, err := read(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "%-18s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, wl := range bs.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		for _, d := range bs.EndToEnd {
			va, vb := ra.EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value
			if va == nil || vb == nil {
				continue
			}
			change := (*vb - *va) / *va
			verdict := "ok"
			switch harm := change * direction(d); {
			case harm > d.Bound:
				verdict = "worse"
				worse++
			case harm < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-18s %-26s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", wl.Name, d.Name, *va, *vb, 100*change, 100*d.Bound, verdict)
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			fmt.Fprintf(w, "%-18s %-26s %14d %14d %24s\n", wl.Name, "failed", ra.Failed, rb.Failed, "worse")
			worse++
		}
	}
	return worse, nil
}

// direction is +1 when a larger value is worse.
func direction(d metricDef) float64 {
	if d.Better == "higher" {
		return -1
	}
	return 1
}
