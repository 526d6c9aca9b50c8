package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"ritree/internal/interval"
)

// Metrics aggregates the cost of a query batch on one access method.
type Metrics struct {
	Queries      int
	AvgPhysReads float64 // physical page reads per query — Figure 13/14's "disk accesses"
	AvgLogReads  float64
	AvgTimeMS    float64 // wall-clock per query — the "response time" plots
	AvgResults   float64
	Selectivity  float64 // measured fraction of the database per query
}

// Measure runs the query batch against am: a short warm-up, then the
// measured pass with I/O counters reset. The buffer cache keeps its steady
// state between queries, like a database server's block cache during the
// paper's runs.
//
// Response time is CPU wall-clock plus AvgPhysReads x Config.Latency: the
// configured per-block access time is charged arithmetically rather than
// slept, so a paper-scale run stays fast while time curves still track
// physical I/O the way the testbed's U-SCSI disk did.
func Measure(c Config, am AM, n int64, queries []interval.Interval) (Metrics, error) {
	warm := len(queries) / 10
	if warm > 5 {
		warm = 5
	}
	for _, q := range queries[:warm] {
		if _, err := am.QueryCount(q); err != nil {
			return Metrics{}, err
		}
	}
	am.Store().ResetStats()
	var results int64
	start := time.Now()
	for _, q := range queries {
		r, err := am.QueryCount(q)
		if err != nil {
			return Metrics{}, err
		}
		results += r
	}
	elapsed := time.Since(start)
	st := am.Store().Stats()
	nq := float64(len(queries))
	m := Metrics{
		Queries:      len(queries),
		AvgPhysReads: float64(st.PhysicalReads) / nq,
		AvgLogReads:  float64(st.LogicalReads) / nq,
		AvgTimeMS:    elapsed.Seconds()*1000/nq + float64(st.PhysicalReads)/nq*c.Latency.Seconds()*1000,
		AvgResults:   float64(results) / nq,
	}
	if n > 0 {
		m.Selectivity = m.AvgResults / float64(n)
	}
	return m, nil
}

// MethodInfo labels one access method of an experiment with its storage
// regime, so recorded benchmark entries from different regimes stay
// comparable (disk-relational methods measure physical I/O, main-memory
// methods measure pure CPU time).
type MethodInfo struct {
	Name   string `json:"name"`
	Regime string `json:"regime"`
}

// Table is one experiment's result, printed paper-style.
type Table struct {
	ID      string       `json:"id"`
	Title   string       `json:"title"`
	Notes   []string     `json:"notes,omitempty"`
	Header  []string     `json:"header"`
	Rows    [][]string   `json:"rows"`
	Methods []MethodInfo `json:"methods,omitempty"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// SetMethods records the access methods behind the table with their
// storage regimes.
func (t *Table) SetMethods(ams ...AM) {
	t.Methods = t.Methods[:0]
	for _, am := range ams {
		t.Methods = append(t.Methods, MethodInfo{Name: am.Name(), Regime: RegimeOf(am)})
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// JSON renders the table as an indented JSON document, including the
// access-method regime labels — the machine-readable form cmd/ribench
// emits for recorded benchmark trajectories.
func (t *Table) JSON() string {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Sprintf(`{"id": %q, "error": %q}`, t.ID, err.Error())
	}
	return string(b)
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Header, ","))
	sb.WriteString("\n")
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteString("\n")
	}
	return sb.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d0(v int64) string   { return fmt.Sprintf("%d", v) }
