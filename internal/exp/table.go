// Package exp implements the experiment harness: one function per
// experiment in EXPERIMENTS.md (E01..E16), each regenerating the
// corresponding figure of the paper as a printed table. The functions are
// shared by the root bench suite (bench_test.go) and cmd/benchrunner.
package exp

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// Table is one experiment's result: a title, column headers, and rows.
// The struct marshals directly to JSON — benchrunner's BENCH_<id>.json
// artifacts are this typed value, never a re-parse of the printed table.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`

	// Metrics carries typed registry snapshots keyed by configuration
	// label, for experiments that run a full engine and want its raw
	// counters and latency histograms in the machine-readable artifact.
	Metrics map[string]metrics.RegistrySnapshot `json:"metrics,omitempty"`
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AttachMetrics stores a registry snapshot under the given configuration
// label for the JSON artifact; the printed table is unaffected.
func (t *Table) AttachMetrics(label string, s metrics.RegistrySnapshot) {
	if t.Metrics == nil {
		t.Metrics = map[string]metrics.RegistrySnapshot{}
	}
	t.Metrics[label] = s
}

// Note appends a free-text annotation below the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
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
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment couples an id with its runner; Registry lists them all.
type Experiment struct {
	ID   string
	Name string
	Run  func(scale float64) *Table
}

// Registry returns every experiment in order. scale < 1 shrinks the
// workloads (used by the bench suite to keep iterations fast); 1.0 is the
// EXPERIMENTS.md configuration.
func Registry() []Experiment {
	return []Experiment{
		{"E01", "operator semantics and throughput", E01Operators},
		{"E02", "scheduler disciplines", E02Scheduler},
		{"E03", "load shedding policies", E03Shedding},
		{"E04", "box sliding and link bandwidth", E04Sliding},
		{"E05", "filter split scaling", E05FilterSplit},
		{"E06", "tumble split transparency", E06TumbleSplit},
		{"E07", "decentralized load sharing", E07LoadSharing},
		{"E08", "k-safety under crashes", E08KSafety},
		{"E09", "recovery spectrum", E09Spectrum},
		{"E10", "QoS inference", E10QoSInference},
		{"E11", "transport multiplexing", E11Multiplexing},
		{"E12", "DHT catalog", E12DHT},
		{"E13", "split predicate policies", E13Predicates},
		{"E14", "medusa economy", E14Economy},
		{"E15", "remote definition", E15RemoteDefinition},
		{"E16", "chaos fault schedules", E16Chaos},
		{"E19", "observability plane overhead", E19Observability},
		{"E20", "latency-SLO plane: sketches, forecast, attribution", E20LatencySLO},
		{"E21", "train scheduling gain: train cap 1 vs default, one train body", E21HotPath},
		{"E22", "durable restart recovery from segment logs", E22Durability},
		{"A01", "ablation: detection timeout", A01Detection},
		{"A02", "ablation: flow-message period", A02FlowPeriod},
	}
}

// scaled returns max(1, round(n*scale)).
func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		return 1
	}
	return v
}
