package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// harness against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

// TestSmoke runs every workload for two seconds, end to end and traced,
// against a freshly built auroranode: the harness still builds, every
// output still verifies, and every metric BENCHMARK.json names is still
// reported. Run it with `go test -C benchmark ./...`.
func TestSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("the go tool is not on PATH; the benchmark builds auroranode with it")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads()))
	}

	cfg, done, err := prepare(root, config{seed: 1, seconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer done()

	check := func(t *testing.T, res *result, want []struct{ Name string }, nonZero bool) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("correct=%v failed=%d attempted=%d; want all outputs verified", res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("metric %s is named in BENCHMARK.json but was not reported", m.Name)
			} else if nonZero && got.Value <= 0 {
				t.Errorf("metric %s = %v; an end-to-end metric is never 0", m.Name, got.Value)
			}
		}
	}
	for _, named := range spec.Workloads {
		w := findWorkload(named.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", named.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, spec.EndToEnd, true)
			res, err = runTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, spec.PerLayer, false)
			if got := res.Metrics["span.sum_error"].Value; got != 0 {
				t.Errorf("span.sum_error = %v; queue+proc+net must equal the span's total", got)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+w.name+".json")); err != nil {
				t.Errorf("traced run left no trace file: %v", err)
			}
		})
	}
}
