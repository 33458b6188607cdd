// benchrunner regenerates the experiment tables of EXPERIMENTS.md from
// the command line: every figure of the paper has an experiment (E01..E16
// and the ablations) whose table this tool prints, next to the
// engine-level measurements E19..E22 whose checked-in baselines live in
// bench/BENCH_<id>.json; refresh one with `benchrunner -exp E21 -json
// bench/`.
//
// Usage:
//
//	benchrunner            # run everything at full scale
//	benchrunner -exp E04   # one experiment
//	benchrunner -scale 0.1 # smaller workloads, faster run
//	benchrunner -list      # list experiments
//	benchrunner -json out/ # additionally write BENCH_<id>.json per experiment
//
// With -json, each experiment leaves a machine-readable BENCH_<id>.json
// (the typed table plus any attached metric snapshots and the wall time),
// so the performance trajectory can be tracked across commits without
// parsing the printed tables.
//
// With -baseline, each run is compared against the BENCH_<id>.json from a
// previous run and the wall-time delta printed; -regress-pct arms a gate
// that exits non-zero when any experiment slowed down past the threshold:
//
//	benchrunner -json out/ -baseline out/ -regress-pct 25
//
// -json and -baseline may share a directory: the baseline is read before
// the new artifact overwrites it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
)

// benchArtifact is the BENCH_<id>.json schema. Delta is a string, not a
// float: a run without a usable baseline records "new", so the artifact
// can never carry NaN or Inf (which a zero-baseline division produced,
// and which encoding/json refuses to marshal as numbers anyway).
type benchArtifact struct {
	ID        string     `json:"id"`
	Name      string     `json:"name"`
	Scale     float64    `json:"scale"`
	ElapsedNS int64      `json:"elapsed_ns"`
	Delta     string     `json:"delta,omitempty"` // "+12.3%", "-4.0%", or "new"
	Table     *exp.Table `json:"table"`
}

// loadArtifact reads a prior run's BENCH_<id>.json from dir. A missing
// file is not an error — it just means there is no baseline for that id.
func loadArtifact(dir, id string) (*benchArtifact, error) {
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+id+".json"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var art benchArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("BENCH_%s.json: %w", id, err)
	}
	return &art, nil
}

// benchDelta is one experiment's wall-time movement against its baseline.
type benchDelta struct {
	ID         string
	BaselineNS int64
	CurrentNS  int64
}

// IsNew reports that no usable baseline exists: the artifact was missing,
// or it recorded a zero/negative elapsed time. Either way there is
// nothing to divide by — the percent is undefined, not zero.
func (d benchDelta) IsNew() bool { return d.BaselineNS <= 0 }

// Pct is the signed percentage change; positive means slower. Only
// meaningful when IsNew is false.
func (d benchDelta) Pct() float64 {
	if d.IsNew() {
		return 0
	}
	return 100 * float64(d.CurrentNS-d.BaselineNS) / float64(d.BaselineNS)
}

// Delta is the artifact form of the comparison: a finite signed percent,
// or "new" when there is no baseline to compare against.
func (d benchDelta) Delta() string {
	if d.IsNew() {
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", d.Pct())
}

// Regressed reports whether the run slowed past the threshold. A zero or
// negative threshold disarms the gate; a new benchmark never regresses.
func (d benchDelta) Regressed(pct float64) bool {
	return pct > 0 && !d.IsNew() && d.Pct() > pct
}

func (d benchDelta) String() string {
	if d.IsNew() {
		return fmt.Sprintf("%s: no baseline -> %v (new)", d.ID,
			time.Duration(d.CurrentNS).Round(time.Millisecond))
	}
	return fmt.Sprintf("%s: %v -> %v (%+.1f%%)", d.ID,
		time.Duration(d.BaselineNS).Round(time.Millisecond),
		time.Duration(d.CurrentNS).Round(time.Millisecond), d.Pct())
}

func main() {
	var (
		which      = flag.String("exp", "", "run only this experiment id (e.g. E04)")
		scale      = flag.Float64("scale", 1.0, "workload scale factor")
		list       = flag.Bool("list", false, "list experiments and exit")
		jsonDir    = flag.String("json", "", "directory for BENCH_<id>.json artifacts (empty disables)")
		baseline   = flag.String("baseline", "", "directory with prior BENCH_<id>.json artifacts to compare against")
		regressPct = flag.Float64("regress-pct", 0, "exit non-zero if any experiment is this % slower than its baseline (0 disables)")
	)
	flag.Parse()

	experiments := exp.Registry()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%s  %s\n", e.ID, e.Name)
		}
		return
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "-json: %v\n", err)
			os.Exit(1)
		}
	}
	ran := 0
	var regressions []benchDelta
	for _, e := range experiments {
		if *which != "" && !strings.EqualFold(*which, e.ID) {
			continue
		}
		// Read the baseline before -json overwrites the artifact below.
		var prior *benchArtifact
		if *baseline != "" {
			var err error
			if prior, err = loadArtifact(*baseline, e.ID); err != nil {
				fmt.Fprintf(os.Stderr, "-baseline: %v\n", err)
				os.Exit(1)
			}
		}
		start := time.Now()
		table := e.Run(*scale)
		elapsed := time.Since(start)
		fmt.Println(table)
		fmt.Printf("(%s completed in %v)\n", e.ID, elapsed.Round(time.Millisecond))
		delta := ""
		if *baseline != "" {
			switch {
			case prior == nil:
				// A missing baseline passes with a note — silently skipping
				// it made a gate run over an empty baseline dir look green
				// for the wrong reason.
				fmt.Printf("(%s: no baseline artifact — pass, recorded as new)\n", e.ID)
				delta = "new"
			case prior.Scale != *scale:
				fmt.Printf("(%s baseline at scale %g, current %g: not comparable — pass, recorded as new)\n",
					e.ID, prior.Scale, *scale)
				delta = "new"
			default:
				d := benchDelta{ID: e.ID, BaselineNS: prior.ElapsedNS, CurrentNS: elapsed.Nanoseconds()}
				fmt.Printf("(%s)\n", d)
				delta = d.Delta()
				if d.Regressed(*regressPct) {
					regressions = append(regressions, d)
				}
			}
		}
		fmt.Println()
		if *jsonDir != "" {
			art := benchArtifact{ID: e.ID, Name: e.Name, Scale: *scale,
				ElapsedNS: elapsed.Nanoseconds(), Delta: delta, Table: table}
			data, err := json.MarshalIndent(art, "", "  ")
			if err == nil {
				err = os.WriteFile(filepath.Join(*jsonDir, "BENCH_"+e.ID+".json"), data, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "-json %s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches %q; use -list\n", *which)
		os.Exit(1)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) regressed more than %g%%:\n",
			len(regressions), *regressPct)
		for _, d := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
		os.Exit(1)
	}
}
