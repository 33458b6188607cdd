package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// setupRuns is how many times one run brings a cluster up: set-up takes
// a fraction of a second, so a single reading is mostly noise, and the
// contract judges setup_s like any other metric.
const setupRuns = 9

// bringUp starts a cluster for w and drives it to its first verified
// output. The caller stops the cluster.
func bringUp(w *workload, cfg config, tag string, rec *spanRecorder) (*loadgen, time.Duration, error) {
	sink := newSinkState(w)
	sink.rec = rec
	var c *cluster
	for attempt := 1; ; attempt++ {
		var err error
		c, err = startCluster(w, cfg.nodeBin, filepath.Join(cfg.workDir, tag), rec != nil, sink.handle)
		if err == nil {
			break
		}
		// Seen in practice: a pre-picked port taken before the node bound
		// it. Nothing has been sent yet, so starting over loses nothing,
		// and setup_s is timed from the attempt that succeeds.
		if attempt == 3 {
			return nil, 0, err
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v; starting the cluster again on fresh ports\n", w.name, err)
	}
	track(c)
	sink.attach(c)
	g := newLoadgen(w, c, sink, cfg.seed)
	g.rec = rec
	setup, err := g.probe()
	if err != nil {
		shutDown(g)
		return nil, 0, err
	}
	return g, setup, nil
}

func shutDown(g *loadgen) {
	g.c.stop()
	untrack(g.c)
}

// phaseSegments lays out one phase of an end-to-end run: an unmeasured
// run-in, then the measured stretch.
func phaseSegments(p phaseDef, seconds float64) []segment {
	measured := seconds * p.share
	return []segment{
		{name: "warmup", dur: warmup(measured)},
		{name: "measured", dur: secs(measured), record: true},
	}
}

// phaseCycles is how many times a run of two phases alternates them.
const phaseCycles = 4

// mergeWindows pools the windows one phase recorded in several stretches.
func mergeWindows(ws []*window) *window {
	m := &window{segment: ws[0].segment, procs: make([]procSnap, len(ws[0].procs))}
	for _, w := range ws {
		m.seconds += w.seconds
		m.inputs += w.inputs
		m.outputs += w.outputs
		m.selfCPUNs += w.selfCPUNs
		m.lat = append(m.lat, w.lat...)
		m.lateNs = append(m.lateNs, w.lateNs...)
		for i, p := range w.procs {
			m.procs[i] = m.procs[i].add(p)
		}
	}
	slices.Sort(m.lat)
	slices.Sort(m.lateNs)
	return m
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func sumProcs(ps []procSnap) procSnap {
	var t procSnap
	for _, p := range ps {
		t = t.add(p)
	}
	return t
}

// runEndToEnd is the --trace 0 run: tracing off, no telemetry port, and
// only what a user of the system would see.
func runEndToEnd(w *workload, cfg config) (*result, error) {
	res := newResult(w, cfg.env)
	var setups []float64
	var g *loadgen
	for i := 0; i < setupRuns; i++ {
		var d time.Duration
		var err error
		if g, d, err = bringUp(w, cfg, fmt.Sprintf("%s-%d", w.name, i), nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			res.account(g.verdict())
			shutDown(g)
		}
	}
	defer shutDown(g)

	// A workload of two phases alternates them, so that each samples the
	// cluster's whole life and not one stretch of it: durable's filesystem
	// is fast or slow for ten seconds at a time (README.md).
	cycles := 1
	if len(w.phases) > 1 {
		cycles = phaseCycles
	}
	pieces := make([][]*window, len(w.phases))
	for c := 0; c < cycles; c++ {
		for i, p := range w.phases {
			ws, err := g.runPhase(p, phaseSegments(p, cfg.seconds/float64(cycles)))
			if err != nil {
				return nil, err
			}
			pieces[i] = append(pieces[i], ws[0])
		}
	}
	wins := make([]*window, len(w.phases))
	for i := range wins {
		wins[i] = mergeWindows(pieces[i])
	}
	if err := g.c.alive(); err != nil {
		return nil, err
	}
	res.account(g.verdict())
	res.Correct = res.Failed == 0

	tput, lat := wins[w.tputPhase], wins[w.latPhase]
	if tput.inputs == 0 || len(lat.lat) == 0 {
		return nil, fmt.Errorf("%s: nothing was verified in the measured window", w.name)
	}
	sorted := lat.lat
	res.set("throughput_ktps", float64(tput.inputs)/tput.seconds/1e3, "ktuples/s")
	res.set("cpu_us_per_tuple", float64(sumProcs(tput.procs).cpuNs())/float64(tput.inputs)/1e3, "us")
	res.set("latency_p50_ms", float64(quantile(sorted, 0.50))/1e6, "ms")
	res.set("latency_p95_ms", float64(quantile(sorted, 0.95))/1e6, "ms")
	sort.Float64s(setups)
	res.set("setup_s", setups[len(setups)/2], "s")

	// p99 is printed but carries no bound: on durable its run-to-run
	// spread is wider than any bound the contract allows (README.md).
	res.Notes["latency_p99_ms"] = float64(quantile(sorted, 0.99)) / 1e6
	res.Notes["latency_samples"] = float64(len(sorted))
	res.Notes["latency_samples_beyond_p95"] = float64(len(sorted) - int(0.95*float64(len(sorted))))
	res.Notes["measured_seconds"] = tput.seconds
	noteGenerator(res, wins)
	return res, nil
}

// noteGenerator reports how honest the load generator was: how late the
// open loop ran, and how much of a core the benchmark itself burned.
func noteGenerator(res *result, wins []*window) {
	worst := 0.0
	for _, win := range wins {
		if len(win.lateNs) > 0 {
			res.Notes["loadgen_late_p99_ms"] = float64(quantile(win.lateNs, 0.99)) / 1e6
		}
		if share := float64(win.selfCPUNs) / 1e9 / win.seconds; share > worst {
			worst = share
		}
	}
	res.Notes["loadgen_cpu_share"] = worst
	if worst > 0.7 {
		fmt.Fprintf(os.Stderr, "benchmark: WARNING: %s: the load generator used %.2f of a core; this run may be measuring the generator\n",
			res.Workload, worst)
	}
}

// quartiles follows Python's statistics.quantiles(v, n=4), the method the
// acceptance check uses (exclusive; the ends extrapolate). It needs at
// least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	const n = 4
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(2), at(3)
}

// printRepeat summarises -repeat N: per metric the median, the quartiles
// and the spread (q3-q1)/median that BENCHMARK.json's bounds are set
// against.
func printRepeat(w *workload, runs []*result) {
	fmt.Printf("# %s repeat %d: metric median q1 q3 spread unit\n", w.name, len(runs))
	for _, name := range runs[0].order {
		var vals []float64
		for _, r := range runs {
			vals = append(vals, r.Metrics[name].Value)
		}
		if len(vals) < 2 {
			continue
		}
		q1, med, q3 := quartiles(vals)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%s %s median %.6g q1 %.6g q3 %.6g spread %.4f %s\n",
			w.name, name, med, q1, q3, spread, runs[0].Metrics[name].Unit)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
