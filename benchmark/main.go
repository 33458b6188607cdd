// Command benchmark measures the shipping auroranode path from outside:
// it builds cmd/auroranode, runs one or two real node processes, feeds
// them over loopback TCP as an ordinary transport peer, terminates the
// last route as the sink peer, and checks every output against a
// reference computation. See README.md for the workloads and metrics.
//
//	go run -C benchmark . -workload all -seed 1
//	go run -C benchmark . -workload edge_sat -traced
//	go run -C benchmark . -workload durable -repeat 5
//
// BENCHMARK.json's command adds -workload, -seed, -seconds and -trace; the
// last line of standard output is then the contract's JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the contract's four keys, plus the
// environment and a few sample counts that qualify the metrics.
type result struct {
	Workload  string
	Correct   bool
	Attempted uint64 // outputs the reference expected
	Failed    uint64 // of those: missing, duplicated, wrong-valued, or dropped in transport
	Metrics   map[string]metric
	Notes     map[string]float64 // unbounded extras: sample counts, p99, generator health
	Env       envBlock

	order []string // metric names in report order
}

func newResult(w *workload, env envBlock) *result {
	return &result{Workload: w.name, Metrics: map[string]metric{}, Notes: map[string]float64{}, Env: env}
}

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) account(v verdict) {
	r.Attempted += v.attempted
	r.Failed += v.failed()
	r.Notes["outputs_wrong"] += float64(v.wrong)
	r.Notes["outputs_duplicated"] += float64(v.dups)
	r.Notes["outputs_missing"] += float64(v.missing)
	r.Notes["transport_dropped"] += float64(v.dropped)
}

// print writes the human table, then the contract's JSON object as the
// last line.
func (r *result) print() {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Printf("%s %s %.6g %s\n", r.Workload, name, m.Value, m.Unit)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%s failed_share %.6g ratio (%d of %d expected outputs)\n", r.Workload, share, r.Failed, r.Attempted)
	for _, k := range sortedKeys(r.Notes) {
		fmt.Printf("# %s %s %.6g\n", r.Workload, k, r.Notes[k])
	}
	env, _ := json.Marshal(r.Env) // a struct of strings and ints cannot fail
	fmt.Printf("# %s env %s\n", r.Workload, env)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Printf("%s\n", line)
}

// config is what a run needs: the command line's choices, and what
// prepare derives from the checkout.
type config struct {
	seed    int64
	seconds float64
	outDir  string // where trace_<workload>.json goes
	workDir string // network files, data dirs, ledger scratch; removed on every exit path
	nodeBin string // the auroranode binary built for this invocation
	env     envBlock
}

// cleanup runs on every exit path: when prepare's done is called, and
// from the signal handler. Clusters register themselves while they live.
var cleanup = struct {
	mu       sync.Mutex
	clusters map[*cluster]struct{}
	workDir  string
}{clusters: map[*cluster]struct{}{}}

func track(c *cluster) {
	cleanup.mu.Lock()
	cleanup.clusters[c] = struct{}{}
	cleanup.mu.Unlock()
}

func untrack(c *cluster) {
	cleanup.mu.Lock()
	delete(cleanup.clusters, c)
	cleanup.mu.Unlock()
}

func cleanupAll() {
	cleanup.mu.Lock()
	live := make([]*cluster, 0, len(cleanup.clusters))
	for c := range cleanup.clusters {
		live = append(live, c)
	}
	cleanup.mu.Unlock()
	for _, c := range live {
		c.stop()
	}
	if cleanup.workDir != "" {
		os.RemoveAll(cleanup.workDir)
	}
}

// findRoot locates the checkout: the working directory, or its parent
// when started with `go run -C benchmark .`.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "auroranode", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cmd/auroranode not found from %s: run from the repository root", wd)
}

// prepare fills in the rest of cfg for the checkout at root: a work dir
// inside it, the node binary, the environment block. The work dir lives
// in the checkout, on whatever filesystem that is, because the durable
// workload must fsync a real disk and the contract keeps the benchmark's
// writes inside the checkout. done kills whatever is still running and
// removes the work dir.
func prepare(root string, cfg config) (_ config, done func(), err error) {
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(root, ".bench_out")
	}
	cfg.workDir = filepath.Join(root, ".bench_work", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return cfg, nil, err
	}
	cleanup.workDir = cfg.workDir
	if cfg.nodeBin, err = buildNode(root); err != nil {
		cleanupAll()
		return cfg, nil, err
	}
	cfg.env = readEnv(cfg.workDir)
	if cfg.env.WorkDirFS == "tmpfs" {
		fmt.Fprintln(os.Stderr, "benchmark: WARNING: work dir is on tmpfs; fsync is free there and the durable workload measures nothing")
	}
	return cfg, cleanupAll, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed for tuple values and Poisson gaps")
		seconds = flag.Float64("seconds", 24, "measured seconds per run (warm-up and set-up come on top)")
		traceN  = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics (same as -traced)")
		traced  = flag.Bool("traced", false, "traced run: nodes with -http, sampled spans, layer ledger; prints per-layer metrics")
		repeat  = flag.Int("repeat", 1, "run each workload N times and print median, quartiles and spread per metric")
		outDir  = flag.String("out", "", "directory for trace_<workload>.json (default .bench_out in the checkout)")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if flag.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 || *repeat < 1 {
		return fail(fmt.Errorf("-seconds and -repeat must be at least 1"))
	}
	var todo []*workload
	if *name == "all" {
		todo = workloads()
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanupAll()
		os.Exit(130)
	}()
	cfg, done, err := prepare(root, config{seed: *seed, seconds: *seconds, outDir: *outDir})
	if err != nil {
		return fail(err)
	}
	defer done()
	withTrace := *traced || *traceN == 1

	status := 0
	for _, w := range todo {
		var runs []*result
		for i := 0; i < *repeat; i++ {
			var res *result
			if withTrace {
				res, err = runTraced(w, cfg)
			} else {
				res, err = runEndToEnd(w, cfg)
			}
			if err != nil {
				return fail(err)
			}
			res.print()
			if !res.Correct {
				status = 1
			}
			runs = append(runs, res)
		}
		if *repeat > 1 {
			printRepeat(w, runs)
		}
	}
	return status
}
