package exp

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stream"
)

// E21HotPath measures what train scheduling buys on four independent
// filter -> map -> tumble chains, on the engine's one run loop and the
// wall clock. The
// two rows run the identical network and input through the engine's one
// train body; the only difference is the scheduler's train cap — 1 versus
// the default — the knob the paper's §2.3 already has. The ratio column
// is the batching gain (one queue lock, one kernel dispatch, one emission
// flush per train instead of per tuple), and allocs/tuple is the
// whole-path allocation rate — train, emit, delivery — from
// runtime.MemStats deltas. The deterministic 0-allocs/op claim for the
// steady-state train body alone is pinned separately by the engine's
// hot-path tests.
func E21HotPath(scale float64) *Table {
	t := &Table{ID: "E21", Title: "train scheduling gain through the one train body: train cap 1 vs default (1 worker, wall clock)",
		Header: []string{"mode", "tuples", "wall ms", "Ktuples/s", "ratio", "allocs/tuple"}}

	const chains = 4
	per := scaled(100_000, scale)
	total := chains * per

	build := func() *query.Network {
		b := query.NewBuilder("e21")
		for i := 0; i < chains; i++ {
			f := fmt.Sprintf("f%d", i)
			m := fmt.Sprintf("m%d", i)
			tb := fmt.Sprintf("tb%d", i)
			b.AddBox(f, op.Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 95"}}).
				AddBox(m, op.Spec{Kind: "map", Params: map[string]string{
					"exprs": "A=A; B=((B * 3) + (A % 7))"}}).
				AddBox(tb, op.Spec{Kind: "tumble", Params: map[string]string{
					"agg": "sum", "on": "B", "groupby": "A"}}).
				Connect(f, m).
				Connect(m, tb).
				BindInput(fmt.Sprintf("in%d", i), abSchema, f, 0).
				BindOutput(fmt.Sprintf("out%d", i), tb, 0, nil)
		}
		return b.MustBuild()
	}

	in := make([][]stream.Tuple, chains)
	inputs := make([]string, chains)
	for i := 0; i < chains; i++ {
		in[i] = randTuples(per, 16, int64(100+i))
		inputs[i] = fmt.Sprintf("in%d", i)
	}

	run := func(train int) (time.Duration, float64, int) {
		e, err := engine.New(build(), engine.Config{Scheduler: engine.NewTrainScheduler(train)})
		if err != nil {
			panic(err)
		}
		// Ingest outside the measured region: the ingest path is identical
		// in both modes, so timing it would only dilute the train-path
		// comparison the experiment exists to make.
		for j := 0; j < per; j++ {
			for i := 0; i < chains; i++ {
				e.Ingest(inputs[i], in[i][j])
			}
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		e.Run()
		e.Drain()
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(total)
		return el, allocs, int(e.Metrics().Counter("engine.delivered").Value())
	}

	var baseMs float64
	var outs []int
	for _, train := range []int{1, engine.DefaultMaxTrain} {
		el, allocs, n := run(train)
		ms := float64(el.Nanoseconds()) / 1e6
		if baseMs == 0 {
			baseMs = ms
		}
		outs = append(outs, n)
		t.Add(fmt.Sprintf("train=%d", train), total, ms, float64(total)/1e3/(ms/1e3), baseMs/ms, allocs)
	}
	if outs[0] != outs[1] {
		t.Note("OUTPUT MISMATCH: train=1 delivered %d, train=%d delivered %d", outs[0], engine.DefaultMaxTrain, outs[1])
	} else {
		t.Note("both modes delivered %d outputs; allocs/tuple is the measured region (run through delivery), not just the train body", outs[0])
	}
	t.Note("NumCPU=%d GOMAXPROCS=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	return t
}
