package engine

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Tests for the parallel wall-clock execution path: config validation,
// output equivalence against the serial engine, concurrent ingest safety
// (run these under -race), worker attribution in traces, and an
// env-gated speedup guard for CI hosts with enough cores.

// engineLeakGuard fails the test if engine worker goroutines outlive the
// pool. Same pattern as the transport leak guard: registered before the
// engine work so it runs after it (t.Cleanup is LIFO).
func engineLeakGuard(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// multiChainNet builds `chains` independent in_i -> filter -> tumble ->
// out_i pipelines in one network — disjoint work the dispatcher can hand
// to different workers with no conflicts.
func multiChainNet(t *testing.T, chains int) *query.Network {
	t.Helper()
	b := query.NewBuilder("par")
	for i := 0; i < chains; i++ {
		f, tb := fmt.Sprintf("f%d", i), fmt.Sprintf("tb%d", i)
		b.AddBox(f, filterSpec("B < 1000000")).
			AddBox(tb, tumbleSpec()).
			Connect(f, tb).
			BindInput(fmt.Sprintf("in%d", i), tSchema, f, 0).
			BindOutput(fmt.Sprintf("out%d", i), tb, 0, nil)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// multiFilterNet is multiChainNet without the windowed tumble, so every
// ingested tuple surfaces at an output and counts are exact.
func multiFilterNet(t *testing.T, chains int) *query.Network {
	t.Helper()
	b := query.NewBuilder("parf")
	for i := 0; i < chains; i++ {
		f := fmt.Sprintf("f%d", i)
		b.AddBox(f, filterSpec("B >= 0")).
			BindInput(fmt.Sprintf("in%d", i), tSchema, f, 0).
			BindOutput(fmt.Sprintf("out%d", i), f, 0, nil)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newWallEngine(t *testing.T, net *query.Network, cfg Config) *Engine {
	t.Helper()
	e, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sink collects output tuples under a lock: with a worker pool, OnOutput
// fires from multiple goroutines.
type sink struct {
	mu sync.Mutex
	by map[string][]stream.Tuple
}

func newSink() *sink { return &sink{by: map[string][]stream.Tuple{}} }

func (s *sink) fn(name string, tp stream.Tuple) {
	s.mu.Lock()
	s.by[name] = append(s.by[name], tp)
	s.mu.Unlock()
}

func (s *sink) get(name string) []stream.Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]stream.Tuple(nil), s.by[name]...)
}

func (s *sink) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ts := range s.by {
		n += len(ts)
	}
	return n
}

func TestParallelConfigRejectsVirtualClock(t *testing.T) {
	vc := NewVirtualClock(1)
	_, err := New(chainNet(t, nil), Config{Clock: vc, Workers: 2})
	if err == nil {
		t.Fatal("Workers with a VirtualClock must be a config error")
	}
	// RunParallel on a virtual-clock engine panics rather than silently
	// breaking determinism.
	e, _ := newVirtualEngine(t, chainNet(t, nil), Config{})
	defer func() {
		if recover() == nil {
			t.Error("RunParallel on a virtual clock must panic")
		}
	}()
	e.RunParallel(2)
}

func TestRunParallelSingleWorkerFallsBackToSerial(t *testing.T) {
	engineLeakGuard(t)
	e := newWallEngine(t, multiFilterNet(t, 2), Config{})
	s := newSink()
	e.OnOutput(s.fn)
	for i := 0; i < 50; i++ {
		e.Ingest("in0", tuple(1, int64(i)))
	}
	e.RunParallel(1)
	if got := len(s.get("out0")); got != 50 {
		t.Errorf("delivered %d of 50", got)
	}
}

// runChainWorkload drives the same deterministic workload through an
// engine with the given worker count and returns the per-output tuples.
func runChainWorkload(t *testing.T, workers, chains, perChain int) *sink {
	t.Helper()
	engineLeakGuard(t)
	e := newWallEngine(t, multiChainNet(t, chains), Config{Workers: workers})
	s := newSink()
	e.OnOutput(s.fn)
	for j := 0; j < perChain; j++ {
		for i := 0; i < chains; i++ {
			// A cycles so tumble closes a window on every group change;
			// B carries the per-chain sequence.
			e.Ingest(fmt.Sprintf("in%d", i), tuple(int64(j%5), int64(j)))
		}
	}
	e.Run()
	e.Drain()
	return s
}

func TestParallelMatchesSerialOnChains(t *testing.T) {
	const chains, per = 4, 400
	serial := runChainWorkload(t, 0, chains, per)
	par := runChainWorkload(t, 4, chains, per)
	for i := 0; i < chains; i++ {
		name := fmt.Sprintf("out%d", i)
		a, b := serial.get(name), par.get(name)
		if !stream.TuplesEqualValues(a, b) {
			t.Errorf("%s diverged: serial %d tuples, parallel %d\nserial:\n%sparallel:\n%s",
				name, len(a), len(b),
				stream.FormatTuples(a), stream.FormatTuples(b))
		}
	}
}

func TestParallelFanInPreservesPerSourceOrder(t *testing.T) {
	// Two sources meet at a Union: §2.2's union is order-preserving per
	// input with no promise across inputs, and the parallel engine must
	// keep exactly that contract — multiset equality overall, strict
	// order within each source.
	engineLeakGuard(t)
	n, err := query.NewBuilder("fanin").
		AddBox("u", op.Spec{Kind: "union", Params: map[string]string{"inputs": "2"}}).
		AddBox("f", filterSpec("B >= 0")).
		Connect("u", "f").
		BindInput("a", tSchema, "u", 0).
		BindInput("b", tSchema, "u", 1).
		BindOutput("out", "f", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	e := newWallEngine(t, n, Config{Workers: 4})
	s := newSink()
	e.OnOutput(s.fn)
	const per = 500
	for j := 0; j < per; j++ {
		e.Ingest("a", tuple(0, int64(j)))
		e.Ingest("b", tuple(1, int64(j)))
	}
	e.Run()
	e.Drain()
	out := s.get("out")
	if len(out) != 2*per {
		t.Fatalf("delivered %d, want %d", len(out), 2*per)
	}
	next := map[int64]int64{0: 0, 1: 0}
	for _, tp := range out {
		src, seq := tp.Field(0).AsInt(), tp.Field(1).AsInt()
		if seq != next[src] {
			t.Fatalf("source %d: got seq %d, want %d (per-source order broken)",
				src, seq, next[src])
		}
		next[src]++
	}
}

func TestConcurrentIngestWhileStepping(t *testing.T) {
	// The serial Step loop with a concurrent producer: exercises the
	// queue locks and atomic counters that used to be plain fields.
	// Meaningful under -race.
	engineLeakGuard(t)
	e := newWallEngine(t, multiFilterNet(t, 2), Config{})
	s := newSink()
	e.OnOutput(s.fn)
	const per = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := 0; j < per; j++ {
			e.Ingest("in0", tuple(0, int64(j)))
			e.Ingest("in1", tuple(1, int64(j)))
		}
	}()
	for {
		worked := e.Step()
		select {
		case <-done:
			if !worked && e.QueuedTuples() == 0 {
				if got := s.total(); got != 2*per {
					t.Fatalf("delivered %d, want %d", got, 2*per)
				}
				if got := e.Ingested(); got != 2*per {
					t.Fatalf("Ingested = %d, want %d", got, 2*per)
				}
				return
			}
		default:
		}
	}
}

func TestConcurrentIngestDuringRunParallel(t *testing.T) {
	// Producers race the worker pool itself: Ingest must kick idle
	// workers awake and every tuple must surface exactly once.
	engineLeakGuard(t)
	const chains, per = 4, 1000
	e := newWallEngine(t, multiFilterNet(t, chains), Config{Workers: 4})
	s := newSink()
	e.OnOutput(s.fn)
	var wg sync.WaitGroup
	for i := 0; i < chains; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := fmt.Sprintf("in%d", i)
			for j := 0; j < per; j++ {
				e.Ingest(in, tuple(int64(i), int64(j)))
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		e.RunParallel(4)
		select {
		case <-done:
			if e.QueuedTuples() == 0 {
				e.Drain()
				for i := 0; i < chains; i++ {
					name := fmt.Sprintf("out%d", i)
					out := s.get(name)
					if len(out) != per {
						t.Fatalf("%s delivered %d, want %d", name, len(out), per)
					}
					for j, tp := range out {
						if tp.Field(1).AsInt() != int64(j) {
							t.Fatalf("%s[%d] = %d (order broken)", name, j, tp.Field(1).AsInt())
						}
					}
				}
				return
			}
		default:
			runtime.Gosched()
		}
	}
}

func TestParallelTraceWorkerAttribution(t *testing.T) {
	// Every traced segment executed by a pool worker carries its 1-based
	// worker id, so a Chrome trace can lane work by worker.
	engineLeakGuard(t)
	rec := trace.NewRecorder(8192)
	tr := trace.NewTracer("n1", 1, rec)
	const chains = 4
	e := newWallEngine(t, multiChainNet(t, chains), Config{Workers: 4, Tracer: tr})
	for j := 0; j < 200; j++ {
		for i := 0; i < chains; i++ {
			e.Ingest(fmt.Sprintf("in%d", i), tuple(int64(j%5), int64(j)))
		}
	}
	e.Run()
	e.Drain()
	attributed := 0
	for _, ev := range rec.Events() {
		if ev.Worker < 0 || ev.Worker > 4 {
			t.Fatalf("event %+v has worker id outside pool", ev)
		}
		if ev.Worker > 0 {
			attributed++
		}
	}
	if attributed == 0 {
		t.Error("no trace segment carries a worker id; pool attribution lost")
	}

	// Within one traced multi-tuple train the pool must close each tuple's
	// queue stage at that tuple's own service start, as Step does: tuple
	// i+1 waits while tuple i is processed, so its queue stage ends no
	// earlier than tuple i's proc stage. A clock that ticks on every read
	// makes every stage non-empty and the order exact.
	clk := &tickClock{}
	e = newWallEngine(t, multiFilterNet(t, 1), Config{Workers: 4, Tracer: tr, Clock: clk})
	spans := make([]*trace.Span, 8)
	for i := range spans {
		tp := tuple(int64(i), int64(i))
		tp.TS = clk.Now()
		spans[i] = tr.Sample(tp.TS)
		tp.Span = spans[i]
		e.Ingest("in0", tp)
	}
	e.Run()
	stageEnd := func(sp *trace.Span, kind trace.Kind) int64 {
		for _, st := range sp.Stages {
			if st.Kind == kind && st.Name == "f0" {
				return st.Start + st.Dur
			}
		}
		t.Fatalf("span %d has no %v stage at f0: %+v", sp.ID, kind, sp.Stages)
		return 0
	}
	for i := 0; i+1 < len(spans); i++ {
		procEnd, queueEnd := stageEnd(spans[i], trace.KindProc), stageEnd(spans[i+1], trace.KindQueue)
		if queueEnd < procEnd {
			t.Errorf("tuple %d's queue stage ends at %d, before tuple %d's proc stage ends at %d: its wait was charged to proc",
				i+1, queueEnd, i, procEnd)
		}
	}
}

// tickClock is a wall clock (not a *VirtualClock, so the pool accepts it)
// that advances one nanosecond per read.
type tickClock struct{ n atomic.Int64 }

func (c *tickClock) Now() int64 { return c.n.Add(1) }

func TestParallelSpeedupGuard(t *testing.T) {
	// CI throughput guard: 4 workers must beat serial by >= 1.5x on an
	// embarrassingly parallel workload. Only meaningful with real cores,
	// so it is env-gated like the trace and stats guards.
	if os.Getenv("CI_PARALLEL_GUARD") == "" {
		t.Skip("set CI_PARALLEL_GUARD=1 to run the parallel speedup guard")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need >= 4 CPUs for the speedup guard, have %d", runtime.GOMAXPROCS(0))
	}
	const chains, per = 4, 30000
	run := func(workers int) time.Duration {
		e := newWallEngine(t, multiChainNet(t, chains), Config{Workers: workers})
		for j := 0; j < per; j++ {
			for i := 0; i < chains; i++ {
				e.Ingest(fmt.Sprintf("in%d", i), tuple(int64(j%7), int64(j)))
			}
		}
		start := time.Now()
		e.Run()
		return time.Since(start)
	}
	// Best of two runs each, serial and parallel interleaved, to shave
	// scheduler and cache noise.
	best := func(w int) time.Duration {
		d := run(w)
		if d2 := run(w); d2 < d {
			d = d2
		}
		return d
	}
	serial, par := best(0), best(4)
	speedup := float64(serial) / float64(par)
	t.Logf("serial %v, 4 workers %v, speedup %.2fx", serial, par, speedup)
	if speedup < 1.5 {
		t.Errorf("speedup %.2fx < 1.5x (serial %v, parallel %v)", speedup, serial, par)
	}
}
