package engine

import (
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/trace"
)

func filterNet(t *testing.T) *query.Network {
	t.Helper()
	n, err := query.NewBuilder("flt").
		AddBox("f", filterSpec("B < 100")).
		BindInput("in", tSchema, "f", 0).
		BindOutput("out", "f", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEngineTraceDecomposition: on the virtual clock, every delivered
// span must decompose exactly — Queue+Proc+Net equals End-Birth, Birth
// equals the tuple's TS, and the mean of span totals equals the mean the
// QoS monitor recorded, because deliver hands both the same timestamp.
func TestEngineTraceDecomposition(t *testing.T) {
	rec := trace.NewRecorder(256)
	e, _ := newVirtualEngine(t, filterNet(t), Config{
		Tracer: trace.NewTracer("n1", 1, rec),
	})
	var spans []*trace.Span
	e.OnOutput(func(_ string, tp stream.Tuple) {
		if tp.Span == nil {
			t.Fatal("tracer every=1 delivered an untraced tuple")
		}
		spans = append(spans, tp.Span)
	})
	const n = 20
	for i := 0; i < n; i++ {
		e.Ingest("in", tuple(int64(i), 5))
		e.RunUntilIdle(0)
	}
	if len(spans) != n {
		t.Fatalf("delivered %d spans, want %d", len(spans), n)
	}
	var sum int64
	for _, sp := range spans {
		if !sp.Done() {
			t.Fatalf("undelivered span: %+v", sp)
		}
		q, p, nn := sp.Components()
		if q+p+nn != sp.Total() {
			t.Fatalf("decomposition %d+%d+%d != total %d", q, p, nn, sp.Total())
		}
		if nn != 0 {
			t.Errorf("in-process path accrued net time %d", nn)
		}
		sum += sp.Total()
	}
	// The monitor and the trace saw the very same latencies.
	lat := e.Metrics().Histogram("output.out.latency_ns").Snapshot()
	if lat.Count != n {
		t.Fatalf("monitor observed %d deliveries, want %d", lat.Count, n)
	}
	if mean := float64(sum) / n; lat.Mean != mean {
		t.Errorf("monitor mean %f != trace mean %f", lat.Mean, mean)
	}
	// Component histograms populated; flight recorder holds the stages.
	if c := e.Metrics().Histogram("trace.queue_ns").Snapshot().Count; c != n {
		t.Errorf("trace.queue_ns count = %d, want %d", c, n)
	}
	if rec.Total() == 0 {
		t.Error("flight recorder saw nothing")
	}
}

// TestEngineTraceSampling: every=4 traces a quarter of ingested tuples;
// the rest flow through with nil spans.
func TestEngineTraceSampling(t *testing.T) {
	e, _ := newVirtualEngine(t, filterNet(t), Config{
		Tracer: trace.NewTracer("n1", 4, nil),
	})
	traced := 0
	e.OnOutput(func(_ string, tp stream.Tuple) {
		if tp.Span != nil {
			traced++
		}
	})
	for i := 0; i < 100; i++ {
		e.Ingest("in", tuple(int64(i), 5))
	}
	e.RunUntilIdle(0)
	if traced != 25 {
		t.Errorf("traced %d of 100 with every=4, want 25", traced)
	}
}

// TestEngineTraceDerivedTuples: window operators emit derived tuples; the
// derived tuple inherits the span of the tuple whose arrival triggered
// the emission, and the identity still holds across the chain.
func TestEngineTraceDerivedTuples(t *testing.T) {
	e, _ := newVirtualEngine(t, chainNet(t, nil), Config{
		Tracer: trace.NewTracer("n1", 1, nil),
	})
	var spans []*trace.Span
	e.OnOutput(func(_ string, tp stream.Tuple) {
		if tp.Span != nil {
			spans = append(spans, tp.Span)
		}
	})
	rows := [][2]int64{{1, 2}, {1, 3}, {2, 2}, {2, 1}, {4, 5}}
	for _, r := range rows {
		e.Ingest("in", tuple(r[0], r[1]))
		e.RunUntilIdle(0)
	}
	e.Drain()
	if len(spans) == 0 {
		t.Fatal("no traced aggregate reached the output")
	}
	for _, sp := range spans {
		q, p, n := sp.Components()
		if q+p+n != sp.Total() {
			t.Errorf("derived span decomposition %d+%d+%d != %d", q, p, n, sp.Total())
		}
	}
}

// TestEngineTraceQueueEndsAtServiceStart: within one traced multi-tuple
// train, each tuple's queue stage closes at that tuple's own service
// start, not at the train's start: tuple i+1 waits while tuple i is
// processed, so its queue stage ends no earlier than tuple i's proc stage.
// A wall clock that ticks on every read makes every stage non-empty and
// the order exact.
func TestEngineTraceQueueEndsAtServiceStart(t *testing.T) {
	clk := &tickClock{}
	tr := trace.NewTracer("n1", 1, trace.NewRecorder(256))
	e := newWallEngine(t, filterNet(t), Config{Tracer: tr, Clock: clk})
	spans := make([]*trace.Span, 8)
	for i := range spans {
		tp := tuple(int64(i), int64(i))
		tp.TS = clk.Now()
		spans[i] = tr.Sample(tp.TS)
		tp.Span = spans[i]
		e.Ingest("in", tp)
	}
	if steps := e.Run(); steps != 1 {
		t.Fatalf("ran %d steps, want the 8 tuples as one train", steps)
	}
	stageEnd := func(sp *trace.Span, kind trace.Kind) int64 {
		for _, st := range sp.Stages {
			if st.Kind == kind && st.Name == "f" {
				return st.Start + st.Dur
			}
		}
		t.Fatalf("span %d has no %v stage at f: %+v", sp.ID, kind, sp.Stages)
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

// tickClock is a wall clock (not a *VirtualClock, so trains run on the
// wall-clock path) that advances one nanosecond per read.
type tickClock struct{ n atomic.Int64 }

func (c *tickClock) Now() int64 { return c.n.Add(1) }

// buildBenchEngine is the fixture for the overhead guard: a filter chain
// on a virtual clock, tracing off or sampled 1-in-8.
func buildBenchEngine(b *testing.B, every int) *Engine {
	b.Helper()
	n, err := query.NewBuilder("flt").
		AddBox("f", filterSpec("B < 100")).
		BindInput("in", tSchema, "f", 0).
		BindOutput("out", "f", 0, nil).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Clock: NewVirtualClock(1)}
	if every > 0 {
		cfg.Tracer = trace.NewTracer("bench", every, trace.NewRecorder(1024))
	}
	e, err := New(n, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func benchIngestStep(b *testing.B, every int) {
	e := buildBenchEngine(b, every)
	t := tuple(1, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Ingest("in", t)
		e.Step()
	}
}

func BenchmarkEngineTracingOff(b *testing.B)     { benchIngestStep(b, 0) }
func BenchmarkEngineTracingSampled(b *testing.B) { benchIngestStep(b, 8) }

// TestTraceOverheadGuard is the CI regression fence: the tracing-off hot
// path must not regress because tracing exists. It compares the off path
// against the sampled-on path and fails if off is slower than on by more
// than 30% — off paying anything close to the sampled path's cost means a
// nil check grew into real work. Gated behind CI_TRACE_GUARD=1 because
// timing comparisons are too noisy for default -race test runs.
func TestTraceOverheadGuard(t *testing.T) {
	if os.Getenv("CI_TRACE_GUARD") != "1" {
		t.Skip("set CI_TRACE_GUARD=1 to run the trace overhead guard")
	}
	off := testing.Benchmark(BenchmarkEngineTracingOff)
	on := testing.Benchmark(BenchmarkEngineTracingSampled)
	offNs := float64(off.NsPerOp())
	onNs := float64(on.NsPerOp())
	t.Logf("tracing off: %.0f ns/op, sampled 1-in-8: %.0f ns/op", offNs, onNs)
	if offNs > onNs*1.3 {
		t.Fatalf("tracing-off path (%.0f ns/op) slower than sampled-on (%.0f ns/op): the disabled path regressed", offNs, onNs)
	}
}
