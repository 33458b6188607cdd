package engine

import (
	"os"
	"testing"

	"repro/internal/events"
	"repro/internal/qos"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
)

// eventsOfKind filters a journal tail down to one kind, oldest first.
func eventsOfKind(j *events.Journal, k events.Kind) []events.Event {
	var out []events.Event
	for _, ev := range j.Tail(j.Len()) {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

func TestSplitUnsplitJournalEvents(t *testing.T) {
	j := events.NewJournal("n1", 64)
	e, _ := newVirtualEngine(t, passFilterNet(t), Config{Journal: j})
	if e.Journal() != j {
		t.Fatal("Journal accessor should return the configured journal")
	}
	if err := e.SplitBox("f", 3); err != nil {
		t.Fatal(err)
	}
	if err := e.UnsplitBox("f"); err != nil {
		t.Fatal(err)
	}
	splits := eventsOfKind(j, events.KindSplit)
	unsplits := eventsOfKind(j, events.KindUnsplit)
	if len(splits) != 1 || len(unsplits) != 1 {
		t.Fatalf("events = %s; want one split and one unsplit", events.Format(j.Tail(10)))
	}
	sp, un := splits[0], unsplits[0]
	if sp.Subject != "f" || sp.V1 != 3 || sp.Node != "n1" {
		t.Errorf("split event = %+v", sp)
	}
	if un.Subject != "f" || un.V1 != 3 {
		t.Errorf("unsplit event = %+v", un)
	}
	// Direct calls mint fresh correlation ids so trace marks still join.
	if sp.Corr == 0 || un.Corr == 0 || sp.Corr == un.Corr {
		t.Errorf("corr ids: split=%x unsplit=%x; want distinct non-zero", sp.Corr, un.Corr)
	}
	// A failed transition journals nothing.
	before := j.Total()
	if err := e.UnsplitBox("f"); err == nil {
		t.Fatal("second unsplit should fail")
	}
	if j.Total() != before {
		t.Error("failed transition must not journal")
	}
}

func TestShedderJournalsEngageDisengage(t *testing.T) {
	j := events.NewJournal("n1", 64)
	e, _ := newVirtualEngine(t, shedNet(t), Config{
		DefaultBoxCost: 100,
		Journal:        j,
		Shed: &ShedConfig{Mode: ShedRandom, QueueHigh: 100, QueueLow: 10,
			StepUp: 0.2, StepDown: 0.1},
	})
	overload(e, 3000)
	if len(eventsOfKind(j, events.KindShedEngage)) == 0 {
		t.Fatalf("overload should journal a shed-engage event; journal = %s",
			events.Format(j.Tail(10)))
	}
	// Let the queue drain and the control loop walk the drop rate back to
	// zero: each idle step with an empty queue steps it down.
	for i := 0; i < 100 && e.Shedder().DropRate() > 0; i++ {
		e.Ingest("in", tuple(int64(i), 1))
		e.RunUntilIdle(0)
	}
	if e.Shedder().DropRate() != 0 {
		t.Fatal("drop rate never recovered to 0")
	}
	dis := eventsOfKind(j, events.KindShedDisengage)
	if len(dis) == 0 {
		t.Fatalf("recovery should journal a shed-disengage event; journal = %s",
			events.Format(j.Tail(10)))
	}
	eng := eventsOfKind(j, events.KindShedEngage)
	if eng[0].Seq >= dis[0].Seq {
		t.Error("engage must precede disengage")
	}
	if eng[0].V1 <= 0 {
		t.Errorf("engage drop probability = %v; want > 0", eng[0].V1)
	}
	if last := dis[len(dis)-1]; last.V1 != 0 {
		t.Errorf("final disengage drop probability = %v; want 0", last.V1)
	}
}

// TestSampleStatsPublishesOutputQoS: outputs with a QoS spec surface
// utility-sum and delivered counters in the stats store (the series the
// plane folds into gossiped digests); spec-less outputs stay silent.
func TestSampleStatsPublishesOutputQoS(t *testing.T) {
	spec := &qos.Spec{Latency: qos.MustGraph(
		qos.Point{X: 0, U: 1}, qos.Point{X: 1e6, U: 1}, qos.Point{X: 2e6, U: 0})}
	st := stats.NewStore(1e6, 8)
	e, _ := newVirtualEngine(t, chainNet(t, spec), Config{
		DefaultBoxCost: 10, Stats: st, StatsEvery: 1,
	})
	for i := 0; i < 100; i++ {
		e.Ingest("in", tuple(int64(i), 1))
	}
	e.Drain()
	e.SampleStats(e.Clock().Now())
	names := map[string]bool{}
	for _, n := range st.Names() {
		names[n] = true
	}
	if !names[stats.SeriesOutputUtilSum("out")] || !names[stats.SeriesOutputDelivered("out")] {
		t.Fatalf("output QoS series missing from store: %v", st.Names())
	}

	// No QoS spec: utility is constant 1, so no series is published.
	st2 := stats.NewStore(1e6, 8)
	e2, _ := newVirtualEngine(t, chainNet(t, nil), Config{Stats: st2, StatsEvery: 1})
	for i := 0; i < 10; i++ {
		e2.Ingest("in", tuple(int64(i), 1))
	}
	e2.Drain()
	e2.SampleStats(e2.Clock().Now())
	for _, n := range st2.Names() {
		if n == stats.SeriesOutputUtilSum("out") {
			t.Fatal("spec-less output must not publish utility series")
		}
	}
}

// TestDeliveredUtilityGaugeMatchesGraph is the attribution property test:
// the output.<name>.utility gauge must equal the mean of the per-tuple
// utilities the attached qos.Graphs assign to the observed latency and
// value samples — computed independently here from the delivered tuples.
func TestDeliveredUtilityGaugeMatchesGraph(t *testing.T) {
	spec := &qos.Spec{
		Latency: qos.MustGraph(
			qos.Point{X: 0, U: 1}, qos.Point{X: 5_000, U: 0.5}, qos.Point{X: 50_000, U: 0}),
		Value:      qos.MustGraph(qos.Point{X: 0, U: 0.1}, qos.Point{X: 90, U: 1}),
		ValueField: "B",
	}
	n, err := query.NewBuilder("prop").
		AddBox("f", filterSpec("true")).
		BindInput("in", tSchema, "f", 0).
		BindOutput("out", "f", 0, spec).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := newVirtualEngine(t, n, Config{DefaultBoxCost: 700})
	var wantSum float64
	var delivered int
	e.OnOutput(func(_ string, tp stream.Tuple) {
		// On the serial path the clock does not advance between the
		// monitor's observation and this callback, so the latency the
		// monitor attributed is reproducible exactly.
		lat := float64(e.Clock().Now() - tp.TS)
		wantSum += spec.Latency.Utility(lat) * spec.Value.Utility(float64(tp.Field(1).AsInt()))
		delivered++
	})
	// Vary both utility inputs: batch sizes vary queueing latency, B
	// varies value utility.
	ts := recurringTuples(11, 400)
	for i := 0; i < len(ts); {
		batch := 1 + i%17
		for j := 0; j < batch && i < len(ts); j++ {
			e.Ingest("in", ts[i])
			i++
		}
		e.RunUntilIdle(0)
	}
	e.Drain()
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	want := wantSum / float64(delivered)
	got := e.Metrics().FloatGauge("output.out.utility").Value()
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("utility gauge = %v; independent evaluation = %v (n=%d)", got, want, delivered)
	}
	// The report's mean (before loss scaling) is the same quantity.
	rep, _ := e.Output("out")
	if rep.Utility != got {
		t.Errorf("report utility = %v, gauge = %v (loss graph absent: must match)", rep.Utility, got)
	}
}

func benchIngestStepEvents(b *testing.B, on bool) {
	var spec *qos.Spec
	cfg := Config{Clock: NewVirtualClock(1)}
	if on {
		spec = &qos.Spec{Latency: qos.DefaultLatency(1e6, 1e8)}
		cfg.Journal = events.NewJournal("bench", 1024)
	}
	n, err := query.NewBuilder("ev").
		AddBox("f", filterSpec("B < 100")).
		BindInput("in", tSchema, "f", 0).
		BindOutput("out", "f", 0, spec).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(n, cfg)
	if err != nil {
		b.Fatal(err)
	}
	t := tuple(1, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Ingest("in", t)
		e.Step()
	}
}

func BenchmarkEngineEventsOff(b *testing.B) { benchIngestStepEvents(b, false) }
func BenchmarkEngineEventsOn(b *testing.B)  { benchIngestStepEvents(b, true) }

// TestEventsOverheadGuard is the CI fence for the observability plane:
// with the journal configured and QoS attribution active, the per-tuple
// path must stay within 5% of the disabled configuration — the journal
// only hears from control decisions and attribution is a few float ops,
// so anything larger means the hot path grew real work. Gated behind
// CI_EVENTS_GUARD=1; best-of-3 rounds damp scheduler noise.
func TestEventsOverheadGuard(t *testing.T) {
	if os.Getenv("CI_EVENTS_GUARD") != "1" {
		t.Skip("set CI_EVENTS_GUARD=1 to run the events overhead guard")
	}
	// Warm-up round of each so one-time costs (pool priming, frequency
	// governor) hit both configurations equally, then alternating off/on
	// pairs so clock drift lands on both sides instead of skewing
	// whichever phase ran second.
	testing.Benchmark(BenchmarkEngineEventsOff)
	testing.Benchmark(BenchmarkEngineEventsOn)
	offNs, onNs := 0.0, 0.0
	for i := 0; i < 3; i++ {
		off := float64(testing.Benchmark(BenchmarkEngineEventsOff).NsPerOp())
		on := float64(testing.Benchmark(BenchmarkEngineEventsOn).NsPerOp())
		if offNs == 0 || off < offNs {
			offNs = off
		}
		if onNs == 0 || on < onNs {
			onNs = on
		}
	}
	t.Logf("journal+qos off: %.0f ns/op, on: %.0f ns/op (%.1f%%)",
		offNs, onNs, (onNs/offNs-1)*100)
	if onNs > offNs*1.05 {
		t.Fatalf("journal+QoS path %.0f ns/op exceeds 5%% over disabled %.0f ns/op", onNs, offNs)
	}
}
