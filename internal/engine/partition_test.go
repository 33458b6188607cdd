package engine

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/trace"
)

// The split/merge equivalence battery: runtime key-partitioned splits
// must be invisible in the output — exactly (multiset or sequence) where
// the operator's semantics survive sharding, and under the per-key
// combine fold agg(S) = combine(agg(S1), ..., agg(Sn)) for run-based
// windows over recurring keys. Plus the churn, scheduler, trace, and
// autosplit-controller tests. Run under -race: the mid-stream and
// parallel tests exercise the route-flip protocol concurrently.

// passFilterNet is in -> filter(pass-all) -> out: stateless, count-exact.
func passFilterNet(t *testing.T) *query.Network {
	t.Helper()
	n, err := query.NewBuilder("pf").
		AddBox("f", filterSpec("B >= 0")).
		BindInput("in", tSchema, "f", 0).
		BindOutput("out", "f", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// tumbleNet is in -> tumble(cnt by A on B) -> out.
func tumbleNet(t *testing.T) *query.Network {
	t.Helper()
	n, err := query.NewBuilder("tn").
		AddBox("tb", tumbleSpec()).
		BindInput("in", tSchema, "tb", 0).
		BindOutput("out", "tb", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// wsortNet is in -> wsort(by A, drain-scale timeout) -> out.
func wsortNet(t *testing.T) *query.Network {
	t.Helper()
	n, err := query.NewBuilder("wn").
		AddBox("w", op.Spec{Kind: op.KindWSort, Params: map[string]string{
			"attrs": "A", "timeout": "1000000000000"}}).
		BindInput("in", tSchema, "w", 0).
		BindOutput("out", "w", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func collectOutputs(e *Engine) *[]stream.Tuple {
	var out []stream.Tuple
	var mu sync.Mutex
	e.OnOutput(func(_ string, tp stream.Tuple) {
		mu.Lock()
		out = append(out, tp)
		mu.Unlock()
	})
	return &out
}

func tupleMultiset(ts []stream.Tuple) []string {
	out := make([]string, len(ts))
	for i, tp := range ts {
		s := ""
		for _, v := range tp.Vals {
			s += v.Format() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func sameMultiset(a, b []stream.Tuple) bool {
	x, y := tupleMultiset(a), tupleMultiset(b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// perKeySum folds field 1 (the tumble result) by field 0 (the group key):
// for agg=cnt the invariant currency of the split transformation.
func perKeySum(ts []stream.Tuple) map[int64]int64 {
	out := map[int64]int64{}
	for _, tp := range ts {
		out[tp.Field(0).AsInt()] += tp.Field(1).AsInt()
	}
	return out
}

func sameFold(a, b map[int64]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func recurringTuples(seed int64, n int) []stream.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stream.Tuple, n)
	for i := range out {
		out[i] = tuple(rng.Int63n(8), rng.Int63n(90))
	}
	return out
}

func monotoneRunTuples(seed int64, n int) []stream.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stream.Tuple, 0, n)
	key := int64(0)
	for len(out) < n {
		run := 1 + rng.Intn(4)
		for j := 0; j < run && len(out) < n; j++ {
			out = append(out, tuple(key, rng.Int63n(90)))
		}
		key++
	}
	return out
}

func ingestAll(e *Engine, ts []stream.Tuple) {
	for _, tp := range ts {
		e.Ingest("in", tp)
	}
}

func TestSplitBoxErrors(t *testing.T) {
	n, err := query.NewBuilder("err").
		AddBox("f", filterSpec("B >= 0")).
		AddBox("avg", op.Spec{Kind: op.KindTumble, Params: map[string]string{
			"agg": "avg", "on": "B", "groupby": "A"}}).
		Connect("f", "avg").
		BindInput("in", tSchema, "f", 0).
		BindOutput("out", "avg", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := newVirtualEngine(t, n, Config{})
	if err := e.SplitBox("nope", 2); err == nil {
		t.Error("unknown box must refuse")
	}
	if err := e.SplitBox("f", 1); err == nil {
		t.Error("n < 2 must refuse")
	}
	if err := e.SplitBox("avg", 2); err == nil {
		t.Error("non-combinable aggregate must refuse")
	}
	if err := e.UnsplitBox("f"); err == nil {
		t.Error("unsplit of an unsplit box must refuse")
	}
	if err := e.SplitBox("f", 2); err != nil {
		t.Fatal(err)
	}
	if err := e.SplitBox("f", 2); err == nil {
		t.Error("double split must refuse")
	}
	if err := e.SplitBox("f#1", 2); err == nil {
		t.Error("splitting a replica must refuse")
	}
	if st, ok := e.BoxSplit("f"); !ok || !st.Active || len(st.Replicas) != 2 {
		t.Errorf("BoxSplit = %+v, %v; want active with 2 replicas", st, ok)
	}
}

func TestSplitFilterEquivalenceSerial(t *testing.T) {
	in := recurringTuples(7, 300)
	ref, _ := newVirtualEngine(t, passFilterNet(t), Config{})
	refOut := collectOutputs(ref)
	ingestAll(ref, in)
	ref.Drain()

	sp, _ := newVirtualEngine(t, passFilterNet(t), Config{})
	spOut := collectOutputs(sp)
	if err := sp.SplitBox("f", 3); err != nil {
		t.Fatal(err)
	}
	ingestAll(sp, in)
	sp.Drain()

	if len(*spOut) != len(in) {
		t.Fatalf("split filter delivered %d of %d tuples", len(*spOut), len(in))
	}
	if !sameMultiset(*refOut, *spOut) {
		t.Fatalf("split-3 filter output multiset diverged from serial")
	}
}

func TestSplitTumbleMonotoneKeysExact(t *testing.T) {
	in := monotoneRunTuples(11, 400)
	ref, _ := newVirtualEngine(t, tumbleNet(t), Config{})
	refOut := collectOutputs(ref)
	ingestAll(ref, in)
	ref.Drain()

	for _, k := range []int{2, 3, 4} {
		sp, _ := newVirtualEngine(t, tumbleNet(t), Config{})
		spOut := collectOutputs(sp)
		if err := sp.SplitBox("tb", k); err != nil {
			t.Fatal(err)
		}
		ingestAll(sp, in)
		sp.Drain()
		if !sameMultiset(*refOut, *spOut) {
			t.Fatalf("split-%d tumble over non-recurring keys diverged:\nref %s\ngot %s",
				k, stream.FormatTuples(*refOut), stream.FormatTuples(*spOut))
		}
	}
}

func TestSplitTumbleRecurringKeysCombineFold(t *testing.T) {
	in := recurringTuples(13, 500)
	ref, _ := newVirtualEngine(t, tumbleNet(t), Config{})
	refOut := collectOutputs(ref)
	ingestAll(ref, in)
	ref.Drain()
	refFold := perKeySum(*refOut)

	// cnt conservation: the folds must also sum to the input count.
	var total int64
	for _, v := range refFold {
		total += v
	}
	if total != int64(len(in)) {
		t.Fatalf("reference fold loses tuples: %d of %d", total, len(in))
	}

	for _, k := range []int{2, 4} {
		sp, _ := newVirtualEngine(t, tumbleNet(t), Config{})
		spOut := collectOutputs(sp)
		if err := sp.SplitBox("tb", k); err != nil {
			t.Fatal(err)
		}
		ingestAll(sp, in)
		sp.Drain()
		if !sameFold(refFold, perKeySum(*spOut)) {
			t.Fatalf("split-%d per-key combine fold diverged:\nref %v\ngot %v",
				k, refFold, perKeySum(*spOut))
		}
	}
}

func TestSplitWSortExactEquivalence(t *testing.T) {
	in := recurringTuples(17, 300)
	ref, _ := newVirtualEngine(t, wsortNet(t), Config{})
	refOut := collectOutputs(ref)
	ingestAll(ref, in)
	ref.Drain()

	sp, _ := newVirtualEngine(t, wsortNet(t), Config{})
	spOut := collectOutputs(sp)
	if err := sp.SplitBox("w", 3); err != nil {
		t.Fatal(err)
	}
	ingestAll(sp, in)
	sp.Drain()

	if !stream.TuplesEqualValues(*refOut, *spOut) {
		t.Fatalf("split wsort drain order diverged:\nref %s\ngot %s",
			stream.FormatTuples(*refOut), stream.FormatTuples(*spOut))
	}
}

// TestMidStreamSplitUnsplitNoLossNoDup drives three phases — unsplit,
// split, folded back — through a windowed aggregate with in-flight state
// at both transitions, and checks the per-key fold and total count are
// conserved against a never-split reference.
func TestMidStreamSplitUnsplitNoLossNoDup(t *testing.T) {
	in := recurringTuples(23, 600)
	ref, _ := newVirtualEngine(t, tumbleNet(t), Config{})
	refOut := collectOutputs(ref)
	ingestAll(ref, in)
	ref.Drain()

	sp, _ := newVirtualEngine(t, tumbleNet(t), Config{})
	spOut := collectOutputs(sp)
	third := len(in) / 3
	ingestAll(sp, in[:third])
	sp.RunUntilIdle(0) // leave an open window in the parent
	if err := sp.SplitBox("tb", 3); err != nil {
		t.Fatal(err)
	}
	ingestAll(sp, in[third:2*third])
	sp.RunUntilIdle(0) // leave open windows in the replicas
	if err := sp.UnsplitBox("tb"); err != nil {
		t.Fatal(err)
	}
	ingestAll(sp, in[2*third:])
	sp.Drain()

	if s, u := sp.SplitCounts(); s != 1 || u != 1 {
		t.Fatalf("SplitCounts = %d,%d want 1,1", s, u)
	}
	if !sameFold(perKeySum(*refOut), perKeySum(*spOut)) {
		t.Fatalf("mid-stream transitions broke the per-key fold:\nref %v\ngot %v",
			perKeySum(*refOut), perKeySum(*spOut))
	}
}

// TestSplitRequestAppliedAtStepBoundary pins the serial deferred path:
// RequestSplit during activity is applied by Step, not immediately.
func TestSplitRequestAppliedAtStepBoundary(t *testing.T) {
	e, _ := newVirtualEngine(t, passFilterNet(t), Config{})
	out := collectOutputs(e)
	ingestAll(e, recurringTuples(29, 100))
	e.RequestSplit("f", 2)
	if st, _ := e.BoxSplit("f"); st.Active {
		t.Fatal("request must not apply before a step boundary")
	}
	e.RunUntilIdle(0)
	if st, _ := e.BoxSplit("f"); !st.Active {
		t.Fatal("request not applied at step boundary")
	}
	e.Drain()
	if len(*out) != 100 {
		t.Fatalf("delivered %d of 100", len(*out))
	}
}

func TestDrainParksPendingTransition(t *testing.T) {
	e, _ := newVirtualEngine(t, passFilterNet(t), Config{})
	ingestAll(e, recurringTuples(31, 50))
	e.RequestSplit("f", 2)
	e.Drain()
	if st, _ := e.BoxSplit("f"); st.Active {
		t.Fatal("Drain must drop a pending split request, not apply it")
	}
	if s, _ := e.SplitCounts(); s != 0 {
		t.Fatal("no split should have executed during Drain")
	}
}

// TestSplitCachedPartitionReuse pins that oscillation reuses the built
// partition: same replica identities, no topology growth.
func TestSplitCachedPartitionReuse(t *testing.T) {
	e, _ := newVirtualEngine(t, tumbleNet(t), Config{})
	out := collectOutputs(e)
	base := len(e.snap().boxes)
	if err := e.SplitBox("tb", 2); err != nil {
		t.Fatal(err)
	}
	st1, _ := e.BoxSplit("tb")
	grown := len(e.snap().boxes)
	if grown != base+4 { // 2 replicas + WSort + combining Tumble
		t.Fatalf("split topology = %d boxes, want %d", grown, base+4)
	}
	ingestAll(e, recurringTuples(37, 100))
	e.RunUntilIdle(0)
	if err := e.UnsplitBox("tb"); err != nil {
		t.Fatal(err)
	}
	if got := len(e.snap().boxes); got != base {
		t.Fatalf("unsplit topology = %d boxes, want %d", got, base)
	}
	if err := e.SplitBox("tb", 2); err != nil {
		t.Fatal(err)
	}
	st2, _ := e.BoxSplit("tb")
	if len(e.snap().boxes) != grown {
		t.Fatal("re-split must not grow the topology beyond the first split")
	}
	for i := range st1.Replicas {
		if st1.Replicas[i] != st2.Replicas[i] {
			t.Fatalf("replica ids not stable across cycles: %v vs %v", st1.Replicas, st2.Replicas)
		}
	}
	ingestAll(e, recurringTuples(41, 100))
	e.Drain()
	var total int64
	for _, v := range perKeySum(*out) {
		total += v
	}
	if total != 200 {
		t.Fatalf("cnt conservation across cycles: %d of 200", total)
	}
}

// TestSchedulersDispatchReplicasIndependently is the regression for the
// scheduler audit: two replicas of one split box must be dispatchable to
// two workers simultaneously — when one replica is owned, Next must
// offer the other, not stall on the shared parent. Before the topology
// snapshot conversion, runtime-attached replicas were invisible to every
// scheduler.
func TestSchedulersDispatchReplicasIndependently(t *testing.T) {
	build := func() *Engine {
		e, _ := newVirtualEngine(t, tumbleNet(t), Config{})
		if err := e.SplitBox("tb", 2); err != nil {
			t.Fatal(err)
		}
		r1 := e.snap().byID["tb#1"]
		r2 := e.snap().byID["tb#2"]
		for i := 0; i < 4; i++ {
			r1.inQ[0].PushTrain([]stream.Tuple{tuple(1, 1)}, 0)
			r2.inQ[0].PushTrain([]stream.Tuple{tuple(2, 1)}, 0)
		}
		return e
	}
	scheds := map[string]func() Scheduler{
		"roundrobin": func() Scheduler { return NewRoundRobinScheduler(8) },
		"train":      func() Scheduler { return NewTrainScheduler(8) },
		"qos":        func() Scheduler { return NewQoSScheduler(8, 1e6) },
	}
	for name, mk := range scheds {
		e := build()
		s := mk()
		b1, _, _ := s.Next(e, unowned)
		if b1 == nil || (b1.id != "tb#1" && b1.id != "tb#2") {
			t.Fatalf("%s: first pick = %v, want a replica of tb", name, b1)
		}
		b1.running = true // worker 1 holds the first replica
		b2, _, n := s.Next(e, unowned)
		if b2 == nil || b2 == b1 {
			t.Fatalf("%s: second pick = %v with %q owned; want the sibling replica", name, b2, b1.id)
		}
		if b2.parentID != "tb" || b2.replica == 0 {
			t.Fatalf("%s: second pick %q is not a replica of tb", name, b2.id)
		}
		if n < 1 {
			t.Fatalf("%s: zero train for a non-empty replica queue", name)
		}
	}
}

// TestSplitTraceReplicaAttribution pins replica attribution end to end:
// span stages carry the shard ordinal, and Complete copies it into the
// flight-recorder events.
func TestSplitTraceReplicaAttribution(t *testing.T) {
	rec := trace.NewRecorder(256)
	tr := trace.NewTracer("n1", 1, rec)
	e, vc := newVirtualEngine(t, tumbleNet(t), Config{Tracer: tr})
	if err := e.SplitBox("tb", 2); err != nil {
		t.Fatal(err)
	}
	spans := make([]*trace.Span, 0, 8)
	for i := int64(0); i < 8; i++ {
		tp := tuple(i, 1)
		tp.TS = vc.Now()
		tp.Span = tr.Sample(tp.TS)
		spans = append(spans, tp.Span)
		e.Ingest("in", tp)
	}
	// Advance virtual time so the replicas' queue segments have nonzero
	// duration (zero-length segments record no stage).
	e.AdvanceTime(5000)
	e.RunUntilIdle(0)
	found := 0
	for _, sp := range spans {
		for _, st := range sp.Stages {
			if st.Replica > 0 {
				if st.Name != "tb#1" && st.Name != "tb#2" {
					t.Fatalf("replica stage on non-replica box %q", st.Name)
				}
				found++
			}
		}
	}
	if found == 0 {
		t.Fatal("no span stage carried a replica ordinal")
	}
	// Completion must carry Replica into recorder events.
	now := vc.Now()
	for _, sp := range spans {
		tr.Complete(sp, "out", now)
	}
	evFound := false
	for _, ev := range rec.Events() {
		if ev.Replica > 0 {
			evFound = true
			if ev.Name != "tb#1" && ev.Name != "tb#2" {
				t.Fatalf("event replica=%d on %q", ev.Replica, ev.Name)
			}
		}
	}
	if !evFound {
		t.Fatal("no recorder event carried a replica ordinal")
	}
}

// TestParallelSplitPhases alternates split and unsplit across parallel
// pool rounds: each pending request is applied at a train boundary by the
// pool itself, and the output stays count- and multiset-exact. Run under
// -race: this exercises the claim protocol and the route flip against
// worker dispatch.
func TestParallelSplitPhases(t *testing.T) {
	engineLeakGuard(t)
	e := newWallEngine(t, passFilterNet(t), Config{Workers: 4})
	out := collectOutputs(e)
	in := recurringTuples(43, 1200)
	phase := len(in) / 6
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			e.RequestSplit("f", 3)
		} else {
			e.RequestUnsplit("f")
		}
		ingestAll(e, in[i*phase:(i+1)*phase])
		e.RunParallel(4)
	}
	e.Drain()
	if len(*out) != len(in) {
		t.Fatalf("delivered %d of %d across split phases", len(*out), len(in))
	}
	if !sameMultiset(in, *out) {
		t.Fatal("phase-alternating split/unsplit lost or duplicated tuples")
	}
	s, u := e.SplitCounts()
	if s != 3 || u != 3 { // six phases alternating split-first
		t.Fatalf("SplitCounts = %d,%d want 3,3", s, u)
	}
}

// TestSplitUnsplitChurn is the randomized churn test: seeded load
// oscillation with concurrent ingest, a controller goroutine firing
// split/unsplit requests at random, and the worker pool applying them at
// train boundaries. The invariant is total conservation: every ingested
// tuple surfaces exactly once. Run under -race.
func TestSplitUnsplitChurn(t *testing.T) {
	engineLeakGuard(t)
	e := newWallEngine(t, passFilterNet(t), Config{Workers: 4})
	out := collectOutputs(e)
	const total = 3000
	var ingested atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // seeded oscillating ingest load
		defer wg.Done()
		rng := rand.New(rand.NewSource(47))
		for i := 0; i < total; {
			burst := 20 + rng.Intn(180) // oscillate between light and heavy
			for j := 0; j < burst && i < total; j++ {
				e.Ingest("in", tuple(rng.Int63n(8), rng.Int63n(90)))
				i++
				ingested.Add(1)
			}
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
	}()

	wg.Add(1)
	go func() { // seeded split/unsplit churn
		defer wg.Done()
		rng := rand.New(rand.NewSource(53))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rng.Intn(2) == 0 {
				e.RequestSplit("f", 2+rng.Intn(3))
			} else {
				e.RequestUnsplit("f")
			}
			time.Sleep(time.Duration(50+rng.Intn(400)) * time.Microsecond)
		}
	}()

	for ingested.Load() < total || e.QueuedTuples() > 0 {
		e.RunParallel(4)
	}
	close(stop)
	wg.Wait()
	e.Drain()
	if len(*out) != total {
		t.Fatalf("churn lost or duplicated tuples: delivered %d of %d", len(*out), total)
	}
}

// TestAutoSplitHotBoxLifecycle drives the controller end to end on the
// serial wall-clock path: a standing backlog behind a splittable box
// trips the hot predicate and splits it; a subsequent idle trickle trips
// the cool predicate and folds it back. Output conservation holds across
// both transitions.
func TestAutoSplitHotBoxLifecycle(t *testing.T) {
	e := newWallEngine(t, passFilterNet(t), Config{
		StatsEvery: 1,
		AutoSplit: &AutoSplitConfig{
			Replicas: 2,
			WindowNs: int64(200 * time.Microsecond),
			HoldHot:  1,
			HoldCool: 1,
			Hot: stats.HotSpec{
				WorkFrac: 0.001, // any measurable work while backlogged is "hot"
				CoolFrac: 0.9,
				MinQueue: 1,
				Windows:  1,
			},
		},
	})
	if e.StatsStore() == nil {
		t.Fatal("AutoSplit must provision a private stats store")
	}
	out := collectOutputs(e)
	sent := 0
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, _ := e.SplitCounts(); s >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never split the hot box (store=%v)", e.StatsStore().Names())
		}
		ingestAll(e, recurringTuples(int64(sent), 2000))
		sent += 2000
		e.RunUntilIdle(0)
	}
	// Cool down: trickle single tuples so the controller keeps sampling
	// while the replicas sit idle.
	for {
		if _, u := e.SplitCounts(); u >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("controller never folded the split back")
		}
		e.Ingest("in", tuple(1, 1))
		sent++
		e.RunUntilIdle(0)
		time.Sleep(300 * time.Microsecond)
	}
	if st, _ := e.BoxSplit("f"); st.Active {
		t.Fatal("box still split after fold-back")
	}
	e.Drain()
	if len(*out) != sent {
		t.Fatalf("autosplit lifecycle lost tuples: %d of %d", len(*out), sent)
	}
}
