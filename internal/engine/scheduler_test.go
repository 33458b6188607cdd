package engine

import (
	"testing"

	"repro/internal/qos"
	"repro/internal/query"
	"repro/internal/stream"
)

func TestRoundRobinVisitsAllBoxes(t *testing.T) {
	// Two parallel chains; round robin must serve both.
	n, err := query.NewBuilder("par").
		AddBox("a", filterSpec("true")).
		AddBox("b", filterSpec("true")).
		BindInput("in1", tSchema, "a", 0).
		BindInput("in2", tSchema, "b", 0).
		BindOutput("o1", "a", 0, nil).
		BindOutput("o2", "b", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := newVirtualEngine(t, n, Config{Scheduler: NewRoundRobinScheduler(1)})
	counts := map[string]int{}
	e.OnOutput(func(name string, _ stream.Tuple) { counts[name]++ })
	for i := 0; i < 10; i++ {
		e.Ingest("in1", tuple(1, 1))
		e.Ingest("in2", tuple(1, 1))
	}
	// With train=1, after 2 steps both chains must have progressed.
	e.Step()
	e.Step()
	if counts["o1"] == 0 || counts["o2"] == 0 {
		t.Errorf("round robin starved a chain: %v", counts)
	}
	e.RunUntilIdle(0)
	if counts["o1"] != 10 || counts["o2"] != 10 {
		t.Errorf("final counts %v", counts)
	}
}

func TestTrainSchedulerPicksLongestQueue(t *testing.T) {
	n, err := query.NewBuilder("par").
		AddBox("short", filterSpec("true")).
		AddBox("long", filterSpec("true")).
		BindInput("in1", tSchema, "short", 0).
		BindInput("in2", tSchema, "long", 0).
		BindOutput("o1", "short", 0, nil).
		BindOutput("o2", "long", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := newVirtualEngine(t, n, Config{Scheduler: NewTrainScheduler(1000)})
	counts := map[string]int{}
	e.OnOutput(func(name string, _ stream.Tuple) { counts[name]++ })
	e.Ingest("in1", tuple(1, 1))
	for i := 0; i < 50; i++ {
		e.Ingest("in2", tuple(1, 1))
	}
	e.Step() // must drain the 50-deep queue in one train
	if counts["o2"] != 50 || counts["o1"] != 0 {
		t.Errorf("train scheduler order wrong: %v", counts)
	}
}

func TestTrainSchedulerRespectsMaxTrain(t *testing.T) {
	e, _ := newVirtualEngine(t, chainNet(t, nil), Config{Scheduler: NewTrainScheduler(8)})
	for i := 0; i < 20; i++ {
		e.Ingest("in", tuple(1, 1))
	}
	e.Step()
	// 20 queued, train cap 8 -> 12 remain at the filter.
	st, _ := e.Stats("f")
	if st.Queued != 12 {
		t.Errorf("queued after capped train = %d, want 12", st.Queued)
	}
}

func TestQoSSchedulerPrefersUrgentTuples(t *testing.T) {
	n, err := query.NewBuilder("par").
		AddBox("old", filterSpec("true")).
		AddBox("new", filterSpec("true")).
		BindInput("in1", tSchema, "old", 0).
		BindInput("in2", tSchema, "new", 0).
		BindOutput("o1", "old", 0, nil).
		BindOutput("o2", "new", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVirtualClock(1)
	e, err := New(n, Config{Clock: vc, Scheduler: NewQoSScheduler(4, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	e.OnOutput(func(name string, _ stream.Tuple) { counts[name]++ })
	e.Ingest("in1", tuple(1, 1)) // enqueued at t=1
	vc.Advance(5000)             // ages the first tuple well past the budget
	for i := 0; i < 100; i++ {
		e.Ingest("in2", tuple(1, 1)) // fresher but much longer queue
	}
	e.Step()
	if counts["o1"] != 1 {
		t.Errorf("QoS scheduler should serve the aged tuple first: %v", counts)
	}
}

func TestSchedulerDefaultsRepaired(t *testing.T) {
	if NewRoundRobinScheduler(0).Train != 1 {
		t.Error("round robin train repaired to 1")
	}
	if NewTrainScheduler(0).MaxTrain != DefaultMaxTrain {
		t.Error("train scheduler cap repaired")
	}
	q := NewQoSScheduler(0, 0)
	if q.MaxTrain != DefaultMaxTrain || q.Budget != 1e9 {
		t.Error("qos scheduler defaults repaired")
	}
}

func TestSchedulersIdleOnEmptyEngine(t *testing.T) {
	e, _ := newVirtualEngine(t, chainNet(t, nil), Config{})
	for _, s := range []Scheduler{
		NewRoundRobinScheduler(4), NewTrainScheduler(4), NewQoSScheduler(4, 100),
	} {
		if b, _, _ := s.Next(e, nil); b != nil {
			t.Errorf("%T should report idle", s)
		}
	}
}

func TestEngineWithQoSSchedulerEndToEnd(t *testing.T) {
	spec := &qos.Spec{Latency: qos.DefaultLatency(1e6, 1e7)}
	n := chainNet(t, spec)
	e, _ := newVirtualEngine(t, n, Config{Scheduler: NewQoSScheduler(64, int64(1e6))})
	delivered := 0
	e.OnOutput(func(string, stream.Tuple) { delivered++ })
	for i := 0; i < 200; i++ {
		e.Ingest("in", tuple(int64(i), 1))
	}
	e.Drain()
	if delivered != 200 {
		t.Errorf("delivered = %d, want 200", delivered)
	}
}
