package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/stream"
)

// The engine has one run loop; IngestTrain is its one entry point that may
// be called from another goroutine while that loop steps. This file pins
// that contract (run it under -race) and holds the helpers the other
// wall-clock tests share.

// multiFilterNet builds `chains` independent in_i -> filter -> out_i
// pipelines that pass every tuple, so counts at the outputs are exact.
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

// multiChainNet is multiFilterNet with a map behind each filter, so on
// the wall clock every filter run chains into its map.
func multiChainNet(t *testing.T, chains int) *query.Network {
	t.Helper()
	b := query.NewBuilder("parc")
	for i := 0; i < chains; i++ {
		f, m := fmt.Sprintf("f%d", i), fmt.Sprintf("m%d", i)
		b.AddBox(f, filterSpec("B >= 0")).
			AddBox(m, mapSpec("A=A; B=B")).
			Connect(f, m).
			BindInput(fmt.Sprintf("in%d", i), tSchema, f, 0).
			BindOutput(fmt.Sprintf("out%d", i), m, 0, nil)
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

// sink collects output tuples under a lock, so a test may read it from
// another goroutine than the one running the engine.
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

func TestConcurrentIngestWhileStepping(t *testing.T) {
	// The Step loop with a concurrent producer: exercises the queue locks
	// and atomic counters that make IngestTrain safe against a running
	// loop, and per-input FIFO order through it. Meaningful under -race.
	// In the chained network the producer also reads every queue under
	// its lock (as telemetry does) while the loop checks the chained
	// maps' queues without it.
	for _, tc := range []struct {
		name string
		net  func(*testing.T, int) *query.Network
	}{{"filters", multiFilterNet}, {"chained maps", multiChainNet}} {
		t.Run(tc.name, func(t *testing.T) {
			e := newWallEngine(t, tc.net(t, 2), Config{})
			s := newSink()
			e.OnOutput(s.fn)
			const per = 2000
			done := make(chan struct{})
			go func() {
				defer close(done)
				for j := 0; j < per; j++ {
					e.Ingest("in0", tuple(0, int64(j)))
					e.Ingest("in1", tuple(1, int64(j)))
					_ = e.QueuedTuples()
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
						for i := 0; i < 2; i++ {
							name := fmt.Sprintf("out%d", i)
							for j, tp := range s.get(name) {
								if tp.Field(1).AsInt() != int64(j) {
									t.Fatalf("%s[%d] = %d (order broken)", name, j, tp.Field(1).AsInt())
								}
							}
						}
						return
					}
				default:
				}
			}
		})
	}
}

func TestConcurrentIngestDuringRunParallel(t *testing.T) {
	// Parallel producers, one per input, race the Run loop itself: every
	// tuple must surface exactly once, in its input's order.
	const chains, per = 4, 1000
	e := newWallEngine(t, multiFilterNet(t, chains), Config{})
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
		e.Run()
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
