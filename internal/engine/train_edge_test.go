package engine

import (
	"fmt"
	"testing"

	"repro/internal/stream"
)

// TestTrainEdgeIngestEquivalence: IngestTrain(ts) must be observably
// `for Ingest(t)` — the same tuples accepted and shed per input, the same
// Ingested and shed counters, the same sequence stamps, and the same
// outputs — on the serial loop and on a worker pool (run under -race).
// The shedder is driven to a fixed drop rate first, so every decision
// comes from its seeded generator and the twins must agree tuple for
// tuple.
func TestTrainEdgeIngestEquivalence(t *testing.T) {
	const (
		inputs  = 2
		preload = 32 // per input, before the shedder engages
		chunk   = 16
		chunks  = 16 // per input, ingested while it sheds
	)
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			engineLeakGuard(t)
			mk := func() (*Engine, *sink) {
				e := newWallEngine(t, multiFilterNet(t, inputs), Config{
					Workers: workers,
					Shed:    &ShedConfig{Mode: ShedRandom, QueueHigh: 8, Seed: 7},
				})
				s := newSink()
				e.OnOutput(s.fn)
				return e, s
			}
			perTuple, ptOut := mk()
			train, trOut := mk()

			next := int64(0)
			run := func(n int) []stream.Tuple {
				ts := make([]stream.Tuple, n)
				for i := range ts {
					next++
					ts[i] = stream.Tuple{TS: next, Vals: []stream.Value{stream.Int(next % 5), stream.Int(next)}}
				}
				return ts
			}
			// feed gives both engines the same run and returns each one's
			// accepted count.
			feed := func(input string, ts []stream.Tuple) (int, int) {
				a := 0
				for _, tp := range ts {
					if perTuple.Ingest(input, tp) {
						a++
					}
				}
				return a, train.IngestTrain(input, append([]stream.Tuple(nil), ts...))
			}

			for i := 0; i < inputs; i++ {
				if a, b := feed(fmt.Sprintf("in%d", i), run(preload)); a != preload || b != preload {
					t.Fatalf("preload in%d: accepted %d / %d, want %d each", i, a, b, preload)
				}
			}
			// 64 queued > QueueHigh: six control decisions put both drop
			// rates at 0.30 without running anything.
			for i := 0; i < 6; i++ {
				perTuple.Shedder().Control(perTuple)
				train.Shedder().Control(train)
			}
			for c := 0; c < chunks; c++ {
				for i := 0; i < inputs; i++ {
					in := fmt.Sprintf("in%d", i)
					if a, b := feed(in, run(chunk)); a != b {
						t.Fatalf("chunk %d on %s: per-tuple accepted %d, train accepted %d", c, in, a, b)
					}
				}
			}
			if got := train.IngestTrain("nope", run(3)); got != 0 {
				t.Errorf("unknown input accepted %d tuples", got)
			}

			if a, b := perTuple.Ingested(), train.Ingested(); a != b {
				t.Errorf("Ingested: per-tuple %d, train %d", a, b)
			}
			a, b := perTuple.Shedder().Dropped(), train.Shedder().Dropped()
			if a != b || a == 0 || a == uint64(inputs*chunk*chunks) {
				t.Errorf("shed: per-tuple %d, train %d (want equal, some but not all of %d)", a, b, inputs*chunk*chunks)
			}
			for _, name := range []string{"engine.shed", "engine.ingested", "shed.drop.f0", "shed.drop.f1"} {
				if a, b := perTuple.Metrics().Counter(name).Value(), train.Metrics().Counter(name).Value(); a != b {
					t.Errorf("counter %s: per-tuple %d, train %d", name, a, b)
				}
			}

			perTuple.Run()
			train.Run()
			for i := 0; i < inputs; i++ {
				out := fmt.Sprintf("out%d", i)
				want, got := ptOut.get(out), trOut.get(out)
				if len(want) != len(got) || len(want) == 0 {
					t.Fatalf("%s: per-tuple delivered %d, train delivered %d", out, len(want), len(got))
				}
				for j := range want {
					if want[j].Seq != got[j].Seq || want[j].TS != got[j].TS || !want[j].EqualValues(got[j]) {
						t.Fatalf("%s[%d]: per-tuple %v (seq %d), train %v (seq %d)",
							out, j, want[j], want[j].Seq, got[j], got[j].Seq)
					}
				}
			}
		})
	}
}

// TestTrainEdgeOutputRuns: OnOutputTrain sees each delivered run whole —
// one call for a train's emissions — and OnOutput is the same hook looped
// per tuple.
func TestTrainEdgeOutputRuns(t *testing.T) {
	e := newWallEngine(t, multiFilterNet(t, 1), Config{})
	var runs []int
	e.OnOutputTrain(func(name string, ts []stream.Tuple) {
		if name != "out0" {
			t.Errorf("run on output %q", name)
		}
		for i := range ts {
			if ts[i].Pooled() {
				t.Errorf("tuple %d reached the hook still pool-owned", i)
			}
		}
		runs = append(runs, len(ts))
	})
	in := make([]stream.Tuple, 40)
	for i := range in {
		in[i] = stream.NewTuple(stream.Int(1), stream.Int(int64(i)))
	}
	e.IngestTrain("in0", in)
	e.Run()
	if len(runs) != 1 || runs[0] != 40 {
		t.Fatalf("a 40-tuple train reached the hook as runs %v, want [40]", runs)
	}

	singles := 0
	e.OnOutput(func(string, stream.Tuple) { singles++ })
	e.IngestTrain("in0", in[:7])
	e.Run()
	if singles != 7 {
		t.Fatalf("per-tuple hook fired %d times for 7 tuples", singles)
	}
}
