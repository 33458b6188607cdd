package engine

import (
	"testing"

	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stream"
)

// This file pins the train path's load-bearing allocation claim: the
// steady-state filter->map train body allocates nothing (pooled train
// buffers, pooled emission buffers, pooled Vals), whether the train is
// full or a single tuple. The speed itself is guarded from outside, by
// BENCHMARK.json's compute_sat workload.

// TestTrainPathZeroAlloc: after warm-up (ring capacities grown, pools
// primed), pushing tuples through filter -> map and draining them to the
// output must not allocate — the train buffer, the emission buffer, and
// the map's output Vals all come from pools, and the terminal delivery
// recycles the Vals. A single-tuple Ingest+Run is the shape every message
// takes at the second node of a cross-node edge: a train of one must be as
// free as a full one.
func TestTrainPathZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector; alloc counts are not meaningful")
	}
	if stream.PoolCheck {
		t.Skip("poolcheck never reuses a recycled Vals array; alloc counts are not meaningful")
	}
	for _, tc := range []struct {
		name  string
		train int
	}{
		{"full train", DefaultMaxTrain},
		{"single tuple", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := query.NewBuilder("za").
				AddBox("f", filterSpec("B < 1000000")).
				AddBox("m", op.Spec{Kind: "map", Params: map[string]string{
					"exprs": "A=A; B=(B + 1)"}}).
				Connect("f", "m").
				BindInput("in", tSchema, "f", 0).
				BindOutput("out", "m", 0, nil).
				Build()
			if err != nil {
				t.Fatal(err)
			}
			e := newWallEngine(t, n, Config{})
			in := make([]stream.Tuple, tc.train)
			for i := range in {
				in[i] = stream.Tuple{Seq: uint64(i + 1), TS: int64(i + 1),
					Vals: []stream.Value{stream.Int(int64(i % 7)), stream.Int(int64(i))}}
			}
			feed := func() {
				for i := range in {
					e.Ingest("in", in[i])
				}
				e.Run()
			}
			// Warm-up: grow queue rings, prime the train/emission/Vals pools.
			for i := 0; i < 4; i++ {
				feed()
			}
			if avg := testing.AllocsPerRun(50, feed); avg != 0 {
				t.Fatalf("steady-state train path allocates %.2f per %d-tuple train, want 0", avg, tc.train)
			}
		})
	}
}

// TestSplitPooledEquivalence drains the same input through the pooled
// wall-clock batch path serially and with the middle box split N ways,
// with a Map (an op.Consumer whose inputs are recycled post-train and
// whose emissions carry pool-owned Vals) inside the chain. The output
// multisets must match — the ci.sh split battery runs this under -race,
// so a recycled-too-early buffer shows up as a data race or a value
// mismatch here.
func TestSplitPooledEquivalence(t *testing.T) {
	build := func() *query.Network {
		n, err := query.NewBuilder("splitpool").
			AddBox("m", op.Spec{Kind: "map", Params: map[string]string{
				"exprs": "A=A; B=((B * 3) + (A % 7))"}}).
			AddBox("f", filterSpec("B >= 0")).
			Connect("m", "f").
			BindInput("in", tSchema, "m", 0).
			BindOutput("out", "f", 0, nil).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	in := recurringTuples(7, 4000)

	ref := newWallEngine(t, build(), Config{})
	refOut := collectOutputs(ref)
	ingestAll(ref, in)
	ref.Drain()
	if len(*refOut) != len(in) {
		t.Fatalf("reference delivered %d of %d", len(*refOut), len(in))
	}

	for _, k := range []int{2, 3, 4} {
		sp := newWallEngine(t, build(), Config{})
		spOut := collectOutputs(sp)
		if err := sp.SplitBox("m", k); err != nil {
			t.Fatal(err)
		}
		ingestAll(sp, in)
		sp.Drain()
		if !sameMultiset(*refOut, *spOut) {
			t.Fatalf("split-%d map over pooled path diverged from serial (%d vs %d tuples)",
				k, len(*refOut), len(*spOut))
		}
	}
}

// TestAdHocTapRegistrationLinear pins the amortized-doubling tap publish:
// registering N taps must copy O(N) existing elements in total, not the
// O(N^2) of the old rebuild-per-attach scheme.
func TestAdHocTapRegistrationLinear(t *testing.T) {
	n, err := query.NewBuilder("taps").
		AddBox("f", filterSpec("B >= 0")).
		AddBox("g", filterSpec("B >= 0")).
		ConnectPorts(query.Port{Box: "f"}, query.Port{Box: "g"}, true).
		BindInput("in", tSchema, "f", 0).
		BindOutput("out", "g", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	e := newWallEngine(t, n, Config{})
	cps := e.ConnectionPoints()
	if len(cps) != 1 {
		t.Fatalf("expected 1 connection point, got %d", len(cps))
	}
	const taps = 1024
	for i := 0; i < taps; i++ {
		if _, err := e.AttachAdHoc(cps[0], func(stream.Tuple) {}); err != nil {
			t.Fatal(err)
		}
	}
	copies := e.TapCopies()
	// Amortized doubling copies each element O(1) times overall: total
	// copies stay under 2N. The quadratic scheme copied ~N^2/2 = 524k.
	if copies > 2*taps {
		t.Fatalf("registering %d taps copied %d elements, want <= %d (linear bound)",
			taps, copies, 2*taps)
	}
	// The taps must all actually be live: one tuple through the box fans
	// out to every registered tap.
	got := 0
	if _, err := e.AttachAdHoc(cps[0], func(stream.Tuple) { got++ }); err != nil {
		t.Fatal(err)
	}
	e.Ingest("in", tuple(1, 2))
	e.RunUntilIdle(0)
	if got != 1 {
		t.Fatalf("last tap saw %d tuples, want 1", got)
	}
}
