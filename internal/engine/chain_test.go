package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Run to completion across boxes: on the wall clock a span-free run whose
// only target is a plain box runs that box's train body at once instead of
// taking a queue hop. This file pins the work that saves exactly (steps,
// queue occupancy, exclusive-time accounting) and holds the chaining
// engine to the unchained one: the same input through the wall-clock
// engine and a VirtualClock engine, which never chains, must give the
// same output sequence at every output.

var kvtSchema = stream.MustSchema("in",
	stream.Field{Name: "K", Kind: stream.KindInt},
	stream.Field{Name: "V", Kind: stream.KindInt},
	stream.Field{Name: "T", Kind: stream.KindInt},
)

// computeSatBoxes are the five boxes of the benchmark's compute_sat node:
// filter -> map -> map -> filter -> tumble(max T by K).
func computeSatBoxes(b *query.Builder) *query.Builder {
	return b.
		AddBox("f1", filterSpec("V < 95")).
		AddBox("m1", op.Spec{Kind: "map", Params: map[string]string{"exprs": "K=K; V=(V * 3); T=T"}}).
		AddBox("m2", op.Spec{Kind: "map", Params: map[string]string{"exprs": "K=K; V=(V - 6); T=T"}}).
		AddBox("f2", filterSpec("(V > 0) && (K >= 0)")).
		AddBox("tb", op.Spec{Kind: "tumble", Params: map[string]string{"agg": "max", "on": "T", "groupby": "K"}}).
		Connect("f1", "m1").Connect("m1", "m2").Connect("m2", "f2").Connect("f2", "tb").
		BindInput("in", kvtSchema, "f1", 0)
}

func computeSatNet(t *testing.T) *query.Network {
	t.Helper()
	n, err := computeSatBoxes(query.NewBuilder("csat")).BindOutput("out", "tb", 0, nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// kvtTuples returns n tuples with explicit Seq and TS (so no clock stamps
// them), keys in runs of 16 so the tumble closes windows, and seeded V.
func kvtTuples(seed int64, from, n int) []stream.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stream.Tuple, n)
	for i := range out {
		s := from + i + 1
		out[i] = stream.Tuple{Seq: uint64(s), TS: int64(s), Vals: []stream.Value{
			stream.Int(int64(s / 16)), stream.Int(rng.Int63n(100)), stream.Int(int64(s) * 1000)}}
	}
	return out
}

func trainBytes(ts []stream.Tuple) int {
	n := 0
	for i := range ts {
		n += ts[i].MemSize()
	}
	return n
}

// TestChainWorkPins: one IngestTrain of 128 tuples through the compute_sat
// chain, then Run, takes exactly one Step — the input box's train runs on
// through all four downstream boxes (the unchained engine takes about
// five). Only the input box's queue ever holds a tuple: on a clock that
// ticks on every read a queued tuple waits at least 1 ns, so a box whose
// every run was chained reports a queueing delay of exactly 0, and the
// queue high-water mark is the input train itself. Every box keeps its own
// tuple counts, the boxes' exclusive work sums to BusyNs exactly, and
// BusyNs counts each nanosecond once.
func TestChainWorkPins(t *testing.T) {
	for _, tc := range []struct {
		name string
		clk  Clock
	}{{"ticking clock", &tickClock{}}, {"wall clock", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			e := newWallEngine(t, computeSatNet(t), Config{Clock: tc.clk})
			e.OnOutputTrain(func(string, []stream.Tuple) {})
			in := kvtTuples(1, 0, DefaultMaxTrain)
			inBytes := trainBytes(in)
			if got := e.IngestTrain("in", in); got != len(in) {
				t.Fatalf("ingested %d of %d", got, len(in))
			}
			before := e.clock.Now()
			if steps := e.Run(); steps != 1 || e.Steps() != 1 {
				t.Fatalf("Run took %d steps (%d counted), want 1", steps, e.Steps())
			}
			// Nested bodies are charged once: busy time fits inside the
			// clock's movement across Run, which a sum of inclusive
			// times (the input box's body contains all the others)
			// overshoots several times over.
			if busy, ran := e.BusyNs(), e.clock.Now()-before; busy <= 0 || busy > ran {
				t.Errorf("BusyNs %d ns, want within the %d ns Run took", busy, ran)
			}
			if hw := e.Storage().HighWater(); hw != inBytes {
				t.Errorf("queue high-water mark %d bytes, want the input train's %d", hw, inBytes)
			}
			var work int64
			for _, b := range e.snap().boxes {
				work += b.workNs.Load()
				st, _ := e.Stats(b.id)
				if st.Processed == 0 || st.Queued != 0 {
					t.Errorf("box %s processed %d, queued %d", b.id, st.Processed, st.Queued)
				}
				if _, ticks := tc.clk.(*tickClock); !ticks {
					continue
				}
				if b.id == "f1" && st.Wait <= 0 {
					t.Errorf("input box waited %v ns, want > 0", st.Wait)
				}
				if b.id != "f1" && st.Wait != 0 {
					t.Errorf("box %s waited %v ns: a run was queued, not chained", b.id, st.Wait)
				}
			}
			if busy := e.BusyNs(); work != busy {
				t.Errorf("sum of per-box work %d ns != BusyNs %d ns", work, busy)
			}
			// Selectivity stays per box: each box's input count is its
			// upstream's output count.
			prev := int64(len(in))
			for _, id := range []string{"f1", "m1", "m2", "f2", "tb"} {
				b := e.snap().byID[id]
				if got := b.inCount.Load(); got != prev {
					t.Errorf("box %s consumed %d, want its upstream's %d", id, got, prev)
				}
				prev = b.outCount.Load()
			}
		})
	}
}

// manualClock is a wall clock (not a *VirtualClock, so chaining is on)
// that moves only when the test advances it, so time-driven operators
// fire at the same points as under a VirtualClock.
type manualClock struct{ t atomic.Int64 }

func (c *manualClock) Now() int64 { return c.t.Load() }

// chainShape is one network for the differential test: drive feeds both
// engines the same input, advancing time with adv, and ends with Drain.
type chainShape struct {
	name  string
	build func(t *testing.T) *query.Network
	drive func(t *testing.T, e *Engine, adv func(int64), rec *outRec)
	// chains reports whether the wall-clock engine must take fewer steps.
	chains bool
}

// outRec records every output's delivered sequence (and any ad hoc tap's,
// under the name "adhoc"), formatted, so the two engines compare exactly.
type outRec struct{ by map[string][]string }

func fmtTuple(tp stream.Tuple) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d@%d:", tp.Seq, tp.TS)
	for _, v := range tp.Vals {
		sb.WriteString(v.Format())
		sb.WriteByte('|')
	}
	return sb.String()
}

func (r *outRec) hook(name string, ts []stream.Tuple) {
	for _, tp := range ts {
		r.by[name] = append(r.by[name], fmtTuple(tp))
	}
}

func ingestTrains(e *Engine, input string, ts []stream.Tuple, train int) {
	for i := 0; i < len(ts); i += train {
		e.IngestTrain(input, append([]stream.Tuple(nil), ts[i:min(i+train, len(ts))]...))
		e.Run()
	}
}

func mapSpec(exprs string) op.Spec {
	return op.Spec{Kind: "map", Params: map[string]string{"exprs": exprs}}
}

func chainShapes() []chainShape {
	build := func(b *query.Builder) func(t *testing.T) *query.Network {
		return func(t *testing.T) *query.Network {
			t.Helper()
			n, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	ingestDrain := func(t *testing.T, e *Engine, _ func(int64), _ *outRec) {
		ingestTrains(e, "in", kvtTuples(7, 0, 1000), 100)
		ingestTrains(e, "in", kvtTuples(8, 1000, 7), 1)
		e.Drain()
	}
	return []chainShape{
		{
			// compute_sat plus a map behind the tumble, so Drain's flush
			// of the open windows chains too.
			name: "linear chain and Drain's flush",
			build: build(computeSatBoxes(query.NewBuilder("lin")).
				AddBox("m3", mapSpec("K=K; R=(result + 1)")).
				Connect("tb", "m3").
				BindOutput("out", "m3", 0, nil)),
			drive:  ingestDrain,
			chains: true,
		},
		{
			// f feeds two boxes, so its runs never chain; m2 -> g does.
			name: "fan-out",
			build: build(query.NewBuilder("fan").
				AddBox("f", filterSpec("V < 90")).
				AddBox("m1", mapSpec("K=K; V=(V * 2); T=T")).
				AddBox("m2", mapSpec("K=K; V=(V + 1); T=T")).
				AddBox("g", filterSpec("V > 10")).
				Connect("f", "m1").Connect("f", "m2").Connect("m2", "g").
				BindInput("in", kvtSchema, "f", 0).
				BindOutput("out1", "m1", 0, nil).
				BindOutput("out2", "g", 0, nil)),
			drive:  ingestDrain,
			chains: true,
		},
		{
			// Two inputs meet at a union (two ports: never plain); the
			// map behind it chains.
			name: "union fan-in",
			build: build(query.NewBuilder("uni").
				AddBox("f1", filterSpec("V < 90")).
				AddBox("m2", mapSpec("K=K; V=(V + 1000); T=T")).
				AddBox("u", op.Spec{Kind: "union", Params: map[string]string{"inputs": "2"}}).
				AddBox("m3", mapSpec("K=K; V=(V * 5); T=T")).
				ConnectPorts(query.Port{Box: "f1"}, query.Port{Box: "u", Port: 0}, false).
				ConnectPorts(query.Port{Box: "m2"}, query.Port{Box: "u", Port: 1}, false).
				Connect("u", "m3").
				BindInput("in1", kvtSchema, "f1", 0).
				BindInput("in2", kvtSchema, "m2", 0).
				BindOutput("out", "m3", 0, nil)),
			drive: func(t *testing.T, e *Engine, _ func(int64), _ *outRec) {
				for k := 0; k < 6; k++ {
					ingestTrains(e, fmt.Sprintf("in%d", k%2+1), kvtTuples(int64(k), 100*k, 100), 40)
				}
				e.Drain()
			},
			chains: true,
		},
		{
			// A connection point between the maps; an ad hoc query
			// attaches mid-stream and sees the replayed history and then
			// every live tuple, while m2 chains behind the arc.
			name: "CP arc with ad hoc attach",
			build: build(query.NewBuilder("cp").
				AddBox("m1", mapSpec("K=K; V=(V * 3); T=T")).
				AddBox("m2", mapSpec("K=K; V=(V - 1); T=T")).
				ConnectPorts(query.Port{Box: "m1"}, query.Port{Box: "m2"}, true).
				BindInput("in", kvtSchema, "m1", 0).
				BindOutput("out", "m2", 0, nil)),
			drive: func(t *testing.T, e *Engine, _ func(int64), rec *outRec) {
				ingestTrains(e, "in", kvtTuples(3, 0, 300), 64)
				if _, err := e.AttachAdHoc(query.Port{Box: "m1"}, func(tp stream.Tuple) {
					rec.by["adhoc"] = append(rec.by["adhoc"], fmtTuple(tp))
				}); err != nil {
					t.Fatal(err)
				}
				ingestTrains(e, "in", kvtTuples(4, 300, 300), 64)
				e.Drain()
			},
			chains: true,
		},
		{
			// The middle map runs split two ways: the filter's runs go
			// through the partition's route, never chained, and the
			// replicas' runs chain into g.
			name: "split box mid-chain",
			build: build(query.NewBuilder("spl").
				AddBox("f", filterSpec("V < 95")).
				AddBox("m", mapSpec("K=K; V=(V * 3); T=T")).
				AddBox("g", filterSpec("V > 6")).
				Connect("f", "m").Connect("m", "g").
				BindInput("in", kvtSchema, "f", 0).
				BindOutput("out", "g", 0, nil)),
			drive: func(t *testing.T, e *Engine, _ func(int64), _ *outRec) {
				ingestTrains(e, "in", kvtTuples(5, 0, 200), 50)
				if err := e.SplitBox("m", 2); err != nil {
					t.Fatal(err)
				}
				if e.snap().byID["m"].plain {
					t.Fatal("a split box is still plain")
				}
				ingestTrains(e, "in", kvtTuples(6, 200, 400), 50)
				if err := e.UnsplitBox("m"); err != nil {
					t.Fatal(err)
				}
				if !e.snap().byID["m"].plain {
					t.Fatal("an unsplit box is not plain again")
				}
				ingestTrains(e, "in", kvtTuples(7, 600, 200), 50)
				e.Drain()
			},
			chains: true,
		},
		{
			// A WSort at the input releases its minimum key once per
			// timeout from Advance; those runs chain into the map. Time
			// moves only between batches, by a whole timeout.
			name: "WSort with Advance",
			build: build(query.NewBuilder("ws").
				AddBox("w", op.Spec{Kind: op.KindWSort, Params: map[string]string{
					"attrs": "K", "timeout": "1000000000000"}}).
				AddBox("m", mapSpec("K=K; V=(V + 1); T=T")).
				Connect("w", "m").
				BindInput("in", kvtSchema, "w", 0).
				BindOutput("out", "m", 0, nil)),
			drive: func(t *testing.T, e *Engine, adv func(int64), _ *outRec) {
				for k := 0; k < 12; k++ {
					adv(1_000_000_000_000)
					in := kvtTuples(int64(k), 40*k, 40)
					for i := range in {
						in[i].Vals[0] = stream.Int(int64((k*7 + i*3) % 50))
					}
					ingestTrains(e, "in", in, 40)
				}
				e.Drain()
			},
			chains: true,
		},
	}
}

// TestChainMatchesVirtualClock is the chaining rule's differential test:
// each shape runs once on a wall clock, where runs chain, and once on a
// VirtualClock, where nothing chains and every tuple is its own chunk; the
// output sequences must be identical at every output.
func TestChainMatchesVirtualClock(t *testing.T) {
	for _, sh := range chainShapes() {
		t.Run(sh.name, func(t *testing.T) {
			run := func(virtual bool) (*outRec, *Engine) {
				rec := &outRec{by: map[string][]string{}}
				var (
					e   *Engine
					adv func(int64)
				)
				if virtual {
					var vc *VirtualClock
					e, vc = newVirtualEngine(t, sh.build(t), Config{})
					adv = vc.Advance
				} else {
					clk := &manualClock{}
					e = newWallEngine(t, sh.build(t), Config{Clock: clk})
					adv = func(d int64) { clk.t.Add(d) }
				}
				e.OnOutputTrain(rec.hook)
				sh.drive(t, e, adv, rec)
				return rec, e
			}
			wall, we := run(false)
			virt, ve := run(true)
			if len(virt.by) == 0 {
				t.Fatal("the virtual-clock run delivered nothing")
			}
			for name, want := range virt.by {
				got := wall.by[name]
				if len(got) != len(want) {
					t.Fatalf("output %s: wall clock delivered %d tuples, virtual clock %d", name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("output %s diverges at %d: wall clock %s, virtual clock %s", name, i, got[i], want[i])
					}
				}
			}
			if len(wall.by) != len(virt.by) {
				t.Fatalf("wall clock delivered to %d outputs, virtual clock to %d", len(wall.by), len(virt.by))
			}
			if sh.chains && we.Steps() >= ve.Steps() {
				t.Errorf("wall clock took %d steps, virtual clock %d: nothing chained", we.Steps(), ve.Steps())
			}
		})
	}
}

// TestChainTracedTrainChunks: a traced tuple in the middle of a train is a
// chunk of its own, and the untraced prefix before it stays one chunk that
// chains on; the traced tuple's emission takes the queue (a span never
// chains), and so the suffix queues behind it to keep FIFO. The span's
// stages decompose exactly, and delivery order is the ingest order.
func TestChainTracedTrainChunks(t *testing.T) {
	clk := &tickClock{}
	tr := trace.NewTracer("n1", 1, trace.NewRecorder(64))
	n, err := query.NewBuilder("tc").
		AddBox("f", filterSpec("B >= 0")).
		AddBox("m", mapSpec("A=A; B=(B + 1)")).
		Connect("f", "m").
		BindInput("in", tSchema, "f", 0).
		BindOutput("out", "m", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	e := newWallEngine(t, n, Config{Tracer: tr, Clock: clk})
	// The relay input keeps the engine from sampling the untraced tuples
	// itself; only the tuple given a span is traced.
	e.SetRelayInput("in")
	var got []stream.Tuple
	e.OnOutput(func(_ string, tp stream.Tuple) { got = append(got, tp) })
	const traced = 3
	in := make([]stream.Tuple, 8)
	for i := range in {
		in[i] = tuple(int64(i), int64(10*i))
		in[i].Seq, in[i].TS = uint64(i+1), clk.Now()
	}
	sp := tr.Sample(in[traced].TS)
	in[traced].Span = sp
	e.IngestTrain("in", in)
	// Step 1: f's prefix chains through m, the traced tuple and the
	// suffix queue at m. Step 2: m runs them, the traced tuple alone.
	if steps := e.Run(); steps != 2 {
		t.Fatalf("ran %d steps, want 2 (f's train, then m's queued remainder)", steps)
	}
	if len(got) != len(in) {
		t.Fatalf("delivered %d of %d", len(got), len(in))
	}
	for i, tp := range got {
		if tp.Seq != uint64(i+1) || tp.Field(1).AsInt() != int64(10*i+1) {
			t.Fatalf("delivery %d is seq %d B=%d, want seq %d B=%d", i, tp.Seq, tp.Field(1).AsInt(), i+1, 10*i+1)
		}
		if (tp.Span != nil) != (i == traced) {
			t.Fatalf("delivery %d span %v: only tuple %d is traced", i, tp.Span, traced)
		}
	}
	if !sp.Done() {
		t.Fatal("the traced tuple's span did not complete")
	}
	q, p, nn := sp.Components()
	if q+p+nn != sp.Total() {
		t.Errorf("span decomposition %d+%d+%d != total %d", q, p, nn, sp.Total())
	}
	if st, _ := e.Stats("m"); st.Processed != int64(len(in)) {
		t.Errorf("m processed %d, want %d", st.Processed, len(in))
	}
}
