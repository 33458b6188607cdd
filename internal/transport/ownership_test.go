package transport

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/ha"
	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stream"
)

// Ownership across the receive edge. The read loop decodes every frame
// into the connection's scratch Msg with pool-owned Vals, and a handler
// that ingests the tuples hands those arrays to the engine, which recycles
// each where its tuple dies. Each test here sends such frames through one
// path a tuple can take from the socket — an HA replay that dedup trims,
// shedding at ingest, one input feeding two boxes, a box that passes its
// input straight to an output, a split box's admission, a Tumble emitting
// pooled windows, a three-way fan-out — and checks every value the
// retaining side sees. Frames are many, so recycled arrays are drawn
// again by later frames and by the boxes' own emissions. Under the
// poolcheck tag a recycled array is poisoned instead, and reading one
// panics, naming the site that gave it up.

// kabSchema is the frames' schema: K groups runs of four, A is the tuple's
// link sequence and B = 3A.
var kabSchema = stream.MustSchema("in",
	stream.Field{Name: "K", Kind: stream.KindInt},
	stream.Field{Name: "A", Kind: stream.KindInt},
	stream.Field{Name: "B", Kind: stream.KindInt},
)

// kabTuples returns n tuples with link sequences from base on.
func kabTuples(base uint64, n int) []stream.Tuple {
	ts := make([]stream.Tuple, n)
	for i := range ts {
		s := base + uint64(i)
		ts[i] = stream.Tuple{Seq: s, TS: int64(s), Vals: []stream.Value{
			stream.Int(int64(s-1) / 4), stream.Int(int64(s)), stream.Int(3 * int64(s))}}
	}
	return ts
}

// kabFrame encodes an HA-framed data frame of kabTuples(base, n).
func kabFrame(base uint64, n int) []byte {
	return Encode(nil, Msg{Stream: "in", Kind: KindData, BaseSeq: base,
		Tuples: kabTuples(base, n), Ctrl: ha.LinkBatchCtrl()})
}

// kabFrames encodes count consecutive frames of n tuples from sequence 1.
func kabFrames(count, n int) [][]byte {
	out := make([][]byte, count)
	for i := range out {
		out[i] = kabFrame(uint64(i*n+1), n)
	}
	return out
}

// receive runs encoded frames through the read loop's own per-frame path:
// decodeFrame into one reused Msg and draw slice, the handler, then the end
// of the scratch's loan. Every tuple reaches handle pool-owned, exactly as
// from a socket.
func receive(t *testing.T, frames [][]byte, handle func(Msg)) {
	t.Helper()
	var (
		m    Msg
		draw [][]stream.Value
	)
	for i, f := range frames {
		if _, err := decodeFrame(&m, f, &draw); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		for j := range m.Tuples {
			if !m.Tuples[j].Pooled() {
				t.Fatalf("frame %d: decoded tuple %d is not pool-owned", i, j)
			}
		}
		handle(m)
		m.Tuples = stream.PoisonScratch(m.Tuples)
	}
}

func mapBox(exprs string) op.Spec {
	return op.Spec{Kind: "map", Params: map[string]string{"exprs": exprs}}
}

func filterBox(pred string) op.Spec {
	return op.Spec{Kind: "filter", Params: map[string]string{"predicate": pred}}
}

// ownEngine builds a wall-clock engine over b's network with a retaining
// output hook: it keeps a copy of every run, as the hook's contract
// allows, and returns what it kept per output.
func ownEngine(t *testing.T, b *query.Builder, cfg engine.Config) (*engine.Engine, map[string][]stream.Tuple) {
	t.Helper()
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string][]stream.Tuple{}
	e.OnOutputTrain(func(name string, ts []stream.Tuple) { kept[name] = append(kept[name], ts...) })
	return e, kept
}

// ingest is the plain handler: one frame, one IngestTrain, run to idle.
func ingest(e *engine.Engine) func(Msg) {
	return func(m Msg) {
		e.IngestTrain(m.Stream, m.Tuples)
		e.Run()
	}
}

// checkKAB fails unless every tuple is disowned and carries column col
// equal to f of its key column key, A ascending from 1 when ordered.
func checkKAB(t *testing.T, what string, ts []stream.Tuple, want int, key, col int, f func(k int64) int64) {
	t.Helper()
	if len(ts) != want {
		t.Fatalf("%s: kept %d tuples, want %d", what, len(ts), want)
	}
	for i, tp := range ts {
		if tp.Pooled() {
			t.Fatalf("%s: kept tuple %d is still pool-owned", what, i)
		}
		k, v := tp.Field(key), tp.Field(col)
		if k.Kind() != stream.KindInt || v.Kind() != stream.KindInt || v.AsInt() != f(k.AsInt()) {
			t.Fatalf("%s: tuple %d is %s, want column %d = f(column %d) (a recycled Vals array was read)",
				what, i, tp, col, key)
		}
	}
}

// checkAB checks B = 3A + add on K, A, B tuples.
func checkAB(t *testing.T, what string, ts []stream.Tuple, want int, add int64) {
	t.Helper()
	checkKAB(t, what, ts, want, 1, 2, func(a int64) int64 { return 3*a + add })
}

// TestOwnershipRecvDedupReplay: an HA receiver admits a reconnect replay
// that overlaps what it already delivered. Dedup compacts the frame in
// place, so the scratch slots behind the admitted prefix hold both the
// suppressed duplicates and stale copies of admitted tuples, whose arrays
// the engine now owns. The suppressed tuples go to the garbage collector:
// recycling what dedup dropped (the slots past the admitted prefix) would
// recycle arrays still queued for the Map.
func TestOwnershipRecvDedupReplay(t *testing.T) {
	e, kept := ownEngine(t, query.NewBuilder("own-dedup").
		AddBox("m", mapBox("K=K; A=A; B=(B + 1)")).
		BindInput("in", kabSchema, "m", 0).
		BindOutput("out", "m", 0, nil), engine.Config{})
	r := ha.NewLinkReceiverTrain(func(ts []stream.Tuple) { e.IngestTrain("in", ts) }, nil, 0)
	frames := [][]byte{
		kabFrame(1, 32), kabFrame(33, 32),
		kabFrame(17, 64), // 17..64 again, then 65..80 fresh
		kabFrame(81, 32),
	}
	receive(t, frames, func(m Msg) {
		r.OnBatch(m.Tuples)
		e.Run()
	})
	if got := r.Suppressed(); got != 48 {
		t.Fatalf("dedup suppressed %d, want 48", got)
	}
	out := kept["out"]
	checkAB(t, "out", out, 112, 1)
	for i, tp := range out {
		if a := tp.Field(1).AsInt(); a != int64(i+1) {
			t.Fatalf("out: tuple %d has A=%d, want %d", i, a, i+1)
		}
	}
}

// TestOwnershipRecvShed: the shedder drops about half of each frame at
// ingest. IngestTrain compacts the admitted tuples to the front of the
// caller's slice; a shed tuple's array goes to the garbage collector, and
// the slots past the admitted prefix are stale copies of queued tuples,
// never the engine's to recycle.
func TestOwnershipRecvShed(t *testing.T) {
	e, kept := ownEngine(t, query.NewBuilder("own-shed").
		AddBox("m", mapBox("K=K; A=A; B=(B + 1)")).
		BindInput("in", kabSchema, "m", 0).
		BindOutput("out", "m", 0, nil),
		engine.Config{Shed: &engine.ShedConfig{Mode: engine.ShedRandom,
			QueueHigh: 1, StepUp: 0.5, MaxDrop: 0.5, Seed: 7}})
	// A frame longer than one train leaves a backlog behind the first
	// Step, which engages the shedder for the frames after it.
	const total = 6 * 160
	receive(t, kabFrames(6, 160), ingest(e))
	shed := int(e.Shedder().Dropped())
	if shed == 0 || shed == total {
		t.Fatalf("shed %d of %d; the case needs both shed and admitted tuples", shed, total)
	}
	checkAB(t, "out", kept["out"], total-shed, 1)
}

// TestOwnershipRecvInputFanOut: one input feeds two consuming boxes. Both
// queues hold the same arrays, so IngestTrain's delivery must disown them
// before the fan-out, or the first Map to run recycles what the second
// still has to read.
func TestOwnershipRecvInputFanOut(t *testing.T) {
	e, kept := ownEngine(t, query.NewBuilder("own-infan").
		AddBox("m1", mapBox("K=K; A=A; B=(B + 1)")).
		AddBox("m2", mapBox("K=K; A=A; B=(B + 2)")).
		BindInput("in", kabSchema, "m1", 0).
		BindInput("in", kabSchema, "m2", 0).
		BindOutput("out1", "m1", 0, nil).
		BindOutput("out2", "m2", 0, nil), engine.Config{})
	receive(t, kabFrames(8, 32), ingest(e))
	checkAB(t, "out1", kept["out1"], 256, 1)
	checkAB(t, "out2", kept["out2"], 256, 2)
}

// TestOwnershipRecvPassThrough: a box that passes its input through (a
// filter every tuple satisfies) delivers the decoded arrays themselves to
// an output. With the hook, the hook may keep them, so they reach it
// disowned. Without one, the output is where they die and go back to the
// pool — but only the pool-owned ones: a train the caller built itself and
// still holds goes through the same path and must come back untouched.
func TestOwnershipRecvPassThrough(t *testing.T) {
	build := func() *query.Builder {
		return query.NewBuilder("own-pass").
			AddBox("f", filterBox("A > 0")).
			BindInput("in", kabSchema, "f", 0).
			BindOutput("out", "f", 0, nil)
	}
	t.Run("hook", func(t *testing.T) {
		e, kept := ownEngine(t, build(), engine.Config{})
		receive(t, kabFrames(8, 32), ingest(e))
		checkAB(t, "out", kept["out"], 256, 0)
	})
	t.Run("no hook", func(t *testing.T) {
		e, _ := ownEngine(t, build(), engine.Config{})
		e.OnOutputTrain(nil)
		own := kabTuples(1001, 32)
		receive(t, kabFrames(8, 32), func(m Msg) {
			e.IngestTrain("in", m.Tuples)
			e.IngestTrain("in", append([]stream.Tuple(nil), own...))
			e.Run()
		})
		if got := e.Metrics().Counter("engine.delivered").Value(); got != 8*(32+32) {
			t.Fatalf("delivered %d, want %d", got, 8*(32+32))
		}
		// The engine never owned these arrays, so the output left them be.
		checkAB(t, "caller's train", own, 32, 0)
	})
}

// TestOwnershipRecvSplit: the consuming box is split two ways, so each
// decoded tuple is admitted to one replica's queue by key and recycled by
// that replica's Map; the caller's frame is scratch the moment IngestTrain
// returns, and the queued copies are the only owners.
func TestOwnershipRecvSplit(t *testing.T) {
	e, kept := ownEngine(t, query.NewBuilder("own-split").
		AddBox("m", mapBox("K=K; A=A; B=(B + 1)")).
		BindInput("in", kabSchema, "m", 0).
		BindOutput("out", "m", 0, nil), engine.Config{})
	if err := e.SplitBox("m", 2); err != nil {
		t.Fatal(err)
	}
	receive(t, kabFrames(8, 32), ingest(e))
	checkAB(t, "out", kept["out"], 256, 1)
}

// TestOwnershipRecvTumble: a Tumble consumes the decoded tuples (recycling
// their arrays) and emits each closed window in an array of its own from
// the pool; the windows fan out to two consuming Maps, so they must be
// disowned at the fan-out too.
func TestOwnershipRecvTumble(t *testing.T) {
	e, kept := ownEngine(t, query.NewBuilder("own-tumble").
		AddBox("tb", op.Spec{Kind: "tumble", Params: map[string]string{"agg": "sum", "on": "B", "groupby": "K"}}).
		AddBox("m1", mapBox("K=K; S=(result + 1)")).
		AddBox("m2", mapBox("K=K; S=(result + 2)")).
		Connect("tb", "m1").Connect("tb", "m2").
		BindInput("in", kabSchema, "tb", 0).
		BindOutput("out1", "m1", 0, nil).
		BindOutput("out2", "m2", 0, nil), engine.Config{})
	receive(t, kabFrames(8, 32), ingest(e))
	// Window K holds A = 4K+1 .. 4K+4, so its sum of B = 3A is 48K + 30;
	// the last of the 64 windows is still open.
	for name, add := range map[string]int64{"out1": 1, "out2": 2} {
		checkKAB(t, name, kept[name], 63, 0, 1, func(k int64) int64 { return 48*k + 30 + add })
	}
}

// TestOwnershipRecvFanOut3: a pass-through box fans the decoded arrays out
// to three consuming Maps; without the fan-out's Disown each array would
// be recycled three times.
func TestOwnershipRecvFanOut3(t *testing.T) {
	b := query.NewBuilder("own-fan3").
		AddBox("f", filterBox("A > 0")).
		BindInput("in", kabSchema, "f", 0)
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("m%d", i)
		b.AddBox(id, mapBox(fmt.Sprintf("K=K; A=A; B=(B + %d)", i))).
			Connect("f", id).
			BindOutput(fmt.Sprintf("out%d", i), id, 0, nil)
	}
	e, kept := ownEngine(t, b, engine.Config{})
	receive(t, kabFrames(8, 32), ingest(e))
	for i := 1; i <= 3; i++ {
		checkAB(t, fmt.Sprintf("out%d", i), kept[fmt.Sprintf("out%d", i)], 256, int64(i))
	}
}
