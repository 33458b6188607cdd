package engine

import (
	"testing"

	"repro/internal/query"
	"repro/internal/stream"
)

// Ownership at the engine's Disown sites. A Map emits pool-owned Vals, and
// a consuming box (another Map) returns its inputs' Vals to the pool when
// its train ends. Wherever an emission can outlive that — fanned out to a
// second consumer, retained in a connection point's history, handed to a
// tap or to the output hook — the engine must disown it first, or the
// pool hands the same array out again while someone still reads it. Each
// test feeds several trains, so recycled arrays are drawn again, and
// checks every value the retaining side sees.

// ownTuples returns n tuples (A=i%5, B=i) for the A,B schema.
func ownTuples(from, n int) []stream.Tuple {
	out := make([]stream.Tuple, n)
	for i := range out {
		v := int64(from + i)
		out[i] = stream.Tuple{Seq: uint64(v + 1), TS: v + 1,
			Vals: []stream.Value{stream.Int(v % 5), stream.Int(v)}}
	}
	return out
}

// feedOwn ingests trains of 32 and runs each to idle.
func feedOwn(e *Engine, total int) {
	for from := 0; from < total; from += 32 {
		e.IngestTrain("in", ownTuples(from, 32))
		e.Run()
	}
}

// checkB fails unless ts[i] carries B = f(i) and is no longer pool-owned.
func checkB(t *testing.T, what string, ts []stream.Tuple, f func(i int64) int64) {
	t.Helper()
	for i, tp := range ts {
		if tp.Pooled() {
			t.Fatalf("%s: tuple %d is still pool-owned", what, i)
		}
		if got, want := tp.Field(1), f(int64(i)); got.Kind() != stream.KindInt || got.AsInt() != want {
			t.Fatalf("%s: tuple %d has B=%s, want %d (a recycled Vals array was read)", what, i, got.Format(), want)
		}
	}
}

// TestOwnershipFanOut: a Map fanned out to two consuming Maps. The first
// consumer recycles its inputs' Vals when its train ends; without the
// fan-out's Disown the second consumer would then read zeroed or reused
// arrays, and the array would be recycled twice.
func TestOwnershipFanOut(t *testing.T) {
	n, err := query.NewBuilder("ownfan").
		AddBox("m0", mapSpec("A=A; B=(B * 2)")).
		AddBox("m1", mapSpec("A=A; B=(B + 1)")).
		AddBox("m2", mapSpec("A=A; B=(B + 3)")).
		Connect("m0", "m1").Connect("m0", "m2").
		BindInput("in", tSchema, "m0", 0).
		BindOutput("out1", "m1", 0, nil).
		BindOutput("out2", "m2", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	e := newWallEngine(t, n, Config{})
	s := newSink()
	e.OnOutput(s.fn)
	const total = 256
	feedOwn(e, total)
	for name, add := range map[string]int64{"out1": 1, "out2": 3} {
		got := s.get(name)
		if len(got) != total {
			t.Fatalf("%s delivered %d of %d", name, len(got), total)
		}
		checkB(t, name, got, func(i int64) int64 { return 2*i + add })
	}
}

// ownCPNet is in -> m0 (Map) =CP=> m1 (Map) -> out: a connection point on a
// pooled emitter's output, consumed by a box that recycles its inputs.
func ownCPNet(t *testing.T) *query.Network {
	t.Helper()
	n, err := query.NewBuilder("owncp").
		AddBox("m0", mapSpec("A=A; B=(B * 2)")).
		AddBox("m1", mapSpec("A=A; B=(B + 1)")).
		ConnectPorts(query.Port{Box: "m0"}, query.Port{Box: "m1"}, true).
		BindInput("in", tSchema, "m0", 0).
		BindOutput("out", "m1", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestOwnershipCPReplay: the history behind a connection point retains
// m0's emissions while m1 consumes (and recycles) the same tuples. Without
// the history's Disown an ad hoc query attached later would replay arrays
// that m1 already returned to the pool and m0 has since refilled.
func TestOwnershipCPReplay(t *testing.T) {
	e := newWallEngine(t, ownCPNet(t), Config{})
	e.OnOutput(func(string, stream.Tuple) {})
	const total = 256
	feedOwn(e, total)
	var replay []stream.Tuple
	n, err := e.AttachAdHoc(query.Port{Box: "m0"}, func(tp stream.Tuple) { replay = append(replay, tp) })
	if err != nil {
		t.Fatal(err)
	}
	if n != total || len(replay) != total {
		t.Fatalf("replayed %d (reported %d), want %d", len(replay), n, total)
	}
	checkB(t, "replay", replay, func(i int64) int64 { return 2 * i })
}

// TestOwnershipRetainingTap: a tap on a connection point keeps every live
// tuple it is handed while the consumer behind the arc recycles the same
// tuples. The tuples reach the tap disowned and keep their values. Every
// tapped port carries a history, and the history's Disown runs first on
// the same run, so this case also holds the tap to that ordering.
func TestOwnershipRetainingTap(t *testing.T) {
	e := newWallEngine(t, ownCPNet(t), Config{})
	e.OnOutput(func(string, stream.Tuple) {})
	var kept []stream.Tuple
	if _, err := e.AttachAdHoc(query.Port{Box: "m0"}, func(tp stream.Tuple) { kept = append(kept, tp) }); err != nil {
		t.Fatal(err)
	}
	const total = 256
	feedOwn(e, total)
	if len(kept) != total {
		t.Fatalf("tap kept %d of %d", len(kept), total)
	}
	checkB(t, "tap", kept, func(i int64) int64 { return 2 * i })
}

// TestOwnershipRetainingOutputHook: the output hook may keep the tuples it
// is handed (OutputTrainFn's contract), so they must reach it disowned: a
// retained tuple that still claimed its pooled Vals would hand that array
// to the next Recycle it met. The hook keeps a Map's outputs across trains
// and every one keeps its values.
func TestOwnershipRetainingOutputHook(t *testing.T) {
	n, err := query.NewBuilder("ownhook").
		AddBox("m0", mapSpec("A=A; B=(B * 2)")).
		AddBox("m1", mapSpec("A=A; B=(B + 1)")).
		Connect("m0", "m1").
		BindInput("in", tSchema, "m0", 0).
		BindOutput("out", "m1", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	e := newWallEngine(t, n, Config{})
	var kept []stream.Tuple
	e.OnOutputTrain(func(_ string, ts []stream.Tuple) { kept = append(kept, ts...) })
	const total = 256
	feedOwn(e, total)
	if len(kept) != total {
		t.Fatalf("hook kept %d of %d", len(kept), total)
	}
	checkB(t, "hook", kept, func(i int64) int64 { return 2*i + 1 })
	// Recycling what the hook kept must reclaim nothing: the engine
	// surrendered those arrays to the garbage collector.
	stream.RecycleTrain(kept)
	checkB(t, "hook after recycle", kept, func(i int64) int64 { return 2*i + 1 })
}
