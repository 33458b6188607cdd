package op

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stream"
)

func TestWSortFlushSortsEverything(t *testing.T) {
	w := NewWSort([]string{"A"}, 1_000_000) // "large enough timeout"
	in := []stream.Tuple{
		stream.NewTuple(stream.Int(3), stream.Int(0)),
		stream.NewTuple(stream.Int(1), stream.Int(1)),
		stream.NewTuple(stream.Int(2), stream.Int(2)),
		stream.NewTuple(stream.Int(1), stream.Int(3)),
	}
	out := feed(t, w, fig2Schema, in)
	if len(out) != 4 {
		t.Fatalf("got %d tuples", len(out))
	}
	wantA := []int64{1, 1, 2, 3}
	for i, tp := range out {
		if tp.Field(0).AsInt() != wantA[i] {
			t.Fatalf("position %d: A=%d, want %d\n%s", i, tp.Field(0).AsInt(), wantA[i], stream.FormatTuples(out))
		}
	}
	// Stability: the two A=1 tuples keep arrival order (B=1 then B=3).
	if out[0].Field(1).AsInt() != 1 || out[1].Field(1).AsInt() != 3 {
		t.Error("WSort flush must be stable within equal keys")
	}
}

func TestWSortTimeoutEmitsMinimum(t *testing.T) {
	w := NewWSort([]string{"A"}, 10)
	if _, err := w.Bind([]*stream.Schema{fig2Schema}); err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	w.Advance(0, c.emit) // arms the deadline at t=10
	w.Process(0, stream.NewTuple(stream.Int(5), stream.Int(0)), c.emit)
	w.Process(0, stream.NewTuple(stream.Int(2), stream.Int(1)), c.emit)
	if len(c.out(0)) != 0 {
		t.Fatal("nothing should be emitted before the timeout")
	}
	w.Advance(10, c.emit)
	out := c.out(0)
	if len(out) != 1 || out[0].Field(0).AsInt() != 2 {
		t.Fatalf("timeout should emit the minimum-key tuple; got %v", out)
	}
	// The next period emits the next minimum.
	w.Advance(20, c.emit)
	out = c.out(0)
	if len(out) != 2 || out[1].Field(0).AsInt() != 5 {
		t.Fatalf("second timeout output wrong: %v", out)
	}
	// Empty buffer: advancing past further deadlines emits nothing.
	w.Advance(100, c.emit)
	if len(c.out(0)) != 2 {
		t.Error("empty-buffer timeouts must not emit")
	}
}

func TestWSortLossyDiscard(t *testing.T) {
	// A tuple arriving after a later tuple (in sort order) has been
	// emitted must be discarded (§2.2 footnote).
	w := NewWSort([]string{"A"}, 10)
	if _, err := w.Bind([]*stream.Schema{fig2Schema}); err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	w.Advance(0, c.emit)
	w.Process(0, stream.NewTuple(stream.Int(5), stream.Int(0)), c.emit)
	w.Advance(10, c.emit) // emits A=5
	w.Process(0, stream.NewTuple(stream.Int(3), stream.Int(1)), c.emit)
	w.Flush(c.emit)
	out := c.out(0)
	if len(out) != 1 {
		t.Fatalf("late tuple should be dropped; out=%v", out)
	}
	if w.Lost() != 1 {
		t.Errorf("Lost = %d, want 1", w.Lost())
	}
	// Equal keys are not "later" and must not be dropped.
	w.Process(0, stream.NewTuple(stream.Int(5), stream.Int(2)), c.emit)
	w.Flush(c.emit)
	if len(c.out(0)) != 2 {
		t.Error("equal-key arrival after emission must be kept")
	}
}

func TestWSortMaxBufForcesEmission(t *testing.T) {
	o := MustBuild(Spec{Kind: "wsort", Params: map[string]string{
		"attrs": "A", "timeout": "1000000", "maxbuf": "2",
	}})
	if _, err := o.Bind([]*stream.Schema{fig2Schema}); err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	o.Process(0, stream.NewTuple(stream.Int(3), stream.Int(0)), c.emit)
	o.Process(0, stream.NewTuple(stream.Int(1), stream.Int(1)), c.emit)
	o.Process(0, stream.NewTuple(stream.Int(2), stream.Int(2)), c.emit)
	if len(c.out(0)) != 1 || c.out(0)[0].Field(0).AsInt() != 1 {
		t.Fatalf("overflow should force the minimum out: %v", c.out(0))
	}
}

func TestWSortMultiAttribute(t *testing.T) {
	w := NewWSort([]string{"A", "B"}, 1_000_000)
	in := []stream.Tuple{
		stream.NewTuple(stream.Int(2), stream.Int(1)),
		stream.NewTuple(stream.Int(1), stream.Int(9)),
		stream.NewTuple(stream.Int(1), stream.Int(4)),
	}
	out := feed(t, w, fig2Schema, in)
	want := [][2]int64{{1, 4}, {1, 9}, {2, 1}}
	for i, tp := range out {
		if tp.Field(0).AsInt() != want[i][0] || tp.Field(1).AsInt() != want[i][1] {
			t.Fatalf("order wrong:\n%s", stream.FormatTuples(out))
		}
	}
}

func TestWSortRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		in := make([]stream.Tuple, n)
		keys := make([]int64, n)
		for i := range in {
			k := int64(rng.Intn(50))
			keys[i] = k
			in[i] = stream.NewTuple(stream.Int(k), stream.Int(int64(i)))
		}
		w := NewWSort([]string{"A"}, 1_000_000)
		out := feed(t, w, fig2Schema, in)
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		if len(out) != n {
			t.Fatalf("trial %d: lost tuples without emission", trial)
		}
		for i, tp := range out {
			if tp.Field(0).AsInt() != keys[i] {
				t.Fatalf("trial %d: flush order diverges from sort at %d", trial, i)
			}
		}
	}
}

func TestWSortBuildValidation(t *testing.T) {
	if _, err := Build(Spec{Kind: "wsort", Params: map[string]string{"attrs": "A", "timeout": "0"}}); err == nil {
		t.Error("timeout <= 0 should fail")
	}
	if _, err := Build(Spec{Kind: "wsort", Params: map[string]string{"timeout": "5"}}); err == nil {
		t.Error("missing attrs should fail")
	}
	w := NewWSort([]string{"ghost"}, 5)
	if _, err := w.Bind([]*stream.Schema{fig2Schema}); err == nil {
		t.Error("unknown attr should fail at bind")
	}
}

// TestWSortNanosecondKeys: WSort orders unix-ns keys exactly, though keys
// within 256 ns of each other share a float64 image.
func TestWSortNanosecondKeys(t *testing.T) {
	const ts = int64(1760000000000000000)
	var in []stream.Tuple
	for i, off := range []int64{3, 1, 2, 0} {
		in = append(in, stream.NewTuple(stream.Int(ts+off), stream.Int(int64(i))))
	}
	out := feed(t, NewWSort([]string{"A"}, 1_000_000), fig2Schema, in)
	if len(out) != 4 {
		t.Fatalf("got %d tuples, want 4", len(out))
	}
	for i, tp := range out {
		if got := tp.Field(0).AsInt() - ts; got != int64(i) {
			t.Fatalf("position %d holds T+%d:\n%s", i, got, stream.FormatTuples(out))
		}
	}
}
