package op

import (
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

// TestTumblePaperExampleAvg reproduces §2.2 verbatim: a Tumble with
// aggregate avg(B) and group-by A over the Figure 2 stream emits
// (A=1, 2.5) upon tuple #3 and (A=2, 3.0) upon tuple #6, with a third
// window (A=4) still in progress after all seven tuples.
func TestTumblePaperExampleAvg(t *testing.T) {
	tb := NewTumble(Avg, NewCol("B"), []string{"A"})
	if _, err := tb.Bind([]*stream.Schema{fig2Schema}); err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	in := fig2Stream()
	for i, tp := range in {
		tb.Process(0, tp, c.emit)
		switch i {
		case 1: // after tuple #2 nothing is out yet
			if len(c.out(0)) != 0 {
				t.Fatalf("premature emission after tuple 2: %v", c.out(0))
			}
		case 2: // tuple #3 closes the A=1 window
			if len(c.out(0)) != 1 {
				t.Fatalf("A=1 window should close at tuple 3; out=%v", c.out(0))
			}
		case 5: // tuple #6 closes the A=2 window
			if len(c.out(0)) != 2 {
				t.Fatalf("A=2 window should close at tuple 6; out=%v", c.out(0))
			}
		}
	}
	out := c.out(0)
	want := []stream.Tuple{
		stream.NewTuple(stream.Int(1), stream.Float(2.5)),
		stream.NewTuple(stream.Int(2), stream.Float(3.0)),
	}
	if !stream.TuplesEqualValues(out, want) {
		t.Fatalf("got:\n%swant:\n%s", stream.FormatTuples(out), stream.FormatTuples(want))
	}
	// The A=4 window is open; Flush drains it (avg of 5, 2 = 3.5).
	tb.Flush(c.emit)
	out = c.out(0)
	if len(out) != 3 || !out[2].EqualValues(stream.NewTuple(stream.Int(4), stream.Float(3.5))) {
		t.Fatalf("flush output wrong:\n%s", stream.FormatTuples(out))
	}
}

// TestTumblePaperExampleCnt pins the §5.1 split example's unsplit side:
// Tumble(cnt, group-by A) over the Figure 2 stream emits (A=1, 2) and
// (A=2, 3).
func TestTumblePaperExampleCnt(t *testing.T) {
	tb := NewTumble(Cnt, NewCol("B"), []string{"A"})
	out := feed(t, tb, fig2Schema, fig2Stream())
	want := []stream.Tuple{
		stream.NewTuple(stream.Int(1), stream.Int(2)),
		stream.NewTuple(stream.Int(2), stream.Int(3)),
		stream.NewTuple(stream.Int(4), stream.Int(2)), // flushed
	}
	if !stream.TuplesEqualValues(out, want) {
		t.Fatalf("got:\n%swant:\n%s", stream.FormatTuples(out), stream.FormatTuples(want))
	}
}

func TestTumbleInterleavedGroupsReopenWindows(t *testing.T) {
	// Consecutive-run semantics: A=1 tuples separated by an A=2 tuple
	// form two distinct windows.
	in := []stream.Tuple{
		stream.NewTuple(stream.Int(1), stream.Int(10)),
		stream.NewTuple(stream.Int(2), stream.Int(20)),
		stream.NewTuple(stream.Int(1), stream.Int(30)),
	}
	tb := NewTumble(Cnt, NewCol("B"), []string{"A"})
	out := feed(t, tb, fig2Schema, in)
	want := []stream.Tuple{
		stream.NewTuple(stream.Int(1), stream.Int(1)),
		stream.NewTuple(stream.Int(2), stream.Int(1)),
		stream.NewTuple(stream.Int(1), stream.Int(1)),
	}
	if !stream.TuplesEqualValues(out, want) {
		t.Fatalf("got:\n%s", stream.FormatTuples(out))
	}
}

func TestTumbleMultiGroupBy(t *testing.T) {
	s := stream.MustSchema("s3",
		stream.Field{Name: "A", Kind: stream.KindInt},
		stream.Field{Name: "B", Kind: stream.KindInt},
		stream.Field{Name: "C", Kind: stream.KindInt},
	)
	in := []stream.Tuple{
		stream.NewTuple(stream.Int(1), stream.Int(1), stream.Int(5)),
		stream.NewTuple(stream.Int(1), stream.Int(1), stream.Int(7)),
		stream.NewTuple(stream.Int(1), stream.Int(2), stream.Int(9)),
	}
	tb := NewTumble(Sum, NewCol("C"), []string{"A", "B"})
	out := feed(t, tb, s, in)
	want := []stream.Tuple{
		stream.NewTuple(stream.Int(1), stream.Int(1), stream.Int(12)),
		stream.NewTuple(stream.Int(1), stream.Int(2), stream.Int(9)),
	}
	if !stream.TuplesEqualValues(out, want) {
		t.Fatalf("got:\n%s", stream.FormatTuples(out))
	}
}

func TestTumbleOutputSchema(t *testing.T) {
	tb := NewTumble(Cnt, NewCol("B"), []string{"A"})
	schemas, err := tb.Bind([]*stream.Schema{fig2Schema})
	if err != nil {
		t.Fatal(err)
	}
	out := schemas[0]
	if out.Arity() != 2 || out.Field(0).Name != "A" || out.Field(1).Name != ResultField {
		t.Fatalf("schema = %s", out)
	}
	if out.Field(1).Kind != stream.KindInt {
		t.Errorf("cnt result kind = %v, want int", out.Field(1).Kind)
	}
	// avg produces float results.
	tb2 := NewTumble(Avg, NewCol("B"), []string{"A"})
	schemas, err = tb2.Bind([]*stream.Schema{fig2Schema})
	if err != nil {
		t.Fatal(err)
	}
	if schemas[0].Field(1).Kind != stream.KindFloat {
		t.Error("avg result kind should be float")
	}
}

func TestTumbleDependencySeq(t *testing.T) {
	// The emitted tuple carries the Seq of the earliest contributing
	// tuple, which is what the HA flow-message protocol records for
	// stateful boxes (§6.2 footnote).
	tb := NewTumble(Cnt, NewCol("B"), []string{"A"})
	if _, err := tb.Bind([]*stream.Schema{fig2Schema}); err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	for _, tp := range fig2Stream() {
		tb.Process(0, tp, c.emit)
	}
	if c.out(0)[0].Seq != 1 {
		t.Errorf("first window Seq = %d, want 1 (earliest contributor)", c.out(0)[0].Seq)
	}
	if c.out(0)[1].Seq != 3 {
		t.Errorf("second window Seq = %d, want 3", c.out(0)[1].Seq)
	}
}

func TestTumbleBindErrors(t *testing.T) {
	if _, err := NewTumble(Cnt, NewCol("B"), []string{"ghost"}).Bind([]*stream.Schema{fig2Schema}); err == nil {
		t.Error("unknown group-by should fail")
	}
	if _, err := NewTumble(Cnt, NewCol("ghost"), []string{"A"}).Bind([]*stream.Schema{fig2Schema}); err == nil {
		t.Error("unknown on-column should fail")
	}
}

func TestTumbleBuildErrors(t *testing.T) {
	cases := []map[string]string{
		{"on": "B", "groupby": "A"},                 // missing agg
		{"agg": "bogus", "on": "B", "groupby": "A"}, // unknown agg
		{"agg": "cnt", "groupby": "A"},              // missing on
		{"agg": "cnt", "on": "((", "groupby": "A"},  // bad expr
		{"agg": "cnt", "on": "B"},                   // missing groupby
	}
	for _, params := range cases {
		if _, err := Build(Spec{Kind: "tumble", Params: params}); err == nil {
			t.Errorf("Build(tumble %v) should fail", params)
		}
	}
}

// TestTumbleFlushIdempotent ensures a drained Tumble emits nothing more,
// which the drain/stabilize protocol relies on.
func TestTumbleFlushIdempotent(t *testing.T) {
	tb := NewTumble(Cnt, NewCol("B"), []string{"A"})
	if _, err := tb.Bind([]*stream.Schema{fig2Schema}); err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	tb.Process(0, fig2Stream()[0], c.emit)
	tb.Flush(c.emit)
	tb.Flush(c.emit)
	if len(c.out(0)) != 1 {
		t.Errorf("double flush emitted %d tuples, want 1", len(c.out(0)))
	}
}

// TestTumbleCntEqualsLengthProperty: over a random single-group stream,
// Tumble(cnt) emits exactly one window whose count is the stream length.
func TestTumbleCntEqualsLengthProperty(t *testing.T) {
	f := func(bs []int8) bool {
		if len(bs) == 0 {
			return true
		}
		in := make([]stream.Tuple, len(bs))
		for i, b := range bs {
			in[i] = stream.NewTuple(stream.Int(1), stream.Int(int64(b)))
		}
		tb := NewTumble(Cnt, NewCol("B"), []string{"A"})
		if _, err := tb.Bind([]*stream.Schema{fig2Schema}); err != nil {
			return false
		}
		c := newCollector()
		for _, tp := range in {
			tb.Process(0, tp, c.emit)
		}
		tb.Flush(c.emit)
		out := c.out(0)
		return len(out) == 1 && out[0].Field(1).AsInt() == int64(len(bs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTumbleMaxMinNanosecondTimestamps: max and min over unix-ns
// timestamps 1 ns apart keep the true extreme, though all three share a
// float64 image — on Process and on the compiled kernel alike.
func TestTumbleMaxMinNanosecondTimestamps(t *testing.T) {
	const ts = int64(1760000000000000000)
	in := []stream.Tuple{
		stream.NewTuple(stream.Int(1), stream.Int(ts)),
		stream.NewTuple(stream.Int(1), stream.Int(ts+1)),
		stream.NewTuple(stream.Int(1), stream.Int(ts-1)),
	}
	for _, c := range []struct {
		agg  Aggregate
		want int64
	}{{Max, ts + 1}, {Min, ts - 1}} {
		out := feed(t, NewTumble(c.agg, NewCol("B"), []string{"A"}), fig2Schema, in)
		kernel := NewTumble(c.agg, NewCol("B"), []string{"A"})
		if _, err := kernel.Bind([]*stream.Schema{fig2Schema}); err != nil {
			t.Fatal(err)
		}
		col := newCollector()
		kernel.ProcessTrain(0, in, col.emit)
		kernel.Flush(col.emit)
		for path, got := range map[string][]stream.Tuple{"Process": out, "ProcessTrain": col.out(0)} {
			if len(got) != 1 || got[0].Field(1).AsInt() != c.want {
				t.Errorf("%s %s(T) = %v, want %d", path, c.agg.Name(), got, c.want)
			}
		}
	}
}
