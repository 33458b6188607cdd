package op

import (
	"testing"

	"repro/internal/stream"
)

func seqTuples(group int64, bs ...int64) []stream.Tuple {
	out := make([]stream.Tuple, len(bs))
	for i, b := range bs {
		out[i] = stream.NewTuple(stream.Int(group), stream.Int(b))
	}
	return out
}

func TestXSectionTumblingWindows(t *testing.T) {
	// size == advance: non-overlapping count windows.
	x := NewXSection(Sum, NewCol("B"), []string{"A"}, 2, 2)
	out := feed(t, x, fig2Schema, seqTuples(1, 1, 2, 3, 4, 5))
	want := []stream.Tuple{
		stream.NewTuple(stream.Int(1), stream.Int(3)), // 1+2
		stream.NewTuple(stream.Int(1), stream.Int(7)), // 3+4
	}
	// The trailing incomplete window (just 5) is discarded.
	if !stream.TuplesEqualValues(out, want) {
		t.Fatalf("got:\n%s", stream.FormatTuples(out))
	}
}

func TestXSectionOverlappingWindows(t *testing.T) {
	x := NewXSection(Sum, NewCol("B"), []string{"A"}, 3, 1)
	out := feed(t, x, fig2Schema, seqTuples(1, 1, 2, 3, 4))
	want := []stream.Tuple{
		stream.NewTuple(stream.Int(1), stream.Int(6)), // 1+2+3
		stream.NewTuple(stream.Int(1), stream.Int(9)), // 2+3+4
	}
	if !stream.TuplesEqualValues(out, want) {
		t.Fatalf("got:\n%s", stream.FormatTuples(out))
	}
}

func TestXSectionPerGroupWindows(t *testing.T) {
	x := NewXSection(Cnt, NewCol("B"), []string{"A"}, 2, 2)
	in := append(seqTuples(1, 1), append(seqTuples(2, 9), seqTuples(1, 2)...)...)
	out := feed(t, x, fig2Schema, in)
	// Group 1 completes one window of 2; group 2 never completes.
	want := []stream.Tuple{stream.NewTuple(stream.Int(1), stream.Int(2))}
	if !stream.TuplesEqualValues(out, want) {
		t.Fatalf("got:\n%s", stream.FormatTuples(out))
	}
}

func TestXSectionValidation(t *testing.T) {
	for _, params := range []map[string]string{
		{"agg": "sum", "on": "B", "groupby": "A", "size": "0"},
		{"agg": "sum", "on": "B", "groupby": "A", "size": "2", "advance": "0"},
		{"agg": "nope", "on": "B", "groupby": "A", "size": "2"},
	} {
		if _, err := Build(Spec{Kind: "xsection", Params: params}); err == nil {
			t.Errorf("Build(xsection %v) should fail", params)
		}
	}
}

func TestSlideTrailingWindow(t *testing.T) {
	// range=10 over order attribute B: each emission aggregates the
	// trailing window (B-10, B].
	sl := NewSlide(Sum, NewCol("B"), []string{"A"}, "B", 10)
	out := feed(t, sl, fig2Schema, seqTuples(1, 1, 5, 11, 20))
	// Windows (order - 10, order]: {1}, {1,5}, {5,11} (1 pruned),
	// {11,20} (5 pruned since 5 <= 20-10).
	wantSums := []int64{1, 6, 16, 31}
	if len(out) != len(wantSums) {
		t.Fatalf("got %d outputs:\n%s", len(out), stream.FormatTuples(out))
	}
	for i, tp := range out {
		if got := tp.Field(2).AsInt(); got != wantSums[i] {
			t.Errorf("window %d sum = %d, want %d", i, got, wantSums[i])
		}
	}
}

// TestSlideIntOrderNanosecondEdge: an int order column holding unix-ns
// timestamps is compared as int64, so tuples 1 ns either side of a window
// edge land on the right side of it. Above 2^53 float64 rounds to
// multiples of 256 here, which once pruned a tuple 999 ns old from a
// 1000 ns window.
func TestSlideIntOrderNanosecondEdge(t *testing.T) {
	const base = int64(1_700_000_000_000_000_000)
	build := func(rng string) Operator {
		o, err := Build(Spec{Kind: "slide", Params: map[string]string{
			"agg": "cnt", "on": "B", "groupby": "A", "order": "B", "range": rng,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	cases := []struct {
		name  string
		rng   string
		order []int64
		want  []int64 // window count at each emission
	}{
		{"1ns inside the edge", "1000", []int64{base, base + 999}, []int64{1, 2}},
		{"on the edge", "1000", []int64{base, base + 1000}, []int64{1, 1}},
		{"1ns past the edge", "1000", []int64{base, base + 1001}, []int64{1, 1}},
		{"range past 2^53", "9007199254740993", []int64{base, base + 9007199254740992}, []int64{1, 2}},
		{"fractional range rounds up", "2.5", []int64{1, 3, 4}, []int64{1, 2, 2}},
	}
	for _, c := range cases {
		out := feed(t, build(c.rng), fig2Schema, seqTuples(1, c.order...))
		if len(out) != len(c.want) {
			t.Fatalf("%s: %d outputs, want %d", c.name, len(out), len(c.want))
		}
		for i, tp := range out {
			if tp.Field(1).AsInt() != c.order[i] {
				t.Errorf("%s: emission %d carries order %d, want %d", c.name, i, tp.Field(1).AsInt(), c.order[i])
			}
			if got := tp.Field(2).AsInt(); got != c.want[i] {
				t.Errorf("%s: emission %d window count = %d, want %d", c.name, i, got, c.want[i])
			}
		}
	}
}

// TestSlideFloatOrder: a float order column keeps float semantics.
func TestSlideFloatOrder(t *testing.T) {
	schema := stream.MustSchema("f",
		stream.Field{Name: "A", Kind: stream.KindInt},
		stream.Field{Name: "T", Kind: stream.KindFloat})
	sl := NewSlide(Cnt, NewCol("T"), []string{"A"}, "T", 2.5)
	var in []stream.Tuple
	for _, v := range []float64{1.0, 3.4, 3.5, 3.75} {
		in = append(in, stream.NewTuple(stream.Int(1), stream.Float(v)))
	}
	out := feed(t, sl, schema, in)
	// (T-2.5, T]: {1.0}, {1.0, 3.4}, {3.4, 3.5} (1.0 <= 1.0 pruned),
	// {3.4, 3.5, 3.75}.
	want := []int64{1, 2, 2, 3}
	if len(out) != len(want) {
		t.Fatalf("got %d outputs:\n%s", len(out), stream.FormatTuples(out))
	}
	for i, tp := range out {
		if got := tp.Field(2).AsInt(); got != want[i] {
			t.Errorf("emission %d count = %d, want %d", i, got, want[i])
		}
	}
}

func TestSlidePerGroup(t *testing.T) {
	sl := NewSlide(Cnt, NewCol("B"), []string{"A"}, "B", 100)
	in := []stream.Tuple{
		stream.NewTuple(stream.Int(1), stream.Int(1)),
		stream.NewTuple(stream.Int(2), stream.Int(2)),
		stream.NewTuple(stream.Int(1), stream.Int(3)),
	}
	out := feed(t, sl, fig2Schema, in)
	wantCounts := []int64{1, 1, 2}
	for i, tp := range out {
		if got := tp.Field(2).AsInt(); got != wantCounts[i] {
			t.Errorf("emission %d count = %d, want %d", i, got, wantCounts[i])
		}
	}
}

func TestSlideOutputSchema(t *testing.T) {
	sl := NewSlide(Max, NewCol("B"), []string{"A"}, "B", 10)
	schemas, err := sl.Bind([]*stream.Schema{fig2Schema})
	if err != nil {
		t.Fatal(err)
	}
	out := schemas[0]
	if out.Arity() != 3 || out.Field(0).Name != "A" || out.Field(1).Name != "B" || out.Field(2).Name != ResultField {
		t.Fatalf("schema = %s", out)
	}
}

func TestSlideValidation(t *testing.T) {
	for _, rng := range []string{"-1", "0", "10abc", "NaN", "+Inf", ""} {
		if _, err := Build(Spec{Kind: "slide", Params: map[string]string{
			"agg": "sum", "on": "B", "groupby": "A", "order": "B", "range": rng,
		}}); err == nil {
			t.Errorf("range %q should fail", rng)
		}
	}
	sl := NewSlide(Sum, NewCol("B"), []string{"A"}, "ghost", 5)
	if _, err := sl.Bind([]*stream.Schema{fig2Schema}); err == nil {
		t.Error("unknown order attribute should fail at bind")
	}
}
