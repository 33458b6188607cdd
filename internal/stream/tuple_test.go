package stream

import (
	"strings"
	"testing"
)

func TestTupleCloneIndependence(t *testing.T) {
	a := NewTuple(Int(1), String("x"))
	b := a.Clone()
	b.Vals[0] = Int(99)
	if a.Vals[0].AsInt() != 1 {
		t.Error("Clone must not alias the value slice")
	}
}

func TestTupleFieldOutOfRange(t *testing.T) {
	tp := NewTuple(Int(1))
	if !tp.Field(5).IsNull() || !tp.Field(-1).IsNull() {
		t.Error("out-of-range Field should be null")
	}
	if tp.Field(0).AsInt() != 1 {
		t.Error("in-range Field wrong")
	}
}

func TestTupleEqualValues(t *testing.T) {
	a := Tuple{Seq: 1, TS: 100, Vals: []Value{Int(1), Float(2.5)}}
	b := Tuple{Seq: 9, TS: 999, Vals: []Value{Int(1), Float(2.5)}}
	if !a.EqualValues(b) {
		t.Error("EqualValues must ignore Seq/TS")
	}
	c := NewTuple(Int(1))
	if a.EqualValues(c) {
		t.Error("different arity must not be equal")
	}
	d := NewTuple(Int(1), Float(2.6))
	if a.EqualValues(d) {
		t.Error("different values must not be equal")
	}
}

func TestTupleKeyOf(t *testing.T) {
	tp := NewTuple(Int(1), String("x"), Int(2))
	if got := tp.KeyOf([]int{0}); got != "1" {
		t.Errorf("single key = %q", got)
	}
	k12 := tp.KeyOf([]int{1, 2})
	k21 := tp.KeyOf([]int{2, 1})
	if k12 == k21 {
		t.Error("key must be order sensitive")
	}
	if !strings.Contains(k12, "\x1f") {
		t.Error("composite key must be separator-joined")
	}
}

func TestTuplesEqualValuesSlice(t *testing.T) {
	a := []Tuple{NewTuple(Int(1)), NewTuple(Int(2))}
	b := []Tuple{NewTuple(Int(1)), NewTuple(Int(2))}
	if !TuplesEqualValues(a, b) {
		t.Error("equal slices misreported")
	}
	if TuplesEqualValues(a, b[:1]) {
		t.Error("length mismatch misreported")
	}
	b[1] = NewTuple(Int(3))
	if TuplesEqualValues(a, b) {
		t.Error("value mismatch misreported")
	}
}

func TestTupleString(t *testing.T) {
	tp := Tuple{Seq: 7, Vals: []Value{Int(1), String("a")}}
	if got := tp.String(); got != `(1, "a")@7` {
		t.Errorf("String = %q", got)
	}
}

func TestFormatTuples(t *testing.T) {
	out := FormatTuples([]Tuple{NewTuple(Int(1)), NewTuple(Int(2))})
	if !strings.Contains(out, "(1)@0") || !strings.Contains(out, "(2)@0") {
		t.Errorf("FormatTuples = %q", out)
	}
}

// TestMemSizeChargesCapacity pins the buffer-accounting fix: MemSize must
// charge the full capacity of the Vals backing array, not just its
// length. Pooled slices are rounded up to a size class, and the spare
// slots are real memory a queue or connection point is holding — the old
// length-based accounting under-reported buffered bytes (and the storage
// manager's spill high-water mark) whenever the pool handed back an
// oversized class.
func TestMemSizeChargesCapacity(t *testing.T) {
	const header = 24 // Seq + TS + slice header
	cases := []struct {
		name string
		t    Tuple
		want int
	}{
		{"nil-vals", Tuple{}, header},
		{"exact-fit", Tuple{Vals: []Value{Int(1), Int(2)}}, header + 2*16},
		{"spare-capacity", Tuple{Vals: append(make([]Value, 0, 8), Int(1), Int(2))},
			header + 2*16 + 6*16},
		{"string-payload", Tuple{Vals: []Value{String("hello")}}, header + 16 + 5},
		{"string-with-spare", Tuple{Vals: append(make([]Value, 0, 4), String("hi"))},
			header + 16 + 2 + 3*16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.t.MemSize(); got != c.want {
				t.Fatalf("MemSize = %d, want %d (len %d cap %d)",
					got, c.want, len(c.t.Vals), cap(c.t.Vals))
			}
		})
	}
	// Two tuples with identical values but different spare capacity must
	// not account identically — that asymmetry IS the fix.
	tight := Tuple{Vals: []Value{Int(7)}}
	roomy := Tuple{Vals: append(make([]Value, 0, 16), Int(7))}
	if tight.MemSize() >= roomy.MemSize() {
		t.Fatalf("capacity ignored: tight %d, roomy %d", tight.MemSize(), roomy.MemSize())
	}
}

// TestPooledValsRoundTrip pins the ownership bit through GetVals/Recycle:
// a pooled tuple recycles exactly once, a disowned one never does.
func TestPooledValsRoundTrip(t *testing.T) {
	tp := Tuple{Vals: GetVals(2)}
	tp.Vals[0], tp.Vals[1] = Int(1), Int(2)
	tp.MarkPooled()
	if !tp.Pooled() {
		t.Fatal("MarkPooled did not stick")
	}
	if !tp.Recycle() {
		t.Fatal("pooled tuple did not recycle")
	}
	if tp.Pooled() || tp.Vals != nil || tp.Recycle() {
		t.Fatalf("recycle not idempotent: pooled=%v vals=%v", tp.Pooled(), tp.Vals)
	}
	dt := Tuple{Vals: GetVals(2)}
	dt.MarkPooled()
	dt.Disown()
	if dt.Recycle() {
		t.Fatal("disowned tuple recycled")
	}
	// Clone must always produce an unpooled deep copy.
	ct := Tuple{Vals: GetVals(1)}
	ct.Vals[0] = Int(9)
	ct.MarkPooled()
	cl := ct.Clone()
	if cl.Pooled() {
		t.Fatal("clone inherited the pooled bit")
	}
	cl.Vals[0] = Int(8)
	if ct.Vals[0].AsInt() != 9 {
		t.Fatal("clone aliases the original Vals")
	}
}

// TestPoolTrainForms: GetValsTrain and RecycleTrain are GetVals and
// Recycle over a train under one lock. A recycled train's arrays come back
// zeroed, each exactly once (no array handed out twice), and a train mixing
// pooled, disowned and off-class tuples recycles only the pooled ones.
func TestPoolTrainForms(t *testing.T) {
	const n = 64
	vs := make([][]Value, n)
	GetValsTrain(vs, 3)
	ts := make([]Tuple, n+2)
	for i, v := range vs {
		if len(v) != 3 || cap(v) != 4 {
			t.Fatalf("slice %d has len %d cap %d, want 3 and class 4", i, len(v), cap(v))
		}
		v[0], v[1], v[2] = Int(int64(i)), String("x"), Float(1.5)
		ts[i] = Tuple{Vals: v}
		ts[i].MarkPooled()
	}
	ts[3].Disown()
	ts[n] = Tuple{Vals: []Value{Int(1)}} // never pooled
	ts[n+1] = Tuple{Vals: make([]Value, 3, 3)}
	ts[n+1].MarkPooled() // pooled flag on an off-class array: dropped
	kept := ts[3].Vals
	RecycleTrain(ts)
	for i := range ts {
		if ts[i].Pooled() {
			t.Fatalf("tuple %d still pooled after RecycleTrain", i)
		}
		if recycled := ts[i].Vals == nil; recycled != (i != 3 && i != n) {
			t.Fatalf("tuple %d: recycled=%v", i, recycled)
		}
	}
	if kept[0].AsInt() != 3 {
		t.Fatal("a disowned tuple's Vals was cleared")
	}
	seen := map[*Value]bool{}
	again := make([][]Value, n)
	GetValsTrain(again, 4)
	for i, v := range again {
		if seen[&v[:1][0]] {
			t.Fatalf("array %d handed out twice", i)
		}
		seen[&v[:1][0]] = true
		for j := range v {
			if v[j] != (Value{}) {
				t.Fatalf("array %d slot %d not zeroed: %v", i, j, v[j])
			}
		}
	}
}
