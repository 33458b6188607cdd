package stream

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Int(7), KindInt},
		{Float(2.5), KindFloat},
		{String("x"), KindString},
		{Bool(true), KindBool},
		{Null(), KindInvalid},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v.Format(), c.v.Kind(), c.kind)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if got := Int(42).AsInt(); got != 42 {
		t.Errorf("Int.AsInt = %d", got)
	}
	if got := Float(2.5).AsFloat(); got != 2.5 {
		t.Errorf("Float.AsFloat = %g", got)
	}
	if got := Int(3).AsFloat(); got != 3.0 {
		t.Errorf("Int.AsFloat = %g", got)
	}
	if got := String("abc").AsString(); got != "abc" {
		t.Errorf("String.AsString = %q", got)
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool round-trip failed")
	}
	if !Int(5).AsBool() || Int(0).AsBool() {
		t.Error("Int truthiness failed")
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull misclassified")
	}
	// Accessors on mismatched kinds are defined zeros.
	if String("x").AsInt() != 0 || Int(1).AsString() != "" || String("x").AsFloat() != 0 {
		t.Error("cross-kind accessors should return zero values")
	}
}

func TestValueOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{String("a"), String("b"), -1},
		{Bool(false), Bool(true), -1},
		{Null(), Int(0), -1}, // nulls order first
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%s, %s) = %d, want %d", c.a.Format(), c.b.Format(), got, c.want)
		}
	}
}

// TestValueCompareExactInts: two ints order as int64s, never through
// their float64 images, which tie above 2^53 (unix-ns timestamps 256 ns
// apart share one). Float ordering is kept for int-vs-float only.
func TestValueCompareExactInts(t *testing.T) {
	const p53 = int64(1) << 53
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(p53 + 1), Int(p53), 1},
		{Int(p53), Int(p53 + 1), -1},
		{Int(p53 - 1), Int(p53), -1},
		{Int(-p53 - 1), Int(-p53), -1},
		{Int(1760000000000000001), Int(1760000000000000000), 1},
		{Int(1760000000000000000), Int(1760000000000000255), -1},
		{Int(math.MinInt64), Int(math.MinInt64 + 1), -1},
		{Int(math.MaxInt64), Int(math.MaxInt64 - 1), 1},
		{Int(math.MinInt64), Int(math.MaxInt64), -1},
		{Int(math.MaxInt64), Int(math.MaxInt64), 0},
		// int vs float compares as floats: these tie by design.
		{Int(p53 + 1), Float(float64(p53)), 0},
		{Float(float64(p53)), Int(p53 + 1), 0},
		{Int(3), Float(3), 0},
		{Int(3), Float(3.5), -1},
		{Float(math.NaN()), Int(0), 0},
		{Float(math.Inf(-1)), Int(math.MinInt64), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%s, %s) = %d, want %d", c.a.Format(), c.b.Format(), got, c.want)
		}
		if got := c.a.Less(c.b); got != (c.want < 0) {
			t.Errorf("Less(%s, %s) = %v, want %v", c.a.Format(), c.b.Format(), got, c.want < 0)
		}
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueFormat(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{String("hi"), `"hi"`},
		{Bool(true), "true"},
		{Null(), "null"},
	}
	for _, c := range cases {
		if got := c.v.Format(); got != c.want {
			t.Errorf("Format = %q, want %q", got, c.want)
		}
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	cases := []struct {
		k Kind
		s string
		v Value
	}{
		{KindInt, "17", Int(17)},
		{KindFloat, "2.5", Float(2.5)},
		{KindString, "hello", String("hello")},
		{KindBool, "true", Bool(true)},
	}
	for _, c := range cases {
		got, err := ParseValue(c.k, c.s)
		if err != nil {
			t.Fatalf("ParseValue(%v, %q): %v", c.k, c.s, err)
		}
		if !got.Equal(c.v) {
			t.Errorf("ParseValue(%v, %q) = %v, want %v", c.k, c.s, got, c.v)
		}
	}
	if _, err := ParseValue(KindInt, "zzz"); err == nil {
		t.Error("ParseValue should fail on malformed int")
	}
	if _, err := ParseValue(KindInvalid, "x"); err == nil {
		t.Error("ParseValue should fail on invalid kind")
	}
}
