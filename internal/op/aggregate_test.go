package op

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

func runAgg(a Aggregate, vals ...stream.Value) stream.Value {
	acc := a.New()
	for _, v := range vals {
		acc.Add(v)
	}
	return acc.Result()
}

func TestAggregateBasics(t *testing.T) {
	ints := []stream.Value{stream.Int(3), stream.Int(1), stream.Int(2)}
	cases := []struct {
		agg  Aggregate
		want stream.Value
	}{
		{Cnt, stream.Int(3)},
		{Sum, stream.Int(6)},
		{Max, stream.Int(3)},
		{Min, stream.Int(1)},
		{Avg, stream.Float(2)},
		{First, stream.Int(3)},
		{Last, stream.Int(2)},
	}
	for _, c := range cases {
		if got := runAgg(c.agg, ints...); !got.Equal(c.want) {
			t.Errorf("%s(3,1,2) = %s, want %s", c.agg.Name(), got.Format(), c.want.Format())
		}
	}
}

func TestAggregateEmpty(t *testing.T) {
	if got := runAgg(Cnt); !got.Equal(stream.Int(0)) {
		t.Errorf("cnt() = %v", got)
	}
	if got := runAgg(Sum); !got.Equal(stream.Int(0)) {
		t.Errorf("sum() = %v", got)
	}
	for _, a := range []Aggregate{Max, Min, Avg, First, Last, StdDev} {
		if got := runAgg(a); !got.IsNull() {
			t.Errorf("%s() = %v, want null", a.Name(), got)
		}
	}
}

func TestSumMixedKinds(t *testing.T) {
	got := runAgg(Sum, stream.Int(1), stream.Float(2.5), stream.Int(3))
	if !got.Equal(stream.Float(6.5)) {
		t.Errorf("sum(1, 2.5, 3) = %s", got.Format())
	}
	// Float first, then int.
	got = runAgg(Sum, stream.Float(0.5), stream.Int(2))
	if !got.Equal(stream.Float(2.5)) {
		t.Errorf("sum(0.5, 2) = %s", got.Format())
	}
}

func TestStdDev(t *testing.T) {
	got := runAgg(StdDev, stream.Float(2), stream.Float(4), stream.Float(4),
		stream.Float(4), stream.Float(5), stream.Float(5), stream.Float(7), stream.Float(9))
	if math.Abs(got.AsFloat()-2.0) > 1e-9 {
		t.Errorf("stddev = %g, want 2", got.AsFloat())
	}
}

func TestCombinableFlags(t *testing.T) {
	combinable := []Aggregate{Cnt, Sum, Max, Min, First, Last}
	for _, a := range combinable {
		if !a.Combinable() {
			t.Errorf("%s should be combinable", a.Name())
		}
	}
	for _, a := range []Aggregate{Avg, StdDev} {
		if a.Combinable() {
			t.Errorf("%s must not be combinable (scalar partials)", a.Name())
		}
	}
}

func TestCombinePanicsForAvg(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Avg.Combine should panic")
		}
	}()
	Avg.Combine()
}

// TestCombineIdentity is the §5.1 requirement verbatim: for any tuple set
// and any partition point k,
// agg(x1..xn) == combine(agg(x1..xk), agg(x(k+1)..xn)).
func TestCombineIdentity(t *testing.T) {
	aggs := []Aggregate{Cnt, Sum, Max, Min, First, Last}
	f := func(raw []int16, kRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		vals := make([]stream.Value, len(raw))
		for i, r := range raw {
			vals[i] = stream.Int(int64(r))
		}
		k := 1 + int(kRaw)%(len(vals)-1)
		for _, a := range aggs {
			whole := runAgg(a, vals...)
			left := runAgg(a, vals[:k]...)
			right := runAgg(a, vals[k:]...)
			merged := runAgg(a.Combine(), left, right)
			if !whole.Equal(merged) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCombineExamples pins the paper's two examples: if agg is cnt, combine
// is sum; if agg is max, combine is max.
func TestCombineExamples(t *testing.T) {
	if Cnt.Combine().Name() != "sum" {
		t.Errorf("combine(cnt) = %s, want sum", Cnt.Combine().Name())
	}
	if Max.Combine().Name() != "max" {
		t.Errorf("combine(max) = %s, want max", Max.Combine().Name())
	}
}

func TestLookupAggregate(t *testing.T) {
	a, err := LookupAggregate("cnt")
	if err != nil || a.Name() != "cnt" {
		t.Fatalf("LookupAggregate(cnt) = %v, %v", a, err)
	}
	if _, err := LookupAggregate("bogus"); err == nil {
		t.Error("LookupAggregate(bogus) should fail")
	}
	names := AggregateNames()
	if len(names) < 7 {
		t.Errorf("AggregateNames = %v, want at least the built-ins", names)
	}
}

func TestMustAggregatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAggregate should panic on unknown name")
		}
	}()
	MustAggregate("nope")
}

func TestExtremesOverStrings(t *testing.T) {
	vals := []stream.Value{stream.String("b"), stream.String("a"), stream.String("c")}
	if got := runAgg(Max, vals...); got.AsString() != "c" {
		t.Errorf("max strings = %v", got)
	}
	if got := runAgg(Min, vals...); got.AsString() != "a" {
		t.Errorf("min strings = %v", got)
	}
}

// exactMean is the correctly rounded mean of ints, via big.Rat.
func exactMean(xs []int64) float64 {
	s := new(big.Int)
	for _, x := range xs {
		s.Add(s, big.NewInt(x))
	}
	f, _ := new(big.Rat).SetFrac(s, big.NewInt(int64(len(xs)))).Float64()
	return f
}

// TestAvgIntExactNanosecond: avg over unix-ns timestamps sums exactly and
// rounds once. A float64 running sum rounds every term to 256 ns and the
// partial sums coarser still, so its mean of these ramps lands
// microseconds off; the int sum must give the correctly rounded mean.
// Sums past int64 (MaxInt64 twice) and negative ones are exact too.
func TestAvgIntExactNanosecond(t *testing.T) {
	const base = int64(1_700_000_000_123_456_789)
	ramp := func(n int, step int64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = base + int64(i)*step + int64(i%3)
		}
		return xs
	}
	cases := map[string][]int64{
		"ns ramp":         ramp(1000, 1),
		"µs ramp":         ramp(4096, 977),
		"two timestamps":  {base, base + 1},
		"past int64":      {math.MaxInt64, math.MaxInt64, math.MaxInt64 - 1},
		"negative":        {math.MinInt64, math.MinInt64, -3},
		"small exact":     {1, 2, 4},
		"mixed sign tiny": {-7, 3},
	}
	for name, xs := range cases {
		vals := make([]stream.Value, len(xs))
		for i, x := range xs {
			vals[i] = stream.Int(x)
		}
		got := runAgg(Avg, vals...)
		if want := exactMean(xs); got.Kind() != stream.KindFloat || got.AsFloat() != want {
			t.Errorf("%s: avg = %s, want %v (off by %v)", name, got.Format(), want, got.AsFloat()-want)
		}
	}
	// Floats keep float semantics: the exact int prefix is carried over
	// as one rounded term, then summed as floats.
	if got := runAgg(Avg, stream.Int(1), stream.Float(2.5), stream.Int(3)); got.AsFloat() != 6.5/3 {
		t.Errorf("avg(1, 2.5, 3) = %s, want %v", got.Format(), 6.5/3)
	}
	// Nulls count and add 0, as before.
	if got := runAgg(Avg, stream.Int(4), stream.Null()); got.AsFloat() != 2 {
		t.Errorf("avg(4, null) = %s, want 2", got.Format())
	}
}
