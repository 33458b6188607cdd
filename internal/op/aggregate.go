package op

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"repro/internal/stream"
)

// Accumulator holds the running state of one aggregate over one window.
type Accumulator interface {
	// Add folds one input value into the state.
	Add(v stream.Value)
	// Result returns the aggregate of everything added so far.
	Result() stream.Value
	// Reset empties the state, as New would, so a windowed operator can
	// reuse one accumulator across windows instead of allocating one each.
	Reset()
}

// Aggregate is a factory for accumulators plus the split-transparency
// metadata of §5.1: when a Tumble box is split, the merge network needs a
// combine aggregate such that for any tuple set and any partition point
//
//	agg(x1..xn) = combine(agg(x1..xk), agg(x(k+1)..xn)).
//
// For example cnt combines with sum, and max combines with max. Aggregates
// without a combination function (avg over a single scalar partial) report
// Combinable() == false and their boxes refuse to split.
type Aggregate interface {
	// Name is the registry name of the aggregate (e.g. "cnt").
	Name() string
	// New returns an empty accumulator.
	New() Accumulator
	// Combinable reports whether a combine aggregate exists.
	Combinable() bool
	// Combine returns the aggregate that merges partial results; it panics
	// if !Combinable().
	Combine() Aggregate
	// ResultKind reports the kind of the aggregate result given the kind
	// of its input values; Tumble uses it to derive output schemas.
	ResultKind(in stream.Kind) stream.Kind
}

// LookupAggregate resolves an aggregate by registry name; remote definition
// ships aggregate names, not code.
func LookupAggregate(name string) (Aggregate, error) {
	if a, ok := aggregates[name]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("unknown aggregate %q", name)
}

// MustAggregate is LookupAggregate that panics; for compiled-in plans.
func MustAggregate(name string) Aggregate {
	a, err := LookupAggregate(name)
	if err != nil {
		panic(err)
	}
	return a
}

var aggregates = map[string]Aggregate{}

func register(a Aggregate) Aggregate {
	aggregates[a.Name()] = a
	return a
}

// The built-in aggregates. Each is a stateless singleton.
var (
	// Cnt counts values; combine is Sum (the paper's own example).
	Cnt = register(cntAgg{})
	// Sum sums numeric values; combine is Sum.
	Sum = register(sumAgg{})
	// Max keeps the maximum; combine is Max (the paper's other example).
	Max = register(maxAgg{})
	// Min keeps the minimum; combine is Min.
	Min = register(minAgg{})
	// Avg averages numeric values. A scalar average carries no weight, so
	// avg has no combination function and Tumble(avg) cannot be split.
	Avg = register(avgAgg{})
	// First keeps the first value seen; combine is First.
	First = register(firstAgg{})
	// Last keeps the last value seen; combine is Last.
	Last = register(lastAgg{})
)

type cntAgg struct{}

func (cntAgg) Name() string                       { return "cnt" }
func (cntAgg) New() Accumulator                   { return &cntAcc{} }
func (cntAgg) Combinable() bool                   { return true }
func (cntAgg) Combine() Aggregate                 { return Sum }
func (cntAgg) ResultKind(stream.Kind) stream.Kind { return stream.KindInt }

type cntAcc struct{ n int64 }

func (a *cntAcc) Add(stream.Value)     { a.n++ }
func (a *cntAcc) Result() stream.Value { return stream.Int(a.n) }
func (a *cntAcc) Reset()               { *a = cntAcc{} }

type sumAgg struct{}

func (sumAgg) Name() string                          { return "sum" }
func (sumAgg) New() Accumulator                      { return &sumAcc{} }
func (sumAgg) Combinable() bool                      { return true }
func (sumAgg) Combine() Aggregate                    { return Sum }
func (sumAgg) ResultKind(in stream.Kind) stream.Kind { return in }

type sumAcc struct {
	i       int64
	f       float64
	isFloat bool
}

func (a *sumAcc) Add(v stream.Value) {
	if v.Kind() == stream.KindFloat {
		if !a.isFloat {
			a.isFloat = true
			a.f = float64(a.i)
		}
		a.f += v.AsFloat()
		return
	}
	if a.isFloat {
		a.f += v.AsFloat()
		return
	}
	a.i += v.AsInt()
}

func (a *sumAcc) Reset() { *a = sumAcc{} }

func (a *sumAcc) Result() stream.Value {
	if a.isFloat {
		return stream.Float(a.f)
	}
	return stream.Int(a.i)
}

type maxAgg struct{}

func (maxAgg) Name() string                          { return "max" }
func (maxAgg) New() Accumulator                      { return &extremeAcc{want: 1} }
func (maxAgg) Combinable() bool                      { return true }
func (maxAgg) Combine() Aggregate                    { return Max }
func (maxAgg) ResultKind(in stream.Kind) stream.Kind { return in }

type minAgg struct{}

func (minAgg) Name() string                          { return "min" }
func (minAgg) New() Accumulator                      { return &extremeAcc{want: -1} }
func (minAgg) Combinable() bool                      { return true }
func (minAgg) Combine() Aggregate                    { return Min }
func (minAgg) ResultKind(in stream.Kind) stream.Kind { return in }

type extremeAcc struct {
	best stream.Value
	want int // +1 keeps the larger, -1 keeps the smaller
	seen bool
}

func (a *extremeAcc) Add(v stream.Value) {
	if !a.seen || v.Compare(a.best) == a.want {
		a.best = v
		a.seen = true
	}
}

func (a *extremeAcc) Reset() { *a = extremeAcc{want: a.want} }

func (a *extremeAcc) Result() stream.Value {
	if !a.seen {
		return stream.Null()
	}
	return a.best
}

type avgAgg struct{}

func (avgAgg) Name() string     { return "avg" }
func (avgAgg) New() Accumulator { return &avgAcc{} }
func (avgAgg) Combinable() bool { return false }
func (avgAgg) Combine() Aggregate {
	panic("avg has no combination function; Tumble(avg) cannot be split (§5.1)")
}
func (avgAgg) ResultKind(stream.Kind) stream.Kind { return stream.KindFloat }

// avgAcc sums int inputs exactly, in 128 bits (hi:lo, two's complement),
// and rounds once when the result is read: a float64 running sum resolves
// unix-ns values only to 256 ns per term, so avg over timestamps drifted
// by microseconds. The first float input switches the accumulator to
// float semantics, carrying the exact sum so far over as one rounded term.
type avgAcc struct {
	hi      int64
	lo      uint64
	f       float64
	isFloat bool
	n       int64
}

func (a *avgAcc) Reset() { *a = avgAcc{} }

func (a *avgAcc) Add(v stream.Value) {
	a.n++
	if v.Kind() != stream.KindFloat && !a.isFloat {
		// Every other kind reads as an int (bool as 0/1, the rest as 0),
		// exactly as AsFloat reads it.
		x := v.AsInt()
		var carry uint64
		a.lo, carry = bits.Add64(a.lo, uint64(x), 0)
		a.hi += x>>63 + int64(carry)
		return
	}
	if !a.isFloat {
		a.isFloat = true
		a.f, _ = a.exactSum().Float64()
	}
	a.f += v.AsFloat()
}

// exactSum returns the int sum as a big.Int.
func (a *avgAcc) exactSum() *big.Int {
	s := new(big.Int).SetInt64(a.hi)
	s.Lsh(s, 64)
	return s.Add(s, new(big.Int).SetUint64(a.lo))
}

func (a *avgAcc) Result() stream.Value {
	if a.n == 0 {
		return stream.Null()
	}
	if a.isFloat {
		return stream.Float(a.f / float64(a.n))
	}
	if s := int64(a.lo); a.hi == s>>63 && s >= -1<<53 && s <= 1<<53 {
		// The sum and the count are exact float64s, so one IEEE division
		// rounds the mean once.
		return stream.Float(float64(s) / float64(a.n))
	}
	q := new(big.Float).SetPrec(53).SetMode(big.ToNearestEven)
	q.Quo(new(big.Float).SetInt(a.exactSum()), new(big.Float).SetInt64(a.n))
	f, _ := q.Float64()
	return stream.Float(f)
}

type firstAgg struct{}

func (firstAgg) Name() string                          { return "first" }
func (firstAgg) New() Accumulator                      { return &edgeAcc{keepFirst: true} }
func (firstAgg) Combinable() bool                      { return true }
func (firstAgg) Combine() Aggregate                    { return First }
func (firstAgg) ResultKind(in stream.Kind) stream.Kind { return in }

type lastAgg struct{}

func (lastAgg) Name() string                          { return "last" }
func (lastAgg) New() Accumulator                      { return &edgeAcc{} }
func (lastAgg) Combinable() bool                      { return true }
func (lastAgg) Combine() Aggregate                    { return Last }
func (lastAgg) ResultKind(in stream.Kind) stream.Kind { return in }

type edgeAcc struct {
	v         stream.Value
	seen      bool
	keepFirst bool
}

func (a *edgeAcc) Add(v stream.Value) {
	if a.keepFirst && a.seen {
		return
	}
	a.v = v
	a.seen = true
}

func (a *edgeAcc) Reset() { *a = edgeAcc{keepFirst: a.keepFirst} }

func (a *edgeAcc) Result() stream.Value {
	if !a.seen {
		return stream.Null()
	}
	return a.v
}

// AggregateNames returns the registry names of all built-in aggregates,
// for catalog listings and the streamgen CLI.
func AggregateNames() []string {
	names := make([]string, 0, len(aggregates))
	for n := range aggregates {
		names = append(names, n)
	}
	return names
}

// StdDev of a window, provided as an example of an extension aggregate the
// paper's model admits (it is combinable in principle via (n, sum, sumsq)
// partials, but the scalar result is not, so Combinable is false here).
var StdDev = register(stddevAgg{})

type stddevAgg struct{}

func (stddevAgg) Name() string     { return "stddev" }
func (stddevAgg) New() Accumulator { return &stddevAcc{} }
func (stddevAgg) Combinable() bool { return false }
func (stddevAgg) Combine() Aggregate {
	panic("stddev scalar results have no combination function")
}
func (stddevAgg) ResultKind(stream.Kind) stream.Kind { return stream.KindFloat }

type stddevAcc struct {
	n          int64
	sum, sumSq float64
}

func (a *stddevAcc) Add(v stream.Value) {
	f := v.AsFloat()
	a.n++
	a.sum += f
	a.sumSq += f * f
}

func (a *stddevAcc) Reset() { *a = stddevAcc{} }

func (a *stddevAcc) Result() stream.Value {
	if a.n == 0 {
		return stream.Null()
	}
	mean := a.sum / float64(a.n)
	variance := a.sumSq/float64(a.n) - mean*mean
	if variance < 0 {
		variance = 0 // numeric noise
	}
	return stream.Float(math.Sqrt(variance))
}
