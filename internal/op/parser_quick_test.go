package op

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// genExpr builds a random expression tree over exprSchema whose leaves
// come from leaf: the generator for the String/Parse round-trip property
// (roundTripLeaf) and the compiled-vs-Eval one (edgeLeaf).
func genExpr(rng *rand.Rand, depth int, leaf func(*rand.Rand) Expr) Expr {
	if depth <= 0 {
		return leaf(rng)
	}
	switch rng.Intn(6) {
	case 0:
		return NewCmp(CmpOp(rng.Intn(6)), genExpr(rng, depth-1, leaf), genExpr(rng, depth-1, leaf))
	case 1:
		return NewArith(ArithOp(rng.Intn(5)), genExpr(rng, depth-1, leaf), genExpr(rng, depth-1, leaf))
	case 2:
		return NewAnd(genBool(rng, depth-1, leaf), genBool(rng, depth-1, leaf))
	case 3:
		return NewOr(genBool(rng, depth-1, leaf), genBool(rng, depth-1, leaf))
	case 4:
		return NewNot(genBool(rng, depth-1, leaf))
	default:
		return NewHashCall("A", "sym")
	}
}

// genBool builds a random boolean-valued expression.
func genBool(rng *rand.Rand, depth int, leaf func(*rand.Rand) Expr) Expr {
	if depth <= 0 {
		return NewCmp(LT, NewCol("A"), NewConst(stream.Int(rng.Int63n(10))))
	}
	switch rng.Intn(3) {
	case 0:
		return NewCmp(CmpOp(rng.Intn(6)), genExpr(rng, depth-1, leaf), genExpr(rng, depth-1, leaf))
	case 1:
		return NewAnd(genBool(rng, depth-1, leaf), genBool(rng, depth-1, leaf))
	default:
		return NewNot(genBool(rng, depth-1, leaf))
	}
}

// roundTripLeaf draws leaves whose rendering Parse reads back as the same
// kind.
func roundTripLeaf(rng *rand.Rand) Expr {
	switch rng.Intn(5) {
	case 0:
		return NewCol("A")
	case 1:
		return NewCol("B")
	case 2:
		return NewConst(stream.Int(rng.Int63n(100) - 50))
	case 3:
		return NewConst(stream.Float(float64(rng.Intn(100)) / 4))
	default:
		return NewCol("price")
	}
}

// TestRandomExprRoundTrip: for random trees e, Parse(e.String()) evaluates
// identically to e on random tuples — the invariant remote definition
// (§4.4) rests on.
func TestRandomExprRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		e := genExpr(rng, 1+rng.Intn(4), roundTripLeaf)
		src := e.String()
		parsed, err := Parse(src)
		if err != nil {
			t.Fatalf("trial %d: Parse(%q): %v", trial, src, err)
		}
		if parsed.String() != src {
			t.Fatalf("trial %d: render not stable: %q -> %q", trial, src, parsed.String())
		}
		if err := e.Bind(exprSchema); err != nil {
			t.Fatal(err)
		}
		if err := parsed.Bind(exprSchema); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			tp := exprTuple(rng.Int63n(20)-10, rng.Int63n(20)-10,
				float64(rng.Intn(100))/8, "s", rng.Intn(2) == 0)
			a, b := e.Eval(tp), parsed.Eval(tp)
			if !a.Equal(b) {
				t.Fatalf("trial %d: %q evaluates %s vs %s on %v",
					trial, src, a.Format(), b.Format(), tp)
			}
		}
	}
}

// edgeValues are the values the compiled-vs-Eval property draws column
// contents and literals from: the int64 lane's boundaries (±2^53±1, where
// float64 images tie, and MinInt64/MaxInt64, where Add/Sub/Mul wrap and
// MinInt64 % -1 is 0), zero for Div/Mod, and every other kind, so a float,
// null, string or bool can arrive in an int-declared column.
var edgeValues = []stream.Value{
	stream.Int(0), stream.Int(1), stream.Int(-1), stream.Int(2), stream.Int(7), stream.Int(-3),
	stream.Int(1<<53 - 1), stream.Int(1 << 53), stream.Int(1<<53 + 1),
	stream.Int(-1<<53 - 1), stream.Int(-1 << 53), stream.Int(-1<<53 + 1),
	stream.Int(math.MaxInt64), stream.Int(math.MinInt64), stream.Int(math.MinInt64 + 1),
	stream.Int(1760000000000000000), stream.Int(1760000000000000001),
	stream.Float(0), stream.Float(2.5), stream.Float(-0.5), stream.Float(float64(1 << 53)),
	stream.Float(math.Inf(1)), stream.Float(math.NaN()),
	stream.Null(), stream.String(""), stream.String("IBM"), stream.Bool(true), stream.Bool(false),
}

// edgeLeaf draws a column reference or an edgeValues literal.
func edgeLeaf(rng *rand.Rand) Expr {
	if rng.Intn(2) == 0 {
		return NewCol(exprSchema.Field(rng.Intn(exprSchema.Arity())).Name)
	}
	return NewConst(edgeValues[rng.Intn(len(edgeValues))])
}

// sameValue is Value equality that also equates two NaNs, which both
// paths produce from, e.g., Inf - Inf.
func sameValue(a, b stream.Value) bool {
	if a.Kind() == stream.KindFloat && b.Kind() == stream.KindFloat &&
		math.IsNaN(a.AsFloat()) && math.IsNaN(b.AsFloat()) {
		return true
	}
	return a.Equal(b)
}

// checkCompiled asserts that the compiled closures of a bound expression
// agree with its Eval on tp: compileValue value for value, compileBool
// with Eval's truthiness.
func checkCompiled(t *testing.T, e Expr, tp stream.Tuple) {
	t.Helper()
	want := e.Eval(tp)
	if got := compileValue(e)(&tp); !sameValue(got, want) {
		t.Fatalf("%s on %v: compiled %s, Eval %s", e, tp, got.Format(), want.Format())
	}
	if got := compileBool(e)(&tp); got != want.AsBool() {
		t.Fatalf("%s on %v: compiled predicate %v, Eval %s", e, tp, got, want.Format())
	}
}

// TestCompiledMatchesEval: over random trees of every CmpOp, ArithOp and
// Logic node and tuples drawn from edgeValues — some cut short, as under
// schema drift — the batch kernels' compiled closures, int64 lane
// included, reproduce Eval exactly.
func TestCompiledMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 2000; trial++ {
		e := genExpr(rng, 1+rng.Intn(4), edgeLeaf)
		if err := e.Bind(exprSchema); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			vals := make([]stream.Value, exprSchema.Arity())
			for j := range vals {
				vals[j] = edgeValues[rng.Intn(len(edgeValues))]
			}
			if rng.Intn(8) == 0 {
				vals = vals[:rng.Intn(len(vals))]
			}
			checkCompiled(t, e, stream.NewTuple(vals...))
		}
	}
	// Pinned cases: int pairs whose float64 images tie, and the lane's
	// fallbacks (Mod by zero, a float in an int column, a missing column).
	pinned := []struct {
		src  string
		a, b stream.Value
		want stream.Value
	}{
		{"A == 9007199254740993", stream.Int(1 << 53), stream.Int(0), stream.Bool(false)},
		{"A < B", stream.Int(1760000000000000000), stream.Int(1760000000000000001), stream.Bool(true)},
		{"(A + 1) > B", stream.Int(1 << 53), stream.Int(1 << 53), stream.Bool(true)},
		{"(A * B) == 0", stream.Int(math.MinInt64), stream.Int(2), stream.Bool(true)},
		{"A % B", stream.Int(math.MinInt64), stream.Int(-1), stream.Int(0)},
		{"A % B", stream.Int(7), stream.Int(0), stream.Null()},
		{"A / B", stream.Int(7), stream.Int(0), stream.Null()},
		{"A * 2", stream.Float(2.5), stream.Int(0), stream.Float(5)},
		{"(A + B) < 60.5", stream.Int(30), stream.Int(30), stream.Bool(true)},
	}
	for _, c := range pinned {
		e := MustBind(MustParse(c.src), exprSchema)
		tp := stream.NewTuple(c.a, c.b)
		if got := e.Eval(tp); !got.Equal(c.want) {
			t.Errorf("%s on %v: Eval %s, want %s", c.src, tp, got.Format(), c.want.Format())
		}
		checkCompiled(t, e, tp)
	}
}

// FuzzCompiledExpr: for any source Parse accepts and Bind resolves
// against exprSchema, the compiled closures agree with Eval on a tuple of
// fuzzer-chosen values. kinds picks, two bits per column, whether A and B
// carry their declared int or a float, null or string instead; n cuts the
// tuple short.
func FuzzCompiledExpr(f *testing.F) {
	f.Add("(A + B) < 7", int64(2), int64(5), 10.5, "IBM", true, uint8(0), uint8(5))
	f.Add("((B * 3) + (A % 7)) >= price", int64(1<<53), int64(-1), 2.5, "", false, uint8(1), uint8(5))
	f.Add("(A % B) == 0 || !ok", int64(math.MinInt64), int64(-1), 0.0, "x", true, uint8(0), uint8(5))
	f.Add("A == 9007199254740993", int64(1<<53), int64(0), 0.0, "", false, uint8(0), uint8(1))
	f.Add(`(sym == "IBM") && ((A / B) < price)`, int64(7), int64(0), -1.0, "IBM", true, uint8(6), uint8(4))
	f.Fuzz(func(t *testing.T, src string, a, b int64, price float64, sym string, ok bool, kinds, n uint8) {
		if len(src) > 256 {
			return
		}
		e, err := Parse(src)
		if err != nil {
			return
		}
		if err := e.Bind(exprSchema); err != nil {
			return
		}
		col := func(i int64, sel uint8) stream.Value {
			switch sel & 3 {
			case 1:
				return stream.Float(float64(i) / 4)
			case 2:
				return stream.Null()
			case 3:
				return stream.String(sym)
			}
			return stream.Int(i)
		}
		vals := []stream.Value{col(a, kinds), col(b, kinds>>2),
			stream.Float(price), stream.String(sym), stream.Bool(ok)}
		checkCompiled(t, e, stream.NewTuple(vals[:int(n)%(len(vals)+1)]...))
	})
}
