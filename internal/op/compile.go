package op

import (
	"cmp"

	"repro/internal/stream"
)

// Expression compilation for the batch kernels. A bound Expr tree pays
// two interface dispatches per node per tuple (Eval on each child); over
// a train of 128 tuples through a three-clause predicate that is ~1000
// indirect calls. compileValue/compileBool lower the tree once, at Bind
// time, into a chain of direct closure calls with the operator and any
// constants captured. The closures replicate Eval semantics exactly —
// including float-ordered comparison of mixed numerics, Div promotion to
// float, and division-by-zero yielding Null — and nodes outside the core
// algebra (HashCall, user-defined Exprs) fall back to their own Eval, so
// compilation never changes results, only dispatch cost.
//
// Closures take the tuple by pointer, so a column read copies one Value
// out of Vals and nothing else. Integral subtrees also get an int64 lane
// (compileInt) that reads, adds and compares int64s with no Value in
// between; Arith boxes its result once and Cmp never boxes. The lane keys
// off the run-time kind of each value it reads, never off the schema: a
// value that is not an int, a column past the end of the tuple or a Mod
// by zero makes it report !ok, and the caller re-evaluates the subtree on
// the generic Value path, which is Eval's own semantics.
//
// Compiled closures capture bound column indices, so operators recompile
// on every Bind; only the batch kernels use them (Process keeps the tree
// walk, the reference TestKernelEquivalence diffs the kernels against).

type valFn func(*stream.Tuple) stream.Value

type boolFn func(*stream.Tuple) bool

// intFn is an int64 lane: ok reports that every value the subtree read
// was an int, and then the result is the payload of the Int Eval returns.
type intFn func(*stream.Tuple) (v int64, ok bool)

// compileValue lowers a bound expression into a closure chain producing
// its Value.
func compileValue(e Expr) valFn {
	switch x := e.(type) {
	case *Col:
		idx := x.index
		return func(t *stream.Tuple) stream.Value { return t.Field(idx) }
	case *Const:
		v := x.Val
		return func(*stream.Tuple) stream.Value { return v }
	case *Cmp:
		f := compileCmp(x)
		return func(t *stream.Tuple) stream.Value { return stream.Bool(f(t)) }
	case *Logic:
		f := compileBool(x)
		return func(t *stream.Tuple) stream.Value { return stream.Bool(f(t)) }
	case *Arith:
		l, r := compileValue(x.L), compileValue(x.R)
		op := x.Op
		generic := func(t *stream.Tuple) stream.Value { return arithEval(op, l(t), r(t)) }
		lane := compileInt(x)
		if lane == nil {
			return generic
		}
		return func(t *stream.Tuple) stream.Value {
			if v, ok := lane(t); ok {
				return stream.Int(v)
			}
			return generic(t)
		}
	default:
		return func(t *stream.Tuple) stream.Value { return e.Eval(*t) }
	}
}

// compileInt lowers the integral part of the algebra — column reads, int
// literals, and Add/Sub/Mul/Mod over those — into an int64 lane. It
// returns nil for a subtree that can never yield an int without boxing
// (Div, comparisons, logic, float or other literals, HashCall).
func compileInt(e Expr) intFn {
	switch x := e.(type) {
	case *Col:
		idx := x.index
		return func(t *stream.Tuple) (int64, bool) {
			if uint(idx) < uint(len(t.Vals)) {
				if v := &t.Vals[idx]; v.Kind() == stream.KindInt {
					return v.AsInt(), true
				}
			}
			return 0, false
		}
	case *Const:
		if x.Val.Kind() != stream.KindInt {
			return nil
		}
		c := x.Val.AsInt()
		return func(*stream.Tuple) (int64, bool) { return c, true }
	case *Arith:
		l, r := compileInt(x.L), compileInt(x.R)
		if l == nil || r == nil {
			return nil
		}
		// Overflow wraps exactly as arithEval's int64 arithmetic does.
		switch x.Op {
		case Add:
			return func(t *stream.Tuple) (int64, bool) {
				a, ok := l(t)
				if !ok {
					return 0, false
				}
				b, ok := r(t)
				return a + b, ok
			}
		case Sub:
			return func(t *stream.Tuple) (int64, bool) {
				a, ok := l(t)
				if !ok {
					return 0, false
				}
				b, ok := r(t)
				return a - b, ok
			}
		case Mul:
			return func(t *stream.Tuple) (int64, bool) {
				a, ok := l(t)
				if !ok {
					return 0, false
				}
				b, ok := r(t)
				return a * b, ok
			}
		case Mod:
			return func(t *stream.Tuple) (int64, bool) {
				a, ok := l(t)
				if !ok {
					return 0, false
				}
				b, ok := r(t)
				if !ok || b == 0 { // Eval yields Null
					return 0, false
				}
				return a % b, true
			}
		}
	}
	return nil
}

// compileBool lowers a bound predicate into a closure chain producing its
// truth value without materializing intermediate Bool values.
func compileBool(e Expr) boolFn {
	switch x := e.(type) {
	case *Const:
		b := x.Val.AsBool()
		return func(*stream.Tuple) bool { return b }
	case *Cmp:
		return compileCmp(x)
	case *Logic:
		switch x.Op {
		case And:
			l, r := compileBool(x.L), compileBool(x.R)
			return func(t *stream.Tuple) bool { return l(t) && r(t) }
		case Or:
			l, r := compileBool(x.L), compileBool(x.R)
			return func(t *stream.Tuple) bool { return l(t) || r(t) }
		default:
			l := compileBool(x.L)
			return func(t *stream.Tuple) bool { return !l(t) }
		}
	default:
		f := compileValue(e)
		return func(t *stream.Tuple) bool { return f(t).AsBool() }
	}
}

// compileCmp compares on the int64 lane when both sides have one and
// falls back to a single Value Compare otherwise.
func compileCmp(c *Cmp) boolFn {
	l, r := compileValue(c.L), compileValue(c.R)
	op := c.Op
	li, ri := compileInt(c.L), compileInt(c.R)
	if li == nil || ri == nil {
		return func(t *stream.Tuple) bool { return op.holds(l(t).Compare(r(t))) }
	}
	return func(t *stream.Tuple) bool {
		if a, ok := li(t); ok {
			if b, ok := ri(t); ok {
				return op.holds(cmp.Compare(a, b))
			}
		}
		return op.holds(l(t).Compare(r(t)))
	}
}
