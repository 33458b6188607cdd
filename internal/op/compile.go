package op

import "repro/internal/stream"

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
// Compiled closures capture bound column indices, so operators recompile
// on every Bind; only the batch kernels use them (Process keeps the tree
// walk, the reference TestKernelEquivalence diffs the kernels against).

type valFn func(stream.Tuple) stream.Value

type boolFn func(stream.Tuple) bool

// compileValue lowers a bound expression into a closure chain producing
// its Value.
func compileValue(e Expr) valFn {
	switch x := e.(type) {
	case *Col:
		idx := x.index
		return func(t stream.Tuple) stream.Value { return t.Field(idx) }
	case *Const:
		v := x.Val
		return func(stream.Tuple) stream.Value { return v }
	case *Cmp:
		f := compileCmp(x)
		return func(t stream.Tuple) stream.Value { return stream.Bool(f(t)) }
	case *Logic:
		f := compileBool(x)
		return func(t stream.Tuple) stream.Value { return stream.Bool(f(t)) }
	case *Arith:
		l, r := compileValue(x.L), compileValue(x.R)
		op := x.Op
		return func(t stream.Tuple) stream.Value { return arithEval(op, l(t), r(t)) }
	default:
		return e.Eval
	}
}

// compileBool lowers a bound predicate into a closure chain producing its
// truth value without materializing intermediate Bool values.
func compileBool(e Expr) boolFn {
	switch x := e.(type) {
	case *Const:
		b := x.Val.AsBool()
		return func(stream.Tuple) bool { return b }
	case *Cmp:
		return compileCmp(x)
	case *Logic:
		switch x.Op {
		case And:
			l, r := compileBool(x.L), compileBool(x.R)
			return func(t stream.Tuple) bool { return l(t) && r(t) }
		case Or:
			l, r := compileBool(x.L), compileBool(x.R)
			return func(t stream.Tuple) bool { return l(t) || r(t) }
		default:
			l := compileBool(x.L)
			return func(t stream.Tuple) bool { return !l(t) }
		}
	default:
		f := compileValue(e)
		return func(t stream.Tuple) bool { return f(t).AsBool() }
	}
}

// compileCmp specializes the comparison operator outside the closure so
// the hot path runs a single Compare plus one branch.
func compileCmp(c *Cmp) boolFn {
	l, r := compileValue(c.L), compileValue(c.R)
	switch c.Op {
	case EQ:
		return func(t stream.Tuple) bool { return l(t).Compare(r(t)) == 0 }
	case NE:
		return func(t stream.Tuple) bool { return l(t).Compare(r(t)) != 0 }
	case LT:
		return func(t stream.Tuple) bool { return l(t).Compare(r(t)) < 0 }
	case LE:
		return func(t stream.Tuple) bool { return l(t).Compare(r(t)) <= 0 }
	case GT:
		return func(t stream.Tuple) bool { return l(t).Compare(r(t)) > 0 }
	default:
		return func(t stream.Tuple) bool { return l(t).Compare(r(t)) >= 0 }
	}
}
