// Package op implements the Aurora operator set (paper §2.2): Filter,
// Map, Union, WSort, Tumble, XSection, Slide, Join, and Resample, together
// with the aggregate functions and combine functions that box splitting
// (§5.1) requires, and a small serializable expression language used for
// filter predicates and map projections.
//
// Expressions are data rather than Go closures so that they can cross the
// wire: Medusa's remote definition (§4.4) instantiates operators from a
// pre-defined set offered by another participant, which requires operator
// parameters to be serializable.
package op

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/stream"
)

// Expr is a side-effect-free expression over one tuple. Expressions must be
// bound to a schema (Bind) before evaluation so column references resolve
// to positions once, not per tuple.
type Expr interface {
	// Bind resolves column names against the schema; it must be called
	// before Eval and may be called again to rebind to a new schema.
	Bind(s *stream.Schema) error
	// Eval computes the expression over the tuple.
	Eval(t stream.Tuple) stream.Value
	// String renders the expression in the concrete syntax accepted by
	// Parse, so that Parse(e.String()) reproduces the expression.
	String() string
}

// Col references a column by name.
type Col struct {
	Name  string
	index int
}

// NewCol returns a column reference expression.
func NewCol(name string) *Col { return &Col{Name: name} }

// Bind implements Expr.
func (c *Col) Bind(s *stream.Schema) error {
	i := s.Index(c.Name)
	if i < 0 {
		return fmt.Errorf("column %q not in schema %s", c.Name, s)
	}
	c.index = i
	return nil
}

// Eval implements Expr.
func (c *Col) Eval(t stream.Tuple) stream.Value { return t.Field(c.index) }

// String implements Expr.
func (c *Col) String() string { return c.Name }

// Const is a literal value.
type Const struct{ Val stream.Value }

// NewConst returns a literal expression.
func NewConst(v stream.Value) *Const { return &Const{Val: v} }

// Bind implements Expr.
func (c *Const) Bind(*stream.Schema) error { return nil }

// Eval implements Expr.
func (c *Const) Eval(stream.Tuple) stream.Value { return c.Val }

// String implements Expr.
func (c *Const) String() string { return c.Val.Format() }

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "=="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	default:
		return ">="
	}
}

// Cmp compares two sub-expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp returns a comparison expression.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// Bind implements Expr.
func (c *Cmp) Bind(s *stream.Schema) error {
	if err := c.L.Bind(s); err != nil {
		return err
	}
	return c.R.Bind(s)
}

// holds reports whether the comparison holds for a Compare result.
func (o CmpOp) holds(c int) bool {
	switch o {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	default:
		return c >= 0
	}
}

// Eval implements Expr.
func (c *Cmp) Eval(t stream.Tuple) stream.Value {
	return stream.Bool(c.Op.holds(c.L.Eval(t).Compare(c.R.Eval(t))))
}

// String implements Expr.
func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// LogicOp enumerates boolean connectives.
type LogicOp uint8

// Boolean connectives.
const (
	And LogicOp = iota
	Or
	Not
)

// Logic combines boolean sub-expressions. Not uses only L.
type Logic struct {
	Op   LogicOp
	L, R Expr
}

// NewAnd returns l && r.
func NewAnd(l, r Expr) *Logic { return &Logic{Op: And, L: l, R: r} }

// NewOr returns l || r.
func NewOr(l, r Expr) *Logic { return &Logic{Op: Or, L: l, R: r} }

// NewNot returns !l.
func NewNot(l Expr) *Logic { return &Logic{Op: Not, L: l} }

// Bind implements Expr.
func (l *Logic) Bind(s *stream.Schema) error {
	if err := l.L.Bind(s); err != nil {
		return err
	}
	if l.R != nil {
		return l.R.Bind(s)
	}
	return nil
}

// Eval implements Expr.
func (l *Logic) Eval(t stream.Tuple) stream.Value {
	switch l.Op {
	case And:
		return stream.Bool(l.L.Eval(t).AsBool() && l.R.Eval(t).AsBool())
	case Or:
		return stream.Bool(l.L.Eval(t).AsBool() || l.R.Eval(t).AsBool())
	default:
		return stream.Bool(!l.L.Eval(t).AsBool())
	}
}

// String implements Expr.
func (l *Logic) String() string {
	switch l.Op {
	case And:
		return fmt.Sprintf("(%s && %s)", l.L, l.R)
	case Or:
		return fmt.Sprintf("(%s || %s)", l.L, l.R)
	default:
		return fmt.Sprintf("!%s", l.L)
	}
}

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	default:
		return "%"
	}
}

// Arith computes arithmetic over numeric sub-expressions. Integer operands
// stay integral except under Div, which always promotes to float.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// NewArith returns an arithmetic expression.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

// Bind implements Expr.
func (a *Arith) Bind(s *stream.Schema) error {
	if err := a.L.Bind(s); err != nil {
		return err
	}
	return a.R.Bind(s)
}

// Eval implements Expr.
func (a *Arith) Eval(t stream.Tuple) stream.Value {
	return arithEval(a.Op, a.L.Eval(t), a.R.Eval(t))
}

// arithEval is the arithmetic kernel shared by the tree walk and the
// compiled closures, so both paths carry identical promotion and
// division-by-zero semantics.
func arithEval(op ArithOp, l, r stream.Value) stream.Value {
	if l.Kind() == stream.KindInt && r.Kind() == stream.KindInt {
		li, ri := l.AsInt(), r.AsInt()
		switch op {
		case Add:
			return stream.Int(li + ri)
		case Sub:
			return stream.Int(li - ri)
		case Mul:
			return stream.Int(li * ri)
		case Div:
			// Division always yields float so the runtime kind matches
			// static schema inference regardless of divisibility.
			if ri == 0 {
				return stream.Null()
			}
			return stream.Float(float64(li) / float64(ri))
		case Mod:
			if ri == 0 {
				return stream.Null()
			}
			return stream.Int(li % ri)
		}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch op {
	case Add:
		return stream.Float(lf + rf)
	case Sub:
		return stream.Float(lf - rf)
	case Mul:
		return stream.Float(lf * rf)
	case Div:
		if rf == 0 {
			return stream.Null()
		}
		return stream.Float(lf / rf)
	default:
		return stream.Null() // Mod over floats is undefined here
	}
}

// String implements Expr.
func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// HashCall hashes the named columns into a non-negative int64. Combined
// with Mod and Cmp it forms the workhorse of "half of the available
// streams" split predicates (§5.2): hash(cols) % N == bucket routes a
// deterministic 1/N of the key space.
type HashCall struct {
	Cols    []string
	indices []int
}

// NewHashCall returns a hash expression over the named columns.
func NewHashCall(cols ...string) *HashCall { return &HashCall{Cols: cols} }

// Bind implements Expr.
func (h *HashCall) Bind(s *stream.Schema) error {
	idx, err := s.Indices(h.Cols...)
	if err != nil {
		return err
	}
	h.indices = idx
	return nil
}

// Eval implements Expr.
func (h *HashCall) Eval(t stream.Tuple) stream.Value {
	hash := fnv.New64a()
	for _, i := range h.indices {
		hash.Write([]byte(t.Field(i).Format()))
		hash.Write([]byte{0x1f})
	}
	return stream.Int(int64(hash.Sum64() &^ (1 << 63)))
}

// String implements Expr.
func (h *HashCall) String() string {
	return fmt.Sprintf("hash(%s)", strings.Join(h.Cols, ", "))
}

// NewHashMod returns the predicate hash(cols) % n == bucket, the
// statistics-free split predicate of §5.2.
func NewHashMod(cols []string, n, bucket int64) Expr {
	return NewCmp(EQ,
		NewArith(Mod, NewHashCall(cols...), NewConst(stream.Int(n))),
		NewConst(stream.Int(bucket)))
}

// True is the always-true predicate.
func True() Expr { return &Const{Val: stream.Bool(true)} }

// InferKind statically determines the kind an expression produces over the
// given input schema. Map uses it to derive output schemas; comparisons and
// logic are bool, Div is always float, other arithmetic is int only when
// both operands are int.
func InferKind(e Expr, s *stream.Schema) stream.Kind {
	switch x := e.(type) {
	case *Col:
		if i := s.Index(x.Name); i >= 0 {
			return s.Field(i).Kind
		}
		return stream.KindInvalid
	case *Const:
		return x.Val.Kind()
	case *Cmp, *Logic:
		return stream.KindBool
	case *Arith:
		if x.Op == Div {
			return stream.KindFloat
		}
		if InferKind(x.L, s) == stream.KindInt && InferKind(x.R, s) == stream.KindInt {
			return stream.KindInt
		}
		return stream.KindFloat
	case *HashCall:
		return stream.KindInt
	default:
		return stream.KindInvalid
	}
}

// MustBind binds e to s and panics on failure; for static plans and tests.
func MustBind(e Expr, s *stream.Schema) Expr {
	if err := e.Bind(s); err != nil {
		panic(err)
	}
	return e
}
