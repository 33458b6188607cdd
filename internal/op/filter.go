package op

import (
	"fmt"

	"repro/internal/stream"
)

// KindFilter is the registry kind of the Filter operator.
const KindFilter = "filter"

// Filter(p) produces an output stream consisting of all tuples in its
// input stream that satisfy predicate p; optionally it also produces a
// second output stream of the tuples that did not (§2.2). The false-port
// form is what box splitting uses as its semantic router (§5.1).
//
// Spec parameters:
//
//	predicate  expression in the Parse syntax (required)
//	falseport  "true" to enable output port 1 for non-matching tuples
type Filter struct {
	base
	spec Spec
	pred Expr
	dual bool
	fast boolFn // compiled predicate; set by Bind, used by ProcessTrain
}

// NewFilter builds a Filter from a predicate expression. falsePort enables
// the second output stream.
func NewFilter(pred Expr, falsePort bool) *Filter {
	spec := Spec{Kind: KindFilter, Params: map[string]string{"predicate": pred.String()}}
	if falsePort {
		spec.Params["falseport"] = "true"
	}
	return &Filter{spec: spec, pred: pred, dual: falsePort}
}

func buildFilter(s Spec) (Operator, error) {
	src, err := param(s, "predicate")
	if err != nil {
		return nil, err
	}
	pred, err := Parse(src)
	if err != nil {
		return nil, err
	}
	dual, err := paramBool(s, "falseport")
	if err != nil {
		return nil, err
	}
	return &Filter{spec: s.Clone(), pred: pred, dual: dual}, nil
}

// Spec implements Operator.
func (f *Filter) Spec() Spec { return f.spec.Clone() }

// NumIn implements Operator.
func (f *Filter) NumIn() int { return 1 }

// NumOut implements Operator.
func (f *Filter) NumOut() int {
	if f.dual {
		return 2
	}
	return 1
}

// Bind implements Operator.
func (f *Filter) Bind(in []*stream.Schema) ([]*stream.Schema, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("filter: want 1 input schema, got %d", len(in))
	}
	if err := f.pred.Bind(in[0]); err != nil {
		return nil, fmt.Errorf("filter: %w", err)
	}
	f.fast = compileBool(f.pred)
	if f.dual {
		return []*stream.Schema{in[0], in[0]}, nil
	}
	return []*stream.Schema{in[0]}, nil
}

// Process implements Operator.
func (f *Filter) Process(_ int, t stream.Tuple, emit Emit) {
	if f.pred.Eval(t).AsBool() {
		emit(0, t)
	} else if f.dual {
		emit(1, t)
	}
}

// ProcessTrain implements TrainProcessor: the whole train runs through
// the compiled predicate with one dispatch and zero allocations.
func (f *Filter) ProcessTrain(_ int, ts []stream.Tuple, emit Emit) {
	pred := f.fast
	if pred == nil { // unbound: preserve Process's tree-eval behavior
		for i := range ts {
			f.Process(0, ts[i], emit)
		}
		return
	}
	if f.dual {
		for i := range ts {
			if pred(&ts[i]) {
				emit(0, ts[i])
			} else {
				emit(1, ts[i])
			}
		}
		return
	}
	for i := range ts {
		if pred(&ts[i]) {
			emit(0, ts[i])
		}
	}
}

// Predicate returns the filter's predicate expression.
func (f *Filter) Predicate() Expr { return f.pred }

// KindMap is the registry kind of the Map operator.
const KindMap = "map"

// Map applies a list of named expressions to each input tuple, producing
// one output tuple whose fields are the expression results (§2.2 mentions
// Map as Aurora's mapping operator).
//
// Spec parameters:
//
//	exprs  semicolon-separated name=expression list, e.g.
//	       "sym=sym; px2=(price * 2)"
type Map struct {
	base
	spec  Spec
	names []string
	exprs []Expr
	fast  []valFn // compiled projections; set by Bind, used by ProcessTrain
}

// NewMap builds a Map from parallel name and expression lists.
func NewMap(names []string, exprs []Expr) (*Map, error) {
	if len(names) != len(exprs) || len(names) == 0 {
		return nil, fmt.Errorf("map: need equal, non-empty name and expr lists")
	}
	parts := make([]string, len(names))
	for i := range names {
		parts[i] = names[i] + "=" + exprs[i].String()
	}
	spec := Spec{Kind: KindMap, Params: map[string]string{"exprs": join(parts, "; ")}}
	return &Map{spec: spec, names: names, exprs: exprs}, nil
}

func join(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}

func buildMap(s Spec) (Operator, error) {
	src, err := param(s, "exprs")
	if err != nil {
		return nil, err
	}
	var names []string
	var exprs []Expr
	for _, item := range splitTrim(src, ';') {
		eq := indexByte(item, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("map: bad exprs item %q (want name=expr)", item)
		}
		name := trim(item[:eq])
		e, err := Parse(item[eq+1:])
		if err != nil {
			return nil, fmt.Errorf("map: %w", err)
		}
		names = append(names, name)
		exprs = append(exprs, e)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("map: empty exprs")
	}
	return &Map{spec: s.Clone(), names: names, exprs: exprs}, nil
}

// Spec implements Operator.
func (m *Map) Spec() Spec { return m.spec.Clone() }

// NumIn implements Operator.
func (m *Map) NumIn() int { return 1 }

// NumOut implements Operator.
func (m *Map) NumOut() int { return 1 }

// Bind implements Operator.
func (m *Map) Bind(in []*stream.Schema) ([]*stream.Schema, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("map: want 1 input schema, got %d", len(in))
	}
	fields := make([]stream.Field, len(m.exprs))
	for i, e := range m.exprs {
		if err := e.Bind(in[0]); err != nil {
			return nil, fmt.Errorf("map: %w", err)
		}
		k := InferKind(e, in[0])
		if k == stream.KindInvalid {
			return nil, fmt.Errorf("map: cannot infer kind of %s", e)
		}
		fields[i] = stream.Field{Name: m.names[i], Kind: k}
	}
	out, err := stream.NewSchema(in[0].Name()+".map", fields...)
	if err != nil {
		return nil, fmt.Errorf("map: %w", err)
	}
	m.fast = make([]valFn, len(m.exprs))
	for i, e := range m.exprs {
		m.fast[i] = compileValue(e)
	}
	return []*stream.Schema{out}, nil
}

// Process implements Operator.
func (m *Map) Process(_ int, t stream.Tuple, emit Emit) {
	vals := make([]stream.Value, len(m.exprs))
	for i, e := range m.exprs {
		vals[i] = e.Eval(t)
	}
	emit(0, stream.Tuple{Seq: t.Seq, TS: t.TS, Vals: vals})
}

// ProcessTrain implements TrainProcessor: projections run compiled, and
// output Vals come from the stream freelist, marked pool-owned so the
// engine reclaims them when the projected tuple dies.
func (m *Map) ProcessTrain(_ int, ts []stream.Tuple, emit Emit) {
	if m.fast == nil { // unbound: preserve Process's behavior
		for i := range ts {
			m.Process(0, ts[i], emit)
		}
		return
	}
	for i := range ts {
		t := &ts[i]
		vals := stream.GetVals(len(m.fast))
		for j, f := range m.fast {
			vals[j] = f(t)
		}
		out := stream.Tuple{Seq: t.Seq, TS: t.TS, Vals: vals}
		out.MarkPooled()
		emit(0, out)
	}
}

// ConsumesInput implements Consumer: Map's outputs never alias its input
// tuples, and it retains nothing across calls.
func (m *Map) ConsumesInput() {}

// KindUnion is the registry kind of the Union operator.
const KindUnion = "union"

// Union produces an output stream consisting of all tuples on its n input
// streams (§2.2). It is order-preserving per input but makes no ordering
// promise across inputs, which is why merging a split Tumble needs a WSort
// downstream of the Union (§5.1).
//
// Spec parameters:
//
//	inputs  number of input ports (default 2)
type Union struct {
	base
	spec Spec
	n    int
}

// NewUnion builds a Union over n input streams.
func NewUnion(n int) *Union {
	return &Union{
		spec: Spec{Kind: KindUnion, Params: map[string]string{"inputs": fmt.Sprint(n)}},
		n:    n,
	}
}

func buildUnion(s Spec) (Operator, error) {
	n, err := paramIntDefault(s, "inputs", 2)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("union: inputs must be >= 1, got %d", n)
	}
	return &Union{spec: s.Clone(), n: int(n)}, nil
}

// Spec implements Operator.
func (u *Union) Spec() Spec { return u.spec.Clone() }

// NumIn implements Operator.
func (u *Union) NumIn() int { return u.n }

// NumOut implements Operator.
func (u *Union) NumOut() int { return 1 }

// Bind implements Operator.
func (u *Union) Bind(in []*stream.Schema) ([]*stream.Schema, error) {
	if len(in) != u.n {
		return nil, fmt.Errorf("union: want %d input schemas, got %d", u.n, len(in))
	}
	for i := 1; i < len(in); i++ {
		if !in[0].Compatible(in[i]) {
			return nil, fmt.Errorf("union: input %d schema %s incompatible with %s", i, in[i], in[0])
		}
	}
	return []*stream.Schema{in[0]}, nil
}

// Process implements Operator.
func (u *Union) Process(_ int, t stream.Tuple, emit Emit) { emit(0, t) }

// ProcessTrain implements TrainProcessor: a straight pass-through of the
// train with one dispatch.
func (u *Union) ProcessTrain(_ int, ts []stream.Tuple, emit Emit) {
	for i := range ts {
		emit(0, ts[i])
	}
}

func init() {
	RegisterKind(KindFilter, buildFilter)
	RegisterKind(KindMap, buildMap)
	RegisterKind(KindUnion, buildUnion)
}

// Small string helpers kept local to avoid importing strings in the hot
// path files repeatedly.

func splitTrim(s string, sep byte) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == sep {
			if item := trim(s[start:i]); item != "" {
				out = append(out, item)
			}
			start = i + 1
		}
	}
	return out
}

func trim(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}
