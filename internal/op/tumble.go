package op

import (
	"fmt"

	"repro/internal/stream"
)

// KindTumble is the registry kind of the Tumble operator.
const KindTumble = "tumble"

// ResultField is the name of the aggregate output column every windowed
// aggregate operator appends after its group-by columns.
const ResultField = "result"

// Tumble applies an aggregate function to disjoint windows over the input
// stream; the group-by attributes map tuples to the windows they belong to
// (§2.2). Windows are maximal runs of consecutive tuples sharing the same
// group-by values: a window closes — and its aggregate is emitted — when a
// tuple arrives whose group-by values differ from the open run's. This is
// exactly the semantics of the paper's worked example (Fig 2): with
// agg=avg(B) and group-by A, the seven sample tuples yield (A=1, 2.5) upon
// tuple #3 and (A=2, 3.0) upon tuple #6, with the A=4 window still open.
//
// Per the paper's footnote, the emission/timeout parameters are fixed to
// "emit whenever a window is full, never on timeout".
//
// Spec parameters:
//
//	agg      aggregate registry name (required): cnt, sum, avg, max, ...
//	on       expression whose value feeds the aggregate (required; cnt
//	         may use any column)
//	groupby  comma-separated group-by attribute names (required)
type Tumble struct {
	base
	spec    Spec
	agg     Aggregate
	on      Expr
	groupBy []string

	groupIdx []int
	out      *stream.Schema
	onFast   valFn // compiled on-expression; set by Bind, used by ProcessTrain

	open     bool
	acc      Accumulator
	curVals  []stream.Value // group-by values of the open window (reused backing)
	firstSeq uint64         // Seq/TS of the earliest tuple in the open window —
	firstTS  int64          // scalars, so Tumble retains no input tuple
}

// NewTumble builds a Tumble with the given aggregate, input expression,
// and group-by attributes.
func NewTumble(agg Aggregate, on Expr, groupBy []string) *Tumble {
	spec := Spec{Kind: KindTumble, Params: map[string]string{
		"agg":     agg.Name(),
		"on":      on.String(),
		"groupby": join(groupBy, ","),
	}}
	return &Tumble{spec: spec, agg: agg, on: on, groupBy: groupBy}
}

func buildTumble(s Spec) (Operator, error) {
	aggName, err := param(s, "agg")
	if err != nil {
		return nil, err
	}
	agg, err := LookupAggregate(aggName)
	if err != nil {
		return nil, fmt.Errorf("tumble: %w", err)
	}
	onSrc, err := param(s, "on")
	if err != nil {
		return nil, err
	}
	on, err := Parse(onSrc)
	if err != nil {
		return nil, fmt.Errorf("tumble: %w", err)
	}
	groupBy, err := paramCols(s, "groupby")
	if err != nil {
		return nil, err
	}
	return &Tumble{spec: s.Clone(), agg: agg, on: on, groupBy: groupBy}, nil
}

// Spec implements Operator.
func (tb *Tumble) Spec() Spec { return tb.spec.Clone() }

// NumIn implements Operator.
func (tb *Tumble) NumIn() int { return 1 }

// NumOut implements Operator.
func (tb *Tumble) NumOut() int { return 1 }

// Bind implements Operator.
func (tb *Tumble) Bind(in []*stream.Schema) ([]*stream.Schema, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("tumble: want 1 input schema, got %d", len(in))
	}
	idx, err := in[0].Indices(tb.groupBy...)
	if err != nil {
		return nil, fmt.Errorf("tumble: %w", err)
	}
	tb.groupIdx = idx
	if err := tb.on.Bind(in[0]); err != nil {
		return nil, fmt.Errorf("tumble: %w", err)
	}
	tb.onFast = compileValue(tb.on)
	fields := make([]stream.Field, 0, len(idx)+1)
	for _, i := range idx {
		fields = append(fields, in[0].Field(i))
	}
	fields = append(fields, stream.Field{
		Name: ResultField,
		Kind: tb.agg.ResultKind(InferKind(tb.on, in[0])),
	})
	out, err := stream.NewSchema(in[0].Name()+".tumble", fields...)
	if err != nil {
		return nil, fmt.Errorf("tumble: %w", err)
	}
	tb.out = out
	return []*stream.Schema{out}, nil
}

// sameGroup reports whether t belongs to the open window: its group-by
// values equal the window's, field by field. Direct Value equality
// replaces the formatted-string key of earlier versions — same window
// boundaries over typed columns, without a per-tuple strconv allocation.
func (tb *Tumble) sameGroup(t *stream.Tuple) bool {
	for i, idx := range tb.groupIdx {
		if !t.Field(idx).Equal(tb.curVals[i]) {
			return false
		}
	}
	return true
}

// openWindow starts a window at t, copying the group-by values into the
// reused curVals backing (Values are copied by value, so recycling t's
// Vals later cannot corrupt the window state). The accumulator is reused
// across windows, reset rather than reallocated.
func (tb *Tumble) openWindow(t *stream.Tuple) {
	tb.open = true
	if tb.acc == nil {
		tb.acc = tb.agg.New()
	} else {
		tb.acc.Reset()
	}
	tb.curVals = tb.curVals[:0]
	for _, idx := range tb.groupIdx {
		tb.curVals = append(tb.curVals, t.Field(idx))
	}
	tb.firstSeq, tb.firstTS = t.Seq, t.TS
}

// Process implements Operator.
func (tb *Tumble) Process(_ int, t stream.Tuple, emit Emit) {
	if tb.open && !tb.sameGroup(&t) {
		tb.emitWindow(emit)
	}
	if !tb.open {
		tb.openWindow(&t)
	}
	tb.acc.Add(tb.on.Eval(t))
}

// ProcessTrain implements TrainProcessor: one dispatch per train with the
// compiled on-expression; window state transitions are identical to the
// per-tuple path (both share sameGroup/openWindow/emitWindow).
func (tb *Tumble) ProcessTrain(_ int, ts []stream.Tuple, emit Emit) {
	if tb.onFast == nil { // unbound: preserve Process's behavior
		for i := range ts {
			tb.Process(0, ts[i], emit)
		}
		return
	}
	for i := range ts {
		t := &ts[i]
		if tb.open && !tb.sameGroup(t) {
			tb.emitWindow(emit)
		}
		if !tb.open {
			tb.openWindow(t)
		}
		tb.acc.Add(tb.onFast(t))
	}
}

// ConsumesInput implements Consumer: window state copies Seq/TS and
// group-by Values out of the input, never the tuple or its Vals slice.
func (tb *Tumble) ConsumesInput() {}

// Flush implements Operator: emits the open window, matching the drain
// protocol of §5.1 (the network is stabilized and all in-flight state must
// reach the output before a transformation).
func (tb *Tumble) Flush(emit Emit) {
	if tb.open {
		tb.emitWindow(emit)
	}
}

func (tb *Tumble) emitWindow(emit Emit) {
	n := len(tb.curVals)
	vals := stream.GetVals(n + 1)
	copy(vals, tb.curVals)
	vals[n] = tb.acc.Result()
	out := stream.Tuple{Seq: tb.firstSeq, TS: tb.firstTS, Vals: vals}
	out.MarkPooled()
	emit(0, out)
	tb.open = false
}

// Aggregate returns the tumble's aggregate function; the splitter uses it
// to check combinability and derive the merge network (§5.1).
func (tb *Tumble) Aggregate() Aggregate { return tb.agg }

// GroupBy returns the group-by attribute names.
func (tb *Tumble) GroupBy() []string { return append([]string(nil), tb.groupBy...) }

func init() { RegisterKind(KindTumble, buildTumble) }
