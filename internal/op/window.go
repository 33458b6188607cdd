package op

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/stream"
)

// KindXSection is the registry kind of the XSection operator.
const KindXSection = "xsection"

// XSection is Aurora's cross-section windowed aggregate (mentioned in
// §2.2; semantics per the Aurora system description [2,4]): it applies an
// aggregate to fixed-size, possibly overlapping count windows over each
// group. A new window opens every advance tuples; each window closes — and
// emits — after exactly size tuples. advance == size degenerates to
// non-overlapping count windows. Incomplete windows are discarded at
// flush, matching the paper's "emit only when a window is full" setting.
//
// Spec parameters:
//
//	agg      aggregate registry name (required)
//	on       input expression (required)
//	groupby  comma-separated group-by attributes (required)
//	size     window size in tuples (required, > 0)
//	advance  window advance in tuples (default = size)
type XSection struct {
	base
	spec    Spec
	agg     Aggregate
	on      Expr
	groupBy []string
	size    int
	advance int

	groupIdx []int
	groups   map[string]*xsGroup
}

type xsGroup struct {
	vals   []stream.Value // group-by values
	opened int64          // tuples seen in this group
	wins   []xsWindow
}

type xsWindow struct {
	acc   Accumulator
	count int
	first stream.Tuple
}

// NewXSection builds an XSection operator.
func NewXSection(agg Aggregate, on Expr, groupBy []string, size, advance int) *XSection {
	spec := Spec{Kind: KindXSection, Params: map[string]string{
		"agg":     agg.Name(),
		"on":      on.String(),
		"groupby": join(groupBy, ","),
		"size":    fmt.Sprint(size),
		"advance": fmt.Sprint(advance),
	}}
	return &XSection{spec: spec, agg: agg, on: on, groupBy: groupBy, size: size, advance: advance}
}

func buildXSection(s Spec) (Operator, error) {
	aggName, err := param(s, "agg")
	if err != nil {
		return nil, err
	}
	agg, err := LookupAggregate(aggName)
	if err != nil {
		return nil, fmt.Errorf("xsection: %w", err)
	}
	onSrc, err := param(s, "on")
	if err != nil {
		return nil, err
	}
	on, err := Parse(onSrc)
	if err != nil {
		return nil, fmt.Errorf("xsection: %w", err)
	}
	groupBy, err := paramCols(s, "groupby")
	if err != nil {
		return nil, err
	}
	size, err := paramInt(s, "size")
	if err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("xsection: size must be positive")
	}
	advance, err := paramIntDefault(s, "advance", size)
	if err != nil {
		return nil, err
	}
	if advance <= 0 {
		return nil, fmt.Errorf("xsection: advance must be positive")
	}
	return &XSection{spec: s.Clone(), agg: agg, on: on, groupBy: groupBy,
		size: int(size), advance: int(advance)}, nil
}

// Spec implements Operator.
func (x *XSection) Spec() Spec { return x.spec.Clone() }

// NumIn implements Operator.
func (x *XSection) NumIn() int { return 1 }

// NumOut implements Operator.
func (x *XSection) NumOut() int { return 1 }

// Bind implements Operator.
func (x *XSection) Bind(in []*stream.Schema) ([]*stream.Schema, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("xsection: want 1 input schema, got %d", len(in))
	}
	idx, err := in[0].Indices(x.groupBy...)
	if err != nil {
		return nil, fmt.Errorf("xsection: %w", err)
	}
	x.groupIdx = idx
	if err := x.on.Bind(in[0]); err != nil {
		return nil, fmt.Errorf("xsection: %w", err)
	}
	x.groups = make(map[string]*xsGroup)
	fields := make([]stream.Field, 0, len(idx)+1)
	for _, i := range idx {
		fields = append(fields, in[0].Field(i))
	}
	fields = append(fields, stream.Field{
		Name: ResultField,
		Kind: x.agg.ResultKind(InferKind(x.on, in[0])),
	})
	out, err := stream.NewSchema(in[0].Name()+".xsection", fields...)
	if err != nil {
		return nil, fmt.Errorf("xsection: %w", err)
	}
	return []*stream.Schema{out}, nil
}

// Process implements Operator.
func (x *XSection) Process(_ int, t stream.Tuple, emit Emit) {
	key := t.KeyOf(x.groupIdx)
	g := x.groups[key]
	if g == nil {
		vals := make([]stream.Value, len(x.groupIdx))
		for i, idx := range x.groupIdx {
			vals[i] = t.Field(idx)
		}
		g = &xsGroup{vals: vals}
		x.groups[key] = g
	}
	if g.opened%int64(x.advance) == 0 {
		g.wins = append(g.wins, xsWindow{acc: x.agg.New(), first: t})
	}
	g.opened++
	v := x.on.Eval(t)
	keep := g.wins[:0]
	for _, w := range g.wins {
		w.acc.Add(v)
		w.count++
		if w.count >= x.size {
			out := make([]stream.Value, 0, len(g.vals)+1)
			out = append(out, g.vals...)
			out = append(out, w.acc.Result())
			emit(0, stream.Tuple{Seq: w.first.Seq, TS: w.first.TS, Vals: out})
		} else {
			keep = append(keep, w)
		}
	}
	g.wins = keep
}

// KindSlide is the registry kind of the Slide operator.
const KindSlide = "slide"

// Slide is Aurora's value-based sliding-window aggregate (mentioned in
// §2.2): for each input tuple it emits the aggregate over every tuple of
// the same group whose order attribute lies within the trailing window
// (order - range, order]. The order attribute is assumed non-decreasing
// within each group, which is what lets old tuples be pruned.
//
// Spec parameters:
//
//	agg      aggregate registry name (required)
//	on       input expression (required)
//	groupby  comma-separated group-by attributes (required)
//	order    order attribute name (required, numeric, non-decreasing)
//	range    trailing window width in order units (required, > 0)
type Slide struct {
	base
	spec     Spec
	agg      Aggregate
	on       Expr
	groupBy  []string
	orderCol string
	width    float64

	groupIdx []int
	orderIdx int
	// intOrder is set when the order column is an int column (unix-ns
	// timestamps, say): orders and the range are then compared as int64,
	// because float64 cannot tell neighbours 1 apart above 2^53. iwidth is
	// the integer range.
	intOrder bool
	iwidth   int64
	groups   map[string][]slideEntry
}

// slideEntry is one retained tuple: order holds its order value for a
// float column, iorder for an int column.
type slideEntry struct {
	order  float64
	iorder int64
	val    stream.Value
	seq    uint64
}

// NewSlide builds a Slide operator.
func NewSlide(agg Aggregate, on Expr, groupBy []string, orderCol string, width float64) *Slide {
	spec := Spec{Kind: KindSlide, Params: map[string]string{
		"agg":     agg.Name(),
		"on":      on.String(),
		"groupby": join(groupBy, ","),
		"order":   orderCol,
		"range":   fmt.Sprint(width),
	}}
	return &Slide{spec: spec, agg: agg, on: on, groupBy: groupBy, orderCol: orderCol, width: width}
}

func buildSlide(s Spec) (Operator, error) {
	aggName, err := param(s, "agg")
	if err != nil {
		return nil, err
	}
	agg, err := LookupAggregate(aggName)
	if err != nil {
		return nil, fmt.Errorf("slide: %w", err)
	}
	onSrc, err := param(s, "on")
	if err != nil {
		return nil, err
	}
	on, err := Parse(onSrc)
	if err != nil {
		return nil, fmt.Errorf("slide: %w", err)
	}
	groupBy, err := paramCols(s, "groupby")
	if err != nil {
		return nil, err
	}
	orderCol, err := param(s, "order")
	if err != nil {
		return nil, err
	}
	widthStr, err := param(s, "range")
	if err != nil {
		return nil, err
	}
	width, err := strconv.ParseFloat(widthStr, 64)
	if err != nil || !(width > 0) || math.IsInf(width, 1) {
		return nil, fmt.Errorf("slide: bad range %q", widthStr)
	}
	return &Slide{spec: s.Clone(), agg: agg, on: on, groupBy: groupBy,
		orderCol: orderCol, width: width}, nil
}

// Spec implements Operator.
func (sl *Slide) Spec() Spec { return sl.spec.Clone() }

// NumIn implements Operator.
func (sl *Slide) NumIn() int { return 1 }

// NumOut implements Operator.
func (sl *Slide) NumOut() int { return 1 }

// Bind implements Operator.
func (sl *Slide) Bind(in []*stream.Schema) ([]*stream.Schema, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("slide: want 1 input schema, got %d", len(in))
	}
	idx, err := in[0].Indices(sl.groupBy...)
	if err != nil {
		return nil, fmt.Errorf("slide: %w", err)
	}
	sl.groupIdx = idx
	oi := in[0].Index(sl.orderCol)
	if oi < 0 {
		return nil, fmt.Errorf("slide: no order attribute %q in %s", sl.orderCol, in[0])
	}
	sl.orderIdx = oi
	sl.intOrder = in[0].Field(oi).Kind == stream.KindInt
	if sl.intOrder {
		// Over integers, order-old >= width holds exactly when
		// order-old >= ceil(width); an integer range string is taken as
		// written, without a float64 round trip.
		sl.iwidth = math.MaxInt64
		if w, err := strconv.ParseInt(sl.spec.Params["range"], 10, 64); err == nil {
			sl.iwidth = w
		} else if sl.width < math.MaxInt64 {
			sl.iwidth = int64(math.Ceil(sl.width))
		}
	}
	if err := sl.on.Bind(in[0]); err != nil {
		return nil, fmt.Errorf("slide: %w", err)
	}
	sl.groups = make(map[string][]slideEntry)
	fields := make([]stream.Field, 0, len(idx)+2)
	for _, i := range idx {
		fields = append(fields, in[0].Field(i))
	}
	fields = append(fields, in[0].Field(oi))
	fields = append(fields, stream.Field{
		Name: ResultField,
		Kind: sl.agg.ResultKind(InferKind(sl.on, in[0])),
	})
	out, err := stream.NewSchema(in[0].Name()+".slide", fields...)
	if err != nil {
		return nil, fmt.Errorf("slide: %w", err)
	}
	return []*stream.Schema{out}, nil
}

// Process implements Operator.
func (sl *Slide) Process(_ int, t stream.Tuple, emit Emit) {
	key := t.KeyOf(sl.groupIdx)
	cur := slideEntry{val: sl.on.Eval(t), seq: t.Seq}
	if sl.intOrder {
		cur.iorder = t.Field(sl.orderIdx).AsInt()
	} else {
		cur.order = t.Field(sl.orderIdx).AsFloat()
	}
	entries := append(sl.groups[key], cur)
	// Prune entries that fell out of the trailing window.
	lo := 0
	for lo < len(entries) && sl.expired(entries[lo], cur) {
		lo++
	}
	entries = entries[lo:]
	sl.groups[key] = entries

	acc := sl.agg.New()
	for _, e := range entries {
		acc.Add(e.val)
	}
	vals := make([]stream.Value, 0, len(sl.groupIdx)+2)
	for _, idx := range sl.groupIdx {
		vals = append(vals, t.Field(idx))
	}
	vals = append(vals, t.Field(sl.orderIdx), acc.Result())
	emit(0, stream.Tuple{Seq: t.Seq, TS: t.TS, Vals: vals})
}

// expired reports whether old has left the trailing window that ends at
// cur: cur's order is at least the range past old's.
func (sl *Slide) expired(old, cur slideEntry) bool {
	if sl.intOrder {
		// The difference is taken in uint64, where it cannot overflow.
		return old.iorder <= cur.iorder && uint64(cur.iorder)-uint64(old.iorder) >= uint64(sl.iwidth)
	}
	return old.order <= cur.order-sl.width
}

func init() {
	RegisterKind(KindXSection, buildXSection)
	RegisterKind(KindSlide, buildSlide)
}
