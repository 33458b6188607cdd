package stream

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Tuple is one stream event. Unlike relational tuples, stream tuples are
// generated in real time and are never available in their entirety at any
// given point (paper §2.1).
//
// Seq is a monotonically increasing sequence number assigned by the origin
// server; the high-availability protocol of §6.2 depends on it for output
// queue truncation. TS is the event timestamp in the clock of the
// environment that produced it (virtual nanoseconds under netsim, unix
// nanoseconds otherwise).
type Tuple struct {
	Seq  uint64
	TS   int64
	Vals []Value

	// Span is the optional causal trace context: nil for untraced tuples,
	// shared by pointer through queues, boxes, and in-process links so the
	// latency decomposition accumulates along the whole path. It is
	// diagnostic metadata — excluded from value equality and from MemSize
	// buffer accounting.
	Span *trace.Span

	// pooled marks Vals as drawn from the package freelist (GetVals). Only
	// the engine and the kernels it runs may act on it: a pooled tuple's
	// backing array is returned via Recycle at the points where the tuple
	// provably dies (a consuming box, a filter's drop, an output with no
	// hook). Any code path that creates a second reference to Vals
	// (fan-out, history retention, ad hoc taps, the output hook) must call
	// Disown first. A pooled tuple handed to engine.IngestTrain passes its
	// array to that engine.
	pooled bool
}

// NewTuple builds a tuple with the given values and zero Seq/TS.
func NewTuple(vals ...Value) Tuple { return Tuple{Vals: vals} }

// Clone returns a deep copy whose value slice does not alias the original.
func (t Tuple) Clone() Tuple {
	c := t
	c.Vals = append([]Value(nil), t.Vals...)
	c.pooled = false
	return c
}

// MarkPooled flags Vals as pool-owned; the caller asserts the slice came
// from GetVals and that no other reference to it exists.
func (t *Tuple) MarkPooled() { t.pooled = true }

// Pooled reports whether Vals is flagged as pool-owned.
func (t Tuple) Pooled() bool { return t.pooled }

// Disown clears the pooled flag without recycling, surrendering the
// backing array to the garbage collector. Required before any operation
// that aliases Vals outside the engine's ownership tracking.
func (t *Tuple) Disown() { t.pooled = false }

// Recycle returns a pooled Vals backing array to the freelist and clears
// the tuple. It reports whether anything was reclaimed. Callers must
// guarantee no other reference to Vals survives.
func (t *Tuple) Recycle() bool {
	if !t.pooled {
		return false
	}
	t.pooled = false
	if t.Vals == nil {
		return false
	}
	PutVals(t.Vals)
	t.Vals = nil
	return true
}

// Field returns the i'th value; out-of-range indices return null, so that
// operators survive schema drift during dynamic reconfiguration.
func (t Tuple) Field(i int) Value {
	if i < 0 || i >= len(t.Vals) {
		return Value{}
	}
	return t.Vals[i]
}

// EqualValues reports whether two tuples carry identical values (Seq and TS
// are ignored: split transparency in §5.1 is defined over values).
func (t Tuple) EqualValues(o Tuple) bool {
	if len(t.Vals) != len(o.Vals) {
		return false
	}
	for i := range t.Vals {
		if !t.Vals[i].Equal(o.Vals[i]) {
			return false
		}
	}
	return true
}

// MemSize approximates the tuple's memory footprint in bytes for buffer
// accounting in the storage manager. It charges the full capacity of the
// Vals backing array, not just its length: pooled slices are rounded up
// to a size class, and the spare slots are real memory the connection
// point is holding, so length-based accounting would silently
// under-report buffered bytes (and the spill high-water mark) whenever
// the pool hands back an oversized class.
func (t Tuple) MemSize() int {
	n := 24 // Seq + TS + slice header
	for _, v := range t.Vals {
		n += v.MemSize()
	}
	n += (cap(t.Vals) - len(t.Vals)) * valueHeader
	return n
}

// String renders the tuple as (v1, v2, ...)@seq.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t.Vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.Format())
	}
	fmt.Fprintf(&b, ")@%d", t.Seq)
	return b.String()
}

// KeyOf concatenates the formatted values at the given indices into a
// grouping key. It is used by Tumble/XSection/Slide group-by evaluation and
// by content-based split predicates.
func (t Tuple) KeyOf(indices []int) string {
	if len(indices) == 1 {
		return t.Field(indices[0]).Format()
	}
	var b strings.Builder
	for i, idx := range indices {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(t.Field(idx).Format())
	}
	return b.String()
}

// TuplesEqualValues reports element-wise EqualValues over two slices.
func TuplesEqualValues(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].EqualValues(b[i]) {
			return false
		}
	}
	return true
}

// FormatTuples renders a tuple slice one per line, for test diagnostics.
func FormatTuples(ts []Tuple) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
