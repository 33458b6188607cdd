// Package trace is the causal tracing substrate the load-management loop
// of §7.1 needs: before a node can decide to slide or split boxes it must
// know *where* output latency comes from — queue wait, box processing, or
// network transfer. A Span rides on each sampled tuple from ingest to
// delivery and decomposes its end-to-end latency into those three
// components with an accounting identity that holds by construction:
// every mark advances a cursor and charges the elapsed segment to exactly
// one component, so Queue + Proc + Net always equals delivery time minus
// birth time, on any clock (virtual or wall) whose reads are monotonic
// along the tuple's path.
//
// The package is a leaf: it imports nothing from the repository, so the
// stream, transport, engine, and core layers can all depend on it.
package trace

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
)

// Kind classifies a latency segment or recorder event.
type Kind uint8

const (
	// KindQueue is time spent waiting in a box input queue.
	KindQueue Kind = iota
	// KindProc is box processing time.
	KindProc
	// KindNet is network transfer: serialization, flight time, and any
	// admission delay before the receiving engine saw the tuple.
	KindNet
	// KindDeliver is the whole-span summary emitted when a traced tuple
	// reaches an application output.
	KindDeliver
	// KindMark is an instantaneous annotation: a fault, an oracle
	// violation, a drop — anything worth a line in the flight recorder.
	KindMark
)

// String names the kind for dumps and Chrome trace categories.
func (k Kind) String() string {
	switch k {
	case KindQueue:
		return "queue"
	case KindProc:
		return "proc"
	case KindNet:
		return "net"
	case KindDeliver:
		return "deliver"
	case KindMark:
		return "mark"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// maxStages bounds the per-span detail so a pathological cycle cannot
// grow a span without bound; totals keep accumulating past the cap.
const maxStages = 128

// Stage is one attributed segment of a span's journey.
type Stage struct {
	Kind  Kind
	Name  string // box id, link label, or output name
	Start int64  // ns, in the clock domain the segment was measured in
	Dur   int64  // ns
	// Replica is the 1-based ordinal of the key-partition replica that
	// executed the segment when the box was split (0 = an unsplit box),
	// so a Chrome trace can show which shard a tuple's key landed on.
	// Stage detail is node-local and never crosses the wire, so this
	// field does not affect the codec.
	Replica int
}

// Span is the per-tuple trace context. It is created by a Tracer at
// ingest (or reconstructed by the transport codec on receive), shared by
// pointer as the tuple moves through queues and boxes, and finalized when
// the tuple reaches an application output. Spans are not safe for
// concurrent mutation; the engine is single-threaded and cross-process
// hops serialize the span into the wire format, so no two goroutines
// ever mark the same span.
type Span struct {
	ID    uint64
	Birth int64 // ns, the tuple's TS when tracing began
	// Cursor is the end of the last attributed segment. The next mark
	// charges [Cursor, now] to its component.
	Cursor int64
	// Queue, Proc, and Net are the accumulated components in ns.
	Queue, Proc, Net int64
	// End is the delivery time; zero until Finish.
	End int64
	// Stages is the bounded per-segment detail (summaries survive even
	// when it caps out).
	Stages []Stage

	done bool
}

// Mark charges the segment from the span's cursor to now against the
// given component and advances the cursor. Zero-length segments update
// the cursor but record no stage.
func (s *Span) Mark(kind Kind, name string, now int64) {
	s.MarkReplica(kind, name, 0, now)
}

// MarkReplica is Mark with key-partition attribution: segments executed
// by a split box's replica carry the replica's 1-based ordinal, so traces
// distinguish which shard served a tuple.
func (s *Span) MarkReplica(kind Kind, name string, replica int, now int64) {
	if s == nil || s.done {
		return
	}
	d := now - s.Cursor
	switch kind {
	case KindQueue:
		s.Queue += d
	case KindProc:
		s.Proc += d
	case KindNet:
		s.Net += d
	default:
		return
	}
	if d != 0 && len(s.Stages) < maxStages {
		s.Stages = append(s.Stages, Stage{Kind: kind, Name: name, Start: s.Cursor, Dur: d, Replica: replica})
	}
	s.Cursor = now
}

// Finish closes the span at an application output, charging any residual
// segment since the last mark to processing (the final box's emit path).
func (s *Span) Finish(output string, now int64) {
	if s == nil || s.done {
		return
	}
	s.Mark(KindProc, output, now)
	s.End = now
	s.done = true
}

// Done reports whether the span has been finished.
func (s *Span) Done() bool { return s != nil && s.done }

// Total returns the end-to-end latency of a finished span.
func (s *Span) Total() int64 { return s.End - s.Birth }

// Components returns the queue/proc/net decomposition. For a finished
// span, q+p+n == Total() exactly.
func (s *Span) Components() (q, p, n int64) { return s.Queue, s.Proc, s.Net }

// Tracer decides which tuples get spans and allocates their identities.
// A nil *Tracer is the disabled state: every call is safe and does
// nothing, so call sites pay only a nil check when tracing is off.
type Tracer struct {
	node  string
	every uint64
	n     atomic.Uint64
	ids   atomic.Uint64
	salt  uint64
	rec   *Recorder
}

// NewTracer returns a tracer for one node that samples every'th ingested
// tuple (1 traces everything; 0 is treated as 1) and records completed
// spans and annotations into rec (which may be nil).
func NewTracer(node string, every int, rec *Recorder) *Tracer {
	if every < 1 {
		every = 1
	}
	h := fnv.New64a()
	h.Write([]byte(node))
	return &Tracer{
		node:  node,
		every: uint64(every),
		salt:  h.Sum64() << 40, // node-distinct high bits keep IDs unique across processes
		rec:   rec,
	}
}

// Node returns the tracer's node identity.
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// Recorder returns the tracer's flight recorder (nil when absent).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Sample returns a fresh span for a tuple born at birth, or nil when the
// tuple is not sampled.
func (t *Tracer) Sample(birth int64) *Span {
	if t == nil {
		return nil
	}
	if t.n.Add(1)%t.every != 0 {
		return nil
	}
	return &Span{
		ID:     t.salt | (t.ids.Add(1) & (1<<40 - 1)),
		Birth:  birth,
		Cursor: birth,
	}
}

// Complete finalizes a span delivered to the named output at now and
// writes its stages plus a summary event into the flight recorder.
func (t *Tracer) Complete(s *Span, output string, now int64) {
	if t == nil || s == nil || s.done {
		return
	}
	s.Finish(output, now)
	if t.rec == nil {
		return
	}
	for _, st := range s.Stages {
		t.rec.Add(Event{TraceID: s.ID, Node: t.node, Name: st.Name, Kind: st.Kind,
			Start: st.Start, Dur: st.Dur, Replica: st.Replica})
	}
	t.rec.Add(Event{TraceID: s.ID, Node: t.node, Name: output, Kind: KindDeliver,
		Start: s.Birth, Dur: s.End - s.Birth})
}

// Annotate drops an instantaneous mark (fault, violation, drop) into the
// flight recorder, outside any span.
func (t *Tracer) Annotate(name string, now int64) {
	if t == nil || t.rec == nil {
		return
	}
	t.rec.Add(Event{Node: t.node, Name: name, Kind: KindMark, Start: now})
}

// AnnotateID is Annotate carrying an explicit id in the mark's TraceID
// slot. The event journal's correlation ids use the same node-salted
// scheme as span ids, so a control-plane decision (journal event) and
// its trace mark (split installed, fault injected) share one id and a
// post-mortem can join the two timelines.
func (t *Tracer) AnnotateID(id uint64, name string, now int64) {
	if t == nil || t.rec == nil {
		return
	}
	t.rec.Add(Event{TraceID: id, Node: t.node, Name: name, Kind: KindMark, Start: now})
}

// FormatEvents renders events one per line for violation dumps and logs.
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&b, "%12d %-8s %-10s %-24s dur=%-10d trace=%d\n",
			ev.Start, ev.Node, ev.Kind, ev.Name, ev.Dur, ev.TraceID)
	}
	return b.String()
}
