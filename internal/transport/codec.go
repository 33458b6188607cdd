// Package transport implements the message transport of §4.3: many
// logical message streams multiplexed onto a single connection between a
// node pair, with a message scheduler that shares the connection's
// bandwidth according to prescribed weights derived from QoS
// specifications or contractual obligations. A FIFO scheduler and
// independent per-stream connections are provided as the baselines the
// paper argues against.
//
// The wire format is a compact self-describing binary encoding so that
// tuples, flow messages (§6.2), and control traffic share one framing.
package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/trace"
)

// MsgKind discriminates multiplexed message types.
type MsgKind uint8

const (
	// KindData carries a batch of tuples on a logical stream.
	KindData MsgKind = iota
	// KindFlow is a §6.2 flow message used by the HA truncation protocol.
	KindFlow
	// KindBackChannel carries a truncation checkpoint upstream (§6.2).
	KindBackChannel
	// KindHeartbeat is a §6.3 failure-detection heartbeat.
	KindHeartbeat
	// KindControl is higher-layer control traffic (catalog updates,
	// contract negotiation, remote definitions).
	KindControl
)

// Msg is one message on a logical stream between two nodes. BaseSeq is the
// batch's base sequence number: §6.2 observes that it is sufficient to
// include only the base, with per-tuple numbers regenerated by incrementing
// at the receiver.
type Msg struct {
	Stream  string
	Kind    MsgKind
	BaseSeq uint64
	Tuples  []stream.Tuple
	Ctrl    []byte
	// Digests is the statistics-plane piggyback: load digests gossiped on
	// whatever traffic already flows between the nodes. Empty on most
	// messages; announced by the kind byte's kindStats bit when present.
	Digests []stats.Digest
	// More is a local hint, never encoded. On a message the TCP transport
	// delivers it means a complete next frame from the same peer is already
	// buffered, so the handler will run again without waiting. On a message
	// handed to Send it means "I am about to send again": the message is
	// queued for the write loop, where it can share a write with what
	// follows, instead of being written at once on the caller's goroutine.
	// A relay copies the first onto the second; everyone else leaves it
	// false.
	More bool
}

// kindTraced is the high bit of the kind byte: set when the message
// carries a trace trailer after the tuple batch. Untraced messages are
// byte-identical to the original wire format, so old captures and the
// fuzz corpus still decode.
const kindTraced = 0x80

// kindStats is the next flag bit: set when a stats-digest trailer
// follows the trace trailer (or the tuple batch when untraced). Messages
// without digests stay byte-identical to the pre-stats wire format.
const kindStats = 0x40

// kindFlags masks every optional-trailer announcement off the kind byte.
const kindFlags = kindTraced | kindStats

// Encode appends the message's wire form to dst and returns the extended
// slice. When any tuple carries a trace span, a trailing trace section is
// appended and announced by the kind byte's high bit — one optional
// trailing field, invisible to untraced traffic.
func Encode(dst []byte, m Msg) []byte {
	traced := 0
	for _, t := range m.Tuples {
		if t.Span != nil {
			traced++
		}
	}
	kind := byte(m.Kind)
	if traced > 0 {
		kind |= kindTraced
	}
	if len(m.Digests) > 0 {
		kind |= kindStats
	}
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(m.Stream)))
	dst = append(dst, m.Stream...)
	dst = binary.AppendUvarint(dst, m.BaseSeq)
	dst = binary.AppendUvarint(dst, uint64(len(m.Ctrl)))
	dst = append(dst, m.Ctrl...)
	dst = binary.AppendUvarint(dst, uint64(len(m.Tuples)))
	for _, t := range m.Tuples {
		dst = encodeTuple(dst, t)
	}
	if traced > 0 {
		dst = encodeTraceTrailer(dst, m.Tuples, traced)
	}
	if len(m.Digests) > 0 {
		dst = stats.AppendDigests(dst, m.Digests)
	}
	return dst
}

// encodeTraceTrailer serializes the span summaries of the traced tuples:
// a count, then per traced tuple its index in the batch and the span's
// identity, birth, cursor, and accumulated components. Stage detail stays
// node-local (the flight recorder holds it); only the running totals
// cross the wire.
func encodeTraceTrailer(dst []byte, tuples []stream.Tuple, traced int) []byte {
	dst = binary.AppendUvarint(dst, uint64(traced))
	for i, t := range tuples {
		sp := t.Span
		if sp == nil {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(i))
		dst = binary.AppendUvarint(dst, sp.ID)
		dst = binary.AppendVarint(dst, sp.Birth)
		dst = binary.AppendVarint(dst, sp.Cursor)
		dst = binary.AppendVarint(dst, sp.Queue)
		dst = binary.AppendVarint(dst, sp.Proc)
		dst = binary.AppendVarint(dst, sp.Net)
	}
	return dst
}

// decodeTraceTrailer parses the trace section and attaches fresh spans to
// the indexed tuples. It returns the bytes consumed.
func decodeTraceTrailer(src []byte, tuples []stream.Tuple) (int, error) {
	pos := 0
	count, used, err := readUvarint(src)
	if err != nil {
		return 0, err
	}
	pos += used
	// Each entry is at least 7 bytes (seven varints), so a count beyond
	// the remaining buffer is corrupt.
	if count > uint64(len(src)-pos) {
		return 0, fmt.Errorf("transport: truncated trace trailer")
	}
	for e := uint64(0); e < count; e++ {
		idx, used, err := readUvarint(src[pos:])
		if err != nil {
			return 0, err
		}
		pos += used
		if idx >= uint64(len(tuples)) {
			return 0, fmt.Errorf("transport: trace entry for tuple %d of %d", idx, len(tuples))
		}
		sp := &trace.Span{}
		if sp.ID, used, err = readUvarint(src[pos:]); err != nil {
			return 0, err
		}
		pos += used
		for _, f := range []*int64{&sp.Birth, &sp.Cursor, &sp.Queue, &sp.Proc, &sp.Net} {
			if *f, used, err = readVarint(src[pos:]); err != nil {
				return 0, err
			}
			pos += used
		}
		tuples[idx].Span = sp
	}
	return pos, nil
}

func encodeTuple(dst []byte, t stream.Tuple) []byte {
	dst = binary.AppendUvarint(dst, t.Seq)
	dst = binary.AppendVarint(dst, t.TS)
	dst = binary.AppendUvarint(dst, uint64(len(t.Vals)))
	for _, v := range t.Vals {
		dst = append(dst, byte(v.Kind()))
		switch v.Kind() {
		case stream.KindInt:
			dst = binary.AppendVarint(dst, v.AsInt())
		case stream.KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
		case stream.KindString:
			s := v.AsString()
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		case stream.KindBool:
			b := byte(0)
			if v.AsBool() {
				b = 1
			}
			dst = append(dst, b)
		case stream.KindInvalid:
			// null: kind byte only
		}
	}
	return dst
}

// Decode parses one message from src, returning the message and the number
// of bytes consumed. Every returned byte slice and tuple is freshly
// allocated — nothing aliases src — so the caller may reuse or discard the
// source buffer immediately.
func Decode(src []byte) (Msg, int, error) {
	var m Msg
	pos, err := DecodeInto(&m, src)
	return m, pos, err
}

// DecodeInto parses one message from src into m, reusing m's backing
// storage where capacity allows: the Tuples slice, each reused tuple
// slot's Vals array, the Ctrl buffer, and (by comparison, not copy) the
// Stream string. Decoded data still never aliases src.
//
// Ownership contract: the caller must own m exclusively, including every
// Vals array its tuple slots point at, and must not retain references into
// m's slices across calls. The TCP read loop does not use it: it hands
// each frame's Vals arrays to its handler, so it decodes with decodeFrame,
// which draws fresh arrays from the stream pool instead of reusing the
// slots'. On error m's contents are unspecified.
func DecodeInto(m *Msg, src []byte) (int, error) { return decodeFrame(m, src, nil) }

// decodeFrame is the one decoder. With draw nil it is DecodeInto. With
// draw set it is the TCP read loop's decode: it reuses m's Tuples slice,
// Ctrl buffer and Stream as DecodeInto does, but never a slot's Vals, since
// the previous frame's arrays went to the handler. Each tuple's Vals is
// drawn from the stream pool instead — one GetValsTrain per frame, sized by
// the first tuple's arity, into the caller's reused *draw — and marked
// pool-owned, so an engine that ingests the tuple can recycle the array
// when the tuple dies.
func decodeFrame(m *Msg, src []byte, draw *[][]stream.Value) (int, error) {
	if len(src) == 0 {
		return 0, fmt.Errorf("transport: empty buffer")
	}
	pos := 0
	traced := src[pos]&kindTraced != 0
	hasStats := src[pos]&kindStats != 0
	m.Kind = MsgKind(src[pos] &^ kindFlags)
	pos++
	n, used, err := readUvarint(src[pos:])
	if err != nil {
		return 0, err
	}
	pos += used
	// Length fields are compared in uint64 against the remaining bytes:
	// converting an attacker-controlled length to int first could wrap
	// negative and defeat the bounds check.
	if n > uint64(len(src)-pos) {
		return 0, fmt.Errorf("transport: truncated stream name")
	}
	// Steady-state traffic repeats a handful of stream names; comparing
	// before converting keeps the previous string (no allocation) when it
	// matches. The conversion inside the comparison does not allocate.
	if name := src[pos : pos+int(n)]; string(name) != m.Stream {
		m.Stream = string(name)
	}
	pos += int(n)
	m.BaseSeq, used, err = readUvarint(src[pos:])
	if err != nil {
		return 0, err
	}
	pos += used
	n, used, err = readUvarint(src[pos:])
	if err != nil {
		return 0, err
	}
	pos += used
	if n > uint64(len(src)-pos) {
		return 0, fmt.Errorf("transport: truncated ctrl")
	}
	if n > 0 {
		m.Ctrl = append(m.Ctrl[:0], src[pos:pos+int(n)]...)
	} else {
		m.Ctrl = m.Ctrl[:0]
	}
	pos += int(n)
	count, used, err := readUvarint(src[pos:])
	if err != nil {
		return 0, err
	}
	pos += used
	// Every encoded tuple occupies at least three bytes, so a count
	// beyond the remaining buffer is corrupt — rejecting it here also
	// keeps the preallocation below from trusting a hostile length.
	if count > uint64(len(src)-pos) {
		return 0, fmt.Errorf("transport: truncated batch")
	}
	if count > 0 {
		ts := m.Tuples
		if uint64(cap(ts)) >= count {
			ts = ts[:count]
		} else {
			ts = make([]stream.Tuple, count)
		}
		pooled := draw != nil
		if pooled {
			drawVals(ts, src[pos:], draw)
		}
		for i := range ts {
			used, err := decodeTupleInto(&ts[i], src[pos:], pooled)
			if err != nil {
				return 0, fmt.Errorf("transport: tuple %d: %w", i, err)
			}
			pos += used
		}
		m.Tuples = ts
	} else {
		m.Tuples = m.Tuples[:0]
	}
	if traced {
		used, err := decodeTraceTrailer(src[pos:], m.Tuples)
		if err != nil {
			return 0, err
		}
		pos += used
	}
	if hasStats {
		ds, used, err := stats.DecodeDigests(src[pos:])
		if err != nil {
			return 0, err
		}
		m.Digests = ds
		pos += used
	} else {
		m.Digests = m.Digests[:0]
	}
	return pos, nil
}

// drawVals points every slot of ts at a Vals array from the stream pool,
// taking the size class's lock once for the frame. The arrays are sized by
// the first tuple's arity, which src (the encoded batch) starts with; a
// tuple of another arity that does not fit swaps its array in
// decodeTupleInto. An arity that the batch's bytes could not hold for
// every tuple is corrupt, and draws nothing, so a hostile header cannot
// make the draw allocate.
func drawVals(ts []stream.Tuple, src []byte, draw *[][]stream.Value) {
	arity := uint64(0)
	if _, n := binary.Uvarint(src); n > 0 {
		if _, k := binary.Varint(src[n:]); k > 0 {
			if a, j := binary.Uvarint(src[n+k:]); j > 0 && a <= uint64(len(src)) && a*uint64(len(ts)) <= uint64(len(src)) {
				arity = a
			}
		}
	}
	d := *draw
	if cap(d) < len(ts) {
		d = make([][]stream.Value, len(ts))
	}
	d = d[:len(ts)]
	stream.GetValsTrain(d, int(arity))
	for i := range ts {
		ts[i].Vals = d[i]
	}
	clear(d) // the arrays now belong to the slots
	*draw = d
}

func decodeTuple(src []byte) (stream.Tuple, int, error) {
	var t stream.Tuple
	pos, err := decodeTupleInto(&t, src, false)
	return t, pos, err
}

// decodeTupleInto parses one tuple into t, reusing t's previous Vals
// backing when its capacity fits the incoming arity. Everything else in
// the slot (Span, provenance) is reset first, so a reused slot carries
// nothing over but the buffer. With pooled set the backing is a pool
// array (drawVals): one that is too small goes back for one that fits,
// and the tuple is marked pool-owned.
func decodeTupleInto(t *stream.Tuple, src []byte, pooled bool) (int, error) {
	vals := t.Vals[:0]
	*t = stream.Tuple{}
	pos := 0
	seq, used, err := readUvarint(src[pos:])
	if err != nil {
		return 0, err
	}
	pos += used
	t.Seq = seq
	ts, used, err := readVarint(src[pos:])
	if err != nil {
		return 0, err
	}
	pos += used
	t.TS = ts
	arity, used, err := readUvarint(src[pos:])
	if err != nil {
		return 0, err
	}
	pos += used
	// Each value needs at least its kind byte.
	if arity > uint64(len(src)-pos) {
		return 0, fmt.Errorf("truncated values")
	}
	if uint64(cap(vals)) < arity {
		if pooled {
			stream.PutVals(vals)
			vals = stream.GetVals(int(arity))[:0]
		} else {
			vals = make([]stream.Value, 0, arity)
		}
	}
	for i := uint64(0); i < arity; i++ {
		if pos >= len(src) {
			return 0, fmt.Errorf("truncated value")
		}
		kind := stream.Kind(src[pos])
		pos++
		switch kind {
		case stream.KindInt:
			v, used, err := readVarint(src[pos:])
			if err != nil {
				return 0, err
			}
			pos += used
			vals = append(vals, stream.Int(v))
		case stream.KindFloat:
			if pos+8 > len(src) {
				return 0, fmt.Errorf("truncated float")
			}
			bits := binary.BigEndian.Uint64(src[pos:])
			pos += 8
			vals = append(vals, stream.Float(math.Float64frombits(bits)))
		case stream.KindString:
			n, used, err := readUvarint(src[pos:])
			if err != nil {
				return 0, err
			}
			pos += used
			if n > uint64(len(src)-pos) {
				return 0, fmt.Errorf("truncated string")
			}
			vals = append(vals, stream.String(string(src[pos:pos+int(n)])))
			pos += int(n)
		case stream.KindBool:
			if pos >= len(src) {
				return 0, fmt.Errorf("truncated bool")
			}
			vals = append(vals, stream.Bool(src[pos] != 0))
			pos++
		case stream.KindInvalid:
			vals = append(vals, stream.Null())
		default:
			return 0, fmt.Errorf("unknown value kind %d", kind)
		}
	}
	t.Vals = vals
	if pooled {
		t.MarkPooled()
	}
	return pos, nil
}

func readUvarint(src []byte) (uint64, int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("transport: bad uvarint")
	}
	return v, n, nil
}

func readVarint(src []byte) (int64, int, error) {
	v, n := binary.Varint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("transport: bad varint")
	}
	return v, n, nil
}

// EncodedSize returns the wire size of a message without materializing it
// (used by the netsim path, which models bytes without moving them).
func EncodedSize(m Msg) int {
	// Cheap and exact: encode into a scratch buffer. Message batches are
	// small relative to the experiment scales this feeds.
	return len(Encode(nil, m))
}
