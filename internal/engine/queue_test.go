package engine

import (
	"testing"

	"repro/internal/stream"
)

// The entryQueue used to grow forever: a one-off burst pinned its peak
// ring for the rest of the process lifetime. These are the regression
// tests for the shrink-on-Pop fix and for the byte accounting that the
// storage manager's pressure signal is computed from. Tuples enter through
// PushTrain, as they do in the engine; Pop is covered because the split
// transitions still drain and re-shard with it.

// push enqueues one tuple the way delivery does: as a train of one.
func push(q *entryQueue, tp stream.Tuple, now int64) {
	q.PushTrain([]stream.Tuple{tp}, now)
}

func TestEntryQueueFIFOAndBytes(t *testing.T) {
	q := newEntryQueue()
	wantBytes := 0
	for i := 0; i < 100; i++ {
		tp := tuple(int64(i), int64(i*2))
		wantBytes += tp.MemSize()
		push(q, tp, int64(i))
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	if q.Bytes() != wantBytes {
		t.Fatalf("Bytes = %d, want %d", q.Bytes(), wantBytes)
	}
	if enq, ok := q.OldestEnq(); !ok || enq != 0 {
		t.Fatalf("OldestEnq = %d, %v", enq, ok)
	}
	for i := 0; i < 50; i++ {
		en, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop %d failed", i)
		}
		if got := en.t.Field(0).AsInt(); got != int64(i) {
			t.Fatalf("Pop %d: A = %d (FIFO violated)", i, got)
		}
		wantBytes -= en.t.MemSize()
		if q.Bytes() != wantBytes {
			t.Fatalf("after pop %d: Bytes = %d, want %d", i, q.Bytes(), wantBytes)
		}
	}
	// The rest leave as one train, each entry with the enqueue time and
	// size it was pushed with — what the train body's per-chunk accounting
	// reads.
	tb := getTrainBuf()
	defer putTrainBuf(tb)
	q.PopTrain(tb, 1000)
	if len(tb.ts) != 50 || len(tb.enq) != 50 || len(tb.size) != 50 {
		t.Fatalf("PopTrain moved %d/%d/%d entries, want 50", len(tb.ts), len(tb.enq), len(tb.size))
	}
	for i := range tb.ts {
		if got := tb.ts[i].Field(0).AsInt(); got != int64(50+i) || tb.enq[i] != int64(50+i) {
			t.Fatalf("PopTrain entry %d: A = %d enq = %d (FIFO violated)", i, got, tb.enq[i])
		}
		if tb.size[i] != tb.ts[i].MemSize() {
			t.Fatalf("PopTrain entry %d: size %d, want %d", i, tb.size[i], tb.ts[i].MemSize())
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue succeeded")
	}
	if q.Bytes() != 0 || q.Len() != 0 {
		t.Fatalf("drained queue: Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
}

func TestEntryQueueShrinksAfterBurst(t *testing.T) {
	q := newEntryQueue()
	const burst = 4096
	for i := 0; i < burst; i++ {
		push(q, tuple(1, int64(i)), 0)
	}
	peak := q.Cap()
	if peak < burst {
		t.Fatalf("Cap = %d after %d pushes", peak, burst)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if c := q.Cap(); c != minQueueCap {
		t.Errorf("Cap after drain = %d, want %d (peak was %d)", c, minQueueCap, peak)
	}
	// The ring must stay correct across shrink: refill past the small cap
	// and check order survives the regrow.
	for i := 0; i < 20; i++ {
		push(q, tuple(int64(i), 0), 0)
	}
	for i := 0; i < 20; i++ {
		en, ok := q.Pop()
		if !ok || en.t.Field(0).AsInt() != int64(i) {
			t.Fatalf("post-shrink FIFO broken at %d (ok=%v)", i, ok)
		}
	}
}

func TestEntryQueueShrinkKeepsSteadyOccupancy(t *testing.T) {
	// A queue hovering at moderate depth must not thrash: shrink only
	// fires below quarter occupancy, so capacity tracks the working set.
	q := newEntryQueue()
	for i := 0; i < 1000; i++ {
		q.PushTrain([]stream.Tuple{tuple(1, int64(i)), tuple(2, int64(i))}, 0)
		q.Pop()
	}
	if q.Len() != 1000 {
		t.Fatalf("Len = %d", q.Len())
	}
	if c := q.Cap(); c < q.Len() || c > 4*q.Len() {
		t.Errorf("Cap = %d for occupancy %d", c, q.Len())
	}
}

// TestEntryQueuePowerOfTwoCapacity pins the invariant the ring's index
// mask rests on through every capacity change — PushTrain growth by odd
// amounts, Pop's halving, PopTrain's collapse to the floor — and checks
// FIFO order with the head wrapped around the ring at each size.
func TestEntryQueuePowerOfTwoCapacity(t *testing.T) {
	q := newEntryQueue()
	next, want := int64(0), int64(0)
	check := func(stage string) {
		t.Helper()
		if c := q.Cap(); c&(c-1) != 0 || c < minQueueCap {
			t.Fatalf("%s: Cap = %d, not a power of two >= %d", stage, c, minQueueCap)
		}
	}
	pushN := func(n int) {
		ts := make([]stream.Tuple, n)
		for i := range ts {
			ts[i] = tuple(next, 0)
			next++
		}
		q.PushTrain(ts, 0)
	}
	popN := func(n int) {
		for i := 0; i < n; i++ {
			en, ok := q.Pop()
			if !ok || en.t.Field(0).AsInt() != want {
				t.Fatalf("Pop: got %v (ok=%v), want A=%d", en.t, ok, want)
			}
			want++
		}
	}
	// Wrap the head, then grow by trains of 3, 7 and 129 tuples.
	pushN(5)
	popN(3)
	for _, n := range []int{3, 7, 129, 3, 700} {
		pushN(n)
		check("grow")
		popN(n / 2)
		check("pop")
	}
	// Pop drains past quarter occupancy: the ring halves repeatedly.
	popN(q.Len() - 2)
	check("pop shrink")
	// Regrow past the PopTrain floor, then empty it in trains: the ring
	// collapses to 2*DefaultMaxTrain.
	pushN(3*DefaultMaxTrain + 5)
	check("regrow")
	for q.Len() > 0 {
		tb := getTrainBuf()
		q.PopTrain(tb, DefaultMaxTrain)
		for _, tp := range tb.ts {
			if tp.Field(0).AsInt() != want {
				t.Fatalf("PopTrain: A=%d, want %d", tp.Field(0).AsInt(), want)
			}
			want++
		}
		putTrainBuf(tb)
	}
	if c := q.Cap(); c != 2*DefaultMaxTrain {
		t.Fatalf("Cap after PopTrain drain = %d, want %d", c, 2*DefaultMaxTrain)
	}
	pushN(11)
	check("after collapse")
	popN(11)
}

func TestEngineQueuedBytesReturnsToZero(t *testing.T) {
	// Engine-level byte accounting regression: qBytes is maintained
	// atomically at push/pop across both execution paths and must return
	// to zero when the network drains.
	e, _ := newVirtualEngine(t, chainNet(t, nil), Config{})
	for i := 0; i < 200; i++ {
		e.Ingest("in", tuple(int64(i%3), int64(i)))
	}
	if e.QueuedBytes() == 0 {
		t.Fatal("queued bytes should be nonzero before running")
	}
	e.Drain()
	if got := e.QueuedBytes(); got != 0 {
		t.Errorf("QueuedBytes after drain = %d, want 0", got)
	}
	if e.QueuedTuples() != 0 {
		t.Errorf("QueuedTuples after drain = %d", e.QueuedTuples())
	}
}
