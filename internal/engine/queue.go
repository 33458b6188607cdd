package engine

import (
	"sync"

	"repro/internal/stream"
)

// entry is one queued tuple plus the time it entered the queue, so the
// engine can measure per-box queueing delay — TB in §7.1 "implicitly
// includes any queuing time". size caches the tuple's MemSize at push
// time, so the byte accounting walks the value slice once per hop
// instead of once per queue operation.
type entry struct {
	t    stream.Tuple
	enq  int64
	size int
}

// minQueueCap is the smallest ring a queue keeps; Pop shrinks back toward
// it so a one-off burst does not pin peak capacity forever.
const minQueueCap = 8

// entryQueue is a growable-and-shrinkable FIFO ring of entries with byte
// accounting, mirroring stream.Queue but carrying enqueue timestamps. All
// operations are mutex-guarded: the run loop pops while external Ingest
// goroutines push, and the handover through the lock is what gives span
// marks and tuple state their happens-before edge from the ingesting
// goroutine to the loop.
//
// The ring's capacity is always a power of two — the floor is 8, growth
// doubles, Pop halves and PopTrain collapses to 2*DefaultMaxTrain — so a
// slot index wraps with a mask, not a division per tuple per hop; resize
// checks it.
type entryQueue struct {
	mu    sync.Mutex
	buf   []entry
	head  int
	count int
	bytes int
}

func newEntryQueue() *entryQueue { return &entryQueue{buf: make([]entry, minQueueCap)} }

func (q *entryQueue) Len() int {
	q.mu.Lock()
	n := q.count
	q.mu.Unlock()
	return n
}

// idle reports whether the queue is empty without taking the lock. It is
// exact only on the goroutine that makes every push and pop — the run
// loop, for a plain box's queue (deliverTrain's chaining check); readers
// elsewhere hold the lock and only read.
func (q *entryQueue) idle() bool { return q.count == 0 }

func (q *entryQueue) Bytes() int {
	q.mu.Lock()
	b := q.bytes
	q.mu.Unlock()
	return b
}

// Cap returns the current ring capacity (for the shrink regression test).
func (q *entryQueue) Cap() int {
	q.mu.Lock()
	c := len(q.buf)
	q.mu.Unlock()
	return c
}

// OldestEnq returns the enqueue time of the tuple at the head, for the
// QoS scheduler's urgency computation.
func (q *entryQueue) OldestEnq() (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return 0, false
	}
	return q.buf[q.head].enq, true
}

// ForEach visits every queued entry oldest-first under the queue lock.
func (q *entryQueue) ForEach(fn func(entry)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := 0; i < q.count; i++ {
		fn(q.buf[(q.head+i)&(len(q.buf)-1)])
	}
}

// PushSized enqueues one tuple whose MemSize the caller already computed
// (the split route and re-shard paths, which place tuples one at a time).
func (q *entryQueue) PushSized(t stream.Tuple, now int64, size int) {
	q.mu.Lock()
	if q.count == len(q.buf) {
		q.resize(len(q.buf) * 2)
	}
	q.buf[(q.head+q.count)&(len(q.buf)-1)] = entry{t: t, enq: now, size: size}
	q.count++
	q.bytes += size
	q.mu.Unlock()
}

func (q *entryQueue) Pop() (entry, bool) {
	q.mu.Lock()
	if q.count == 0 {
		q.mu.Unlock()
		return entry{}, false
	}
	e := q.buf[q.head]
	q.buf[q.head] = entry{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.count--
	q.bytes -= e.size
	// Shrink once occupancy falls below a quarter of capacity so a burst
	// does not pin its peak ring for the rest of the process lifetime.
	if len(q.buf) > minQueueCap && q.count < len(q.buf)/4 {
		nc := len(q.buf) / 2
		if nc < minQueueCap {
			nc = minQueueCap
		}
		q.resize(nc)
	}
	q.mu.Unlock()
	return e, true
}

// PopTrain moves up to max entries into tb under one lock acquisition —
// a per-tuple Pop loop would pay a lock round-trip and a shrink check per
// tuple. The tuples land in tb.ts with their enqueue times and sizes
// parallel in tb.enq and tb.size.
func (q *entryQueue) PopTrain(tb *trainBuf, max int) {
	q.mu.Lock()
	n := q.count
	if n > max {
		n = max
	}
	bytes := 0
	mask := len(q.buf) - 1
	for i := 0; i < n; i++ {
		en := q.buf[q.head]
		q.buf[q.head] = entry{}
		q.head = (q.head + 1) & mask
		tb.ts = append(tb.ts, en.t)
		tb.enq = append(tb.enq, en.enq)
		tb.size = append(tb.size, en.size)
		bytes += en.size
	}
	q.count -= n
	q.bytes -= bytes
	// Shrink only when the queue empties, and then in one hop to the
	// floor. Pop's mid-drain halving is wrong at train rate: a deep
	// queue draining by one train per step crosses the quarter-occupancy
	// threshold over and over as pushes refill it, and each crossing
	// pays a multi-megabyte makeslice-plus-copy on a burst-deep ring. An
	// empty ring collapses for the cost of one floor-sized allocation,
	// and any engine that drains (they all do) returns burst memory then.
	if floor := 2 * DefaultMaxTrain; q.count == 0 && len(q.buf) > floor {
		q.resize(floor)
	}
	q.mu.Unlock()
}

// PushTrain enqueues a whole same-destination emission run under one
// lock acquisition, growing the ring at most once. Entry sizes are
// computed under the lock — the single MemSize walk per hop that Push's
// callers would otherwise do outside — and the total is returned for the
// caller's byte accounting.
func (q *entryQueue) PushTrain(ts []stream.Tuple, now int64) int {
	q.mu.Lock()
	if need := q.count + len(ts); need > len(q.buf) {
		nc := len(q.buf) * 2
		for nc < need {
			nc *= 2
		}
		q.resize(nc)
	}
	total := 0
	mask := len(q.buf) - 1
	for i := range ts {
		size := ts[i].MemSize()
		q.buf[(q.head+q.count)&mask] = entry{t: ts[i], enq: now, size: size}
		q.count++
		total += size
	}
	q.bytes += total
	q.mu.Unlock()
	return total
}

// emitBuf collects a box's emissions so the router can move them in
// same-port runs: one clock read, one downstream queue lock, one byte-
// accounting update per run instead of per tuple. Pooled like trainBuf.
type emitBuf struct {
	ts    []stream.Tuple
	ports []int
}

func (eb *emitBuf) add(p int, t stream.Tuple) {
	eb.ts = append(eb.ts, t)
	eb.ports = append(eb.ports, p)
}

var emitBufPool = sync.Pool{New: func() any {
	return &emitBuf{
		ts:    make([]stream.Tuple, 0, DefaultMaxTrain),
		ports: make([]int, 0, DefaultMaxTrain),
	}
}}

// reset empties the buffer after a flush, clearing the tuple slots so
// neither a later chunk nor a parked buffer pins Vals backing arrays or
// trace spans.
func (eb *emitBuf) reset() {
	for i := range eb.ts {
		eb.ts[i] = stream.Tuple{}
	}
	eb.ts, eb.ports = eb.ts[:0], eb.ports[:0]
}

// trainBuf is the reusable scratch a train is popped into. Buffers cycle
// through a sync.Pool sized for the default train, so the steady-state
// train path allocates nothing; putTrainBuf clears the tuple slots so a
// parked buffer pins neither Vals backing arrays nor trace spans.
type trainBuf struct {
	ts   []stream.Tuple
	enq  []int64
	size []int
}

var trainBufPool = sync.Pool{New: func() any {
	return &trainBuf{
		ts:   make([]stream.Tuple, 0, DefaultMaxTrain),
		enq:  make([]int64, 0, DefaultMaxTrain),
		size: make([]int, 0, DefaultMaxTrain),
	}
}}

func getTrainBuf() *trainBuf { return trainBufPool.Get().(*trainBuf) }

func putTrainBuf(tb *trainBuf) {
	for i := range tb.ts {
		tb.ts[i] = stream.Tuple{}
	}
	tb.ts, tb.enq, tb.size = tb.ts[:0], tb.enq[:0], tb.size[:0]
	trainBufPool.Put(tb)
}

// resize moves the ring into a buffer of capacity nc >= count, a power
// of two; callers hold q.mu.
func (q *entryQueue) resize(nc int) {
	if nc&(nc-1) != 0 {
		panic("engine: entry queue capacity is not a power of two")
	}
	nb := make([]entry, nc)
	for i := 0; i < q.count; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}
