package transport

import "fmt"

// Scheduler decides which queued message uses the shared connection next —
// "a message scheduler that determines which message stream gets to use
// the connection at any time" (§4.3).
type Scheduler interface {
	// Enqueue admits a message of the given wire size on a logical stream.
	Enqueue(stream string, size int, m Msg) error
	// Next removes and returns the next message to transmit.
	Next() (m Msg, size int, ok bool)
	// Len returns the number of queued messages.
	Len() int
}

// WFQ is a weighted fair queueing scheduler using virtual finish times:
// each stream s has weight w(s), and a message of size L arriving when the
// stream's previous message finishes at F gets finish time
// max(V, F) + L/w(s), where V is the scheduler's virtual time. Draining in
// finish-time order shares bandwidth among backlogged streams in
// proportion to their weights — the "weighted connection sharing policy
// based on QoS or contract specification" of §4.3.
type WFQ struct {
	streams map[string]*wfqStream
	vtime   float64
	queued  int
}

type wfqStream struct {
	weight     float64
	lastFinish float64
	q          []wfqItem
}

type wfqItem struct {
	finish float64
	size   int
	m      Msg
}

// NewWFQ returns an empty weighted fair queue.
func NewWFQ() *WFQ { return &WFQ{streams: map[string]*wfqStream{}} }

// SetWeight declares a stream's weight (must be positive). Streams enqueue
// with weight 1 unless declared.
func (w *WFQ) SetWeight(stream string, weight float64) error {
	if weight <= 0 {
		return fmt.Errorf("transport: weight must be positive, got %g", weight)
	}
	s := w.stream(stream)
	s.weight = weight
	return nil
}

func (w *WFQ) stream(name string) *wfqStream {
	s, ok := w.streams[name]
	if !ok {
		s = &wfqStream{weight: 1}
		w.streams[name] = s
	}
	return s
}

// Enqueue implements Scheduler.
func (w *WFQ) Enqueue(stream string, size int, m Msg) error {
	if size <= 0 {
		size = 1
	}
	s := w.stream(stream)
	start := w.vtime
	if s.lastFinish > start {
		start = s.lastFinish
	}
	finish := start + float64(size)/s.weight
	s.lastFinish = finish
	s.q = append(s.q, wfqItem{finish: finish, size: size, m: m})
	w.queued++
	return nil
}

// Next implements Scheduler: it returns the queued message with the
// smallest virtual finish time.
func (w *WFQ) Next() (Msg, int, bool) {
	var best *wfqStream
	bestFinish := 0.0
	for _, s := range w.streams {
		if len(s.q) == 0 {
			continue
		}
		if best == nil || s.q[0].finish < bestFinish {
			best = s
			bestFinish = s.q[0].finish
		}
	}
	if best == nil {
		return Msg{}, 0, false
	}
	it := popItem(&best.q)
	w.queued--
	w.vtime = it.finish
	return it.m, it.size, true
}

// popItem removes and returns the head of *q. The vacated slot is zeroed,
// so the backing array does not keep the sent message and its tuples
// reachable, and a queue that drains to empty starts over at the front of
// its array instead of walking it forward into a reallocation.
func popItem(q *[]wfqItem) wfqItem {
	it := (*q)[0]
	(*q)[0] = wfqItem{}
	if len(*q) == 1 {
		*q = (*q)[:0]
	} else {
		*q = (*q)[1:]
	}
	return it
}

// Len implements Scheduler.
func (w *WFQ) Len() int { return w.queued }

// FIFO is the baseline scheduler: strict arrival order, no weights — the
// behaviour of a single shared connection with no message scheduling.
type FIFO struct {
	q []wfqItem
}

// NewFIFO returns an empty FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Enqueue implements Scheduler.
func (f *FIFO) Enqueue(_ string, size int, m Msg) error {
	if size <= 0 {
		size = 1
	}
	f.q = append(f.q, wfqItem{size: size, m: m})
	return nil
}

// Next implements Scheduler.
func (f *FIFO) Next() (Msg, int, bool) {
	if len(f.q) == 0 {
		return Msg{}, 0, false
	}
	it := popItem(&f.q)
	return it.m, it.size, true
}

// Len implements Scheduler.
func (f *FIFO) Len() int { return len(f.q) }
