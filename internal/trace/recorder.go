package trace

import (
	"sort"
	"sync"
)

// Event is one flight-recorder entry: an attributed latency segment, a
// delivery summary, or an instantaneous annotation.
type Event struct {
	TraceID uint64 `json:"trace,omitempty"`
	Node    string `json:"node"`
	Name    string `json:"name"`
	Kind    Kind   `json:"kind"`
	Start   int64  `json:"start"`             // ns
	Dur     int64  `json:"dur"`               // ns, 0 for instantaneous marks
	Replica int    `json:"replica,omitempty"` // key-partition replica ordinal, 0 = unsplit
}

// Recorder is a fixed-size flight-recorder ring: the last N events, cheap
// to append to (one short critical section, no allocation after
// construction), always available for a post-mortem dump. It deliberately
// sits outside any simulated failure domain — a crashed SimNode keeps its
// recorder, exactly like a black box surviving the airframe.
type Recorder struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever added
}

// NewRecorder returns a ring holding the most recent n events (minimum 16).
func NewRecorder(n int) *Recorder {
	if n < 16 {
		n = 16
	}
	return &Recorder{buf: make([]Event, n)}
}

// Add appends one event, overwriting the oldest when full.
func (r *Recorder) Add(ev Event) {
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = ev
	r.next++
	r.mu.Unlock()
}

// Len returns how many events are currently retained.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Total returns how many events were ever added (including overwritten).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Events returns the retained events oldest-first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.next < n {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.buf[(r.next+i)%n])
	}
	return out
}

// Merge combines the retained events of several recorders into one
// time-sorted slice — the cluster-wide view a post-mortem wants.
func Merge(recs ...*Recorder) []Event {
	var out []Event
	for _, r := range recs {
		if r != nil {
			out = append(out, r.Events()...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
