// Package events is the control-plane event journal: a fixed-memory ring
// of typed, sequence-numbered events into which every decision-making
// actor publishes what it did and why — engine split/unsplit, load-manager
// offloads,
// shedder engage/disengage, transport link transitions, HA replay
// summaries, chaos fault injections.
//
// The journal follows the flight-recorder discipline of internal/trace:
// one short mutex critical section per append, no allocation after
// construction, deliberately outside any simulated failure domain (a
// crashed SimNode keeps its journal, like a black box surviving the
// airframe). Sequence numbers are per-journal and monotonic, so HTTP
// clients can page with a cursor; correlation ids are node-salted like
// trace span ids, so a cause (an SLO warning) chains to its effects (the
// bottleneck it names) across the journal and the trace recorder.
package events

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a control-plane event.
type Kind uint8

const (
	// KindSplit: the engine installed a key-partitioned split.
	KindSplit Kind = iota + 1
	// KindUnsplit: the engine folded a split back.
	KindUnsplit
	// KindOffload: load management moved boxes to a neighbor.
	KindOffload
	// KindShedEngage: the shedder started dropping (drop rate left zero).
	KindShedEngage
	// KindShedDisengage: the shedder stopped dropping (drop rate hit zero).
	KindShedDisengage
	// KindLinkState: a supervised transport link changed state.
	KindLinkState
	// KindHAReplay: an HA log replayed tuples after failover or reconnect.
	KindHAReplay
	// KindFault: the chaos harness injected a fault.
	KindFault
	// KindSLOWarn: the latency-SLO forecaster predicts an output's p99
	// will cross its QoS latency cliff within the forecast horizon.
	KindSLOWarn
	// KindBottleneck: tail-latency attribution named the critical-path
	// box for an output whose SLO is at risk.
	KindBottleneck
	// KindCPEvict: connection-point history was permanently evicted while
	// an HA resync was replaying — the replay may now have a hole.
	KindCPEvict
	// KindCheckpoint: the node saved its durable checkpoint.
	KindCheckpoint
	// KindRecovery: a restarted node rebuilt state from its data dir.
	KindRecovery
)

var kindNames = [...]string{
	KindSplit:         "split",
	KindUnsplit:       "unsplit",
	KindOffload:       "offload",
	KindShedEngage:    "shed-engage",
	KindShedDisengage: "shed-disengage",
	KindLinkState:     "link",
	KindHAReplay:      "ha-replay",
	KindFault:         "fault",
	KindSLOWarn:       "slo-warn",
	KindBottleneck:    "bottleneck",
	KindCPEvict:       "cp-evict",
	KindCheckpoint:    "checkpoint",
	KindRecovery:      "recovery",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its string name so /events payloads
// and dspstat stay readable without a decoder table.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the string names MarshalJSON produces.
func (k *Kind) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	for i, n := range kindNames {
		if n != "" && n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("events: unknown kind %q", s)
}

// Event is one journal entry. Subject names what the event is about (a
// box, a peer, a node); Detail is a short free-form qualifier (a link
// state, an offloaded box list); V1..V3 carry the numeric evidence — the
// predicate values, drop counts, or replay sizes that justified the
// decision, with per-kind meaning documented at each emission site.
type Event struct {
	Seq     uint64  `json:"seq"`
	Time    int64   `json:"time"` // ns, on the emitting node's clock
	Node    string  `json:"node"`
	Kind    Kind    `json:"kind"`
	Subject string  `json:"subject,omitempty"`
	Detail  string  `json:"detail,omitempty"`
	Corr    uint64  `json:"corr,omitempty"` // correlation id chaining cause to effect
	V1      float64 `json:"v1,omitempty"`
	V2      float64 `json:"v2,omitempty"`
	V3      float64 `json:"v3,omitempty"`
}

// Journal is the fixed-size event ring for one node. All methods are
// safe for concurrent use and safe on a nil receiver (a nil journal is
// a disabled journal: appends vanish, reads return nothing), so callers
// never branch on whether observability is configured.
type Journal struct {
	node string
	salt uint64 // fnv64a(node) << 40, the trace-span id scheme
	corr atomic.Uint64

	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever appended
}

// NewJournal returns a journal retaining the most recent n events
// (minimum 64) for the named node.
func NewJournal(node string, n int) *Journal {
	if n < 64 {
		n = 64
	}
	return &Journal{node: node, salt: fnv64a(node) << 40, buf: make([]Event, n)}
}

// Node returns the journal's node id.
func (j *Journal) Node() string {
	if j == nil {
		return ""
	}
	return j.node
}

// NewCorr mints a correlation id: the node salt in the high bits, a
// monotonic counter in the low 40, the exact scheme trace span ids use —
// so one id can stamp a journal chain and its trace marks alike.
// A nil journal mints 0, the "uncorrelated" id.
func (j *Journal) NewCorr() uint64 {
	if j == nil {
		return 0
	}
	return j.salt | (j.corr.Add(1) & (1<<40 - 1))
}

// Append records one event, stamping its sequence number (and the
// journal's node, when the event carries none), and returns the stamped
// seq. The event struct is copied into the ring: appending allocates
// nothing in steady state. A nil journal drops the event and returns 0.
func (j *Journal) Append(ev Event) uint64 {
	if j == nil {
		return 0
	}
	if ev.Node == "" {
		ev.Node = j.node
	}
	j.mu.Lock()
	j.next++
	ev.Seq = j.next
	j.buf[(j.next-1)%uint64(len(j.buf))] = ev
	seq := j.next
	j.mu.Unlock()
	return seq
}

// Len returns how many events are currently retained.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.next < uint64(len(j.buf)) {
		return int(j.next)
	}
	return len(j.buf)
}

// Total returns how many events were ever appended, including those the
// ring has since overwritten. It equals the highest stamped Seq.
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Since returns up to max retained events with Seq > cursor, oldest
// first, plus the cursor to pass next time (the Seq of the last event
// returned, or the input cursor when nothing qualified). max <= 0 means
// no limit. Events older than the ring are gone: a stale cursor simply
// resumes at the oldest retained event.
func (j *Journal) Since(cursor uint64, max int) ([]Event, uint64) {
	if j == nil {
		return nil, cursor
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := uint64(len(j.buf))
	first := uint64(1)
	if j.next > n {
		first = j.next - n + 1
	}
	if cursor+1 > first {
		first = cursor + 1
	}
	if first > j.next {
		return nil, cursor
	}
	last := j.next
	if max > 0 && last-first+1 > uint64(max) {
		last = first + uint64(max) - 1
	}
	out := make([]Event, 0, last-first+1)
	for seq := first; seq <= last; seq++ {
		out = append(out, j.buf[(seq-1)%n])
	}
	return out, last
}

// Tail returns the most recent n retained events, oldest first.
func (j *Journal) Tail(n int) []Event {
	if j == nil || n <= 0 {
		return nil
	}
	j.mu.Lock()
	cursor := uint64(0)
	if j.next > uint64(n) {
		cursor = j.next - uint64(n)
	}
	j.mu.Unlock()
	evs, _ := j.Since(cursor, n)
	return evs
}

// Merge combines the retained events of several journals into one slice
// sorted by event time — the cluster-wide view a post-mortem wants. Nil
// journals are skipped.
func Merge(js ...*Journal) []Event {
	var out []Event
	for _, j := range js {
		if j != nil {
			evs, _ := j.Since(0, 0)
			out = append(out, evs...)
		}
	}
	sort.SliceStable(out, func(i, k int) bool { return out[i].Time < out[k].Time })
	return out
}

// Format renders events one per line for dumps and logs:
//
//	[t=12000 n2 #7] split f corr=a1b:3 v=(2, 0, 0)
func Format(evs []Event) string {
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&b, "[t=%d %s #%d] %s", ev.Time, ev.Node, ev.Seq, ev.Kind)
		if ev.Subject != "" {
			b.WriteByte(' ')
			b.WriteString(ev.Subject)
		}
		if ev.Detail != "" {
			b.WriteByte(' ')
			b.WriteString(ev.Detail)
		}
		if ev.Corr != 0 {
			fmt.Fprintf(&b, " corr=%x", ev.Corr)
		}
		if ev.V1 != 0 || ev.V2 != 0 || ev.V3 != 0 {
			fmt.Fprintf(&b, " v=(%g, %g, %g)", ev.V1, ev.V2, ev.V3)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fnv64a is the FNV-1a hash, the same salt derivation trace uses for
// span ids, duplicated here so events stays a leaf package.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
