// Package ha implements the high-availability design of §6: k-safe
// upstream backup. Each server acts as backup for its downstream servers
// by holding processed tuples in its output queues until their effects are
// safely recorded elsewhere; flow messages propagate dependency
// checkpoints downstream and back-channel messages truncate the queues;
// heartbeats detect failures; and on failure the backup replays its output
// log, emulating the failed server. A process-pair checkpointing model and
// a K-virtual-machine granularity knob reproduce the recovery-time versus
// run-time-overhead spectrum of §6.4.
package ha

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/stream"
)

// OutputLog is one server's output queue toward one downstream server:
// every tuple sent is retained (with its per-link sequence number, §6.2)
// until a back-channel checkpoint says all downstream effects are safe.
// On failure, the retained suffix is replayed.
type OutputLog struct {
	mu         sync.Mutex
	q          *stream.Queue
	origins    []uint64 // origin (node-local) seq of each retained tuple
	oHead      int
	nextSeq    uint64
	acked      uint64 // highest link seq known safe (exclusive truncation point)
	received   uint64 // highest link seq the downstream confirmed received
	sent       uint64
	onTruncate func([]stream.Tuple)
	// durable, when set, receives a write-through copy of every append
	// before it is reported sent, and mirrors truncation (see durable.go).
	durable     DurableSink
	durableErrs uint64
	stamped     []stream.Tuple // appendTrainLocked's reusable result
}

// NewOutputLog returns an empty log; link sequence numbers start at 1.
func NewOutputLog() *OutputLog {
	return &OutputLog{q: stream.NewQueue(64), nextSeq: 1}
}

// AppendTrain records a run of tuples about to be sent, stamping them with
// the link's next contiguous sequence numbers, and returns the stamped
// copies (the Seq field in a sent copy is the link sequence — the
// receiving server regenerates per-tuple numbers from the base, §6.2).
// Each tuple's original Seq is retained as its origin, which
// EarliestOrigin exposes for dependency chaining: an upstream server must
// keep tuples until their effects are safe beyond this server's volatile
// state, so this server's unacknowledged output counts toward its own
// dependency low-water mark. ts is only read. The returned slice is the
// log's scratch, valid until the next append: callers that append from
// several goroutines must serialize around their use of it.
func (l *OutputLog) AppendTrain(ts []stream.Tuple) []stream.Tuple {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendTrainLocked(ts)
}

// Append is AppendTrain of one tuple; it returns the stamped copy.
func (l *OutputLog) Append(t stream.Tuple) stream.Tuple {
	l.mu.Lock()
	defer l.mu.Unlock()
	one := [1]stream.Tuple{t}
	return l.appendTrainLocked(one[:])[0]
}

// endLoan ends the loan of the batch the last append returned: a
// poolcheck build poisons its slots and never lends them again.
func (l *OutputLog) endLoan() {
	l.mu.Lock()
	l.stamped = stream.PoisonScratch(l.stamped)
	l.mu.Unlock()
}

func (l *OutputLog) appendTrainLocked(ts []stream.Tuple) []stream.Tuple {
	out := l.stamped[:0]
	for _, t := range ts {
		l.origins = append(l.origins, t.Seq)
		t.Seq = l.nextSeq
		l.nextSeq++
		l.q.Push(t)
		out = append(out, t)
	}
	l.stamped = out
	l.sent += uint64(len(out))
	if l.durable != nil && len(out) > 0 {
		// Disk first, then the caller may transmit: when the append
		// returns, the run is on stable storage and a crash replays it.
		if err := l.durable.AppendTrain(l.origins[len(l.origins)-len(out):], out); err != nil {
			l.durableErrs++
		}
	}
	return out
}

// EarliestOrigin returns the smallest origin sequence among retained
// (unacknowledged) tuples; ok is false when the log is empty.
func (l *OutputLog) EarliestOrigin() (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	live := l.origins[l.oHead:]
	if len(live) == 0 {
		return 0, false
	}
	min := live[0]
	for _, o := range live[1:] {
		if o < min {
			min = o
		}
	}
	return min, true
}

// SetReceived records the downstream's complete-prefix acknowledgement
// (Dedup.ContiguousRecv carried on the back channel): every retained tuple
// with link seq at or below it has been received — recorded at one server
// downstream — though not necessarily processed or made safe further on.
func (l *OutputLog) SetReceived(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.received {
		l.received = seq
	}
}

// Received returns the highest link seq the downstream has confirmed
// received (SetReceived's high-water mark). The reconnect path replays
// everything the log retains above it.
func (l *OutputLog) Received() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.received
}

// EarliestOriginUnreceived returns the smallest origin sequence among
// retained tuples the downstream has NOT confirmed receiving; ok is false
// when every retained tuple is known received. This is the k=1 dependency
// rule of §6.2: a server may acknowledge its input once the effects are
// recorded at one downstream server — received there — whereas k>=2 keeps
// the full retained log in the dependency (EarliestOrigin) so effects
// survive deeper concurrent failures.
func (l *OutputLog) EarliestOriginUnreceived() (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	all := l.q.Snapshot()
	live := l.origins[l.oHead:]
	var min uint64
	found := false
	for i, t := range all {
		if t.Seq <= l.received {
			continue
		}
		if o := live[i]; !found || o < min {
			min, found = o, true
		}
	}
	return min, found
}

// SetOnTruncate installs an audit hook receiving every tuple the log
// discards, in truncation order. The truncation-safety oracle of the
// chaos harness uses it to assert that no discarded tuple was still
// depended on by a downstream server (a dependency-boundary assertion):
// with at most k concurrent failures, every truncated tuple's effects
// must eventually reach the application output.
func (l *OutputLog) SetOnTruncate(fn func([]stream.Tuple)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onTruncate = fn
}

// Truncate discards retained tuples with link seq strictly below safeSeq
// (the back-channel checkpoint of §6.2), returning how many were freed.
func (l *OutputLog) Truncate(safeSeq uint64) int {
	l.mu.Lock()
	if safeSeq > l.acked {
		l.acked = safeSeq
	}
	var audit []stream.Tuple
	fn := l.onTruncate
	if fn != nil {
		for _, t := range l.q.Snapshot() {
			if t.Seq < safeSeq {
				audit = append(audit, t)
			}
		}
	}
	n := l.q.TruncateBefore(safeSeq)
	if l.durable != nil {
		if err := l.durable.TruncateBefore(safeSeq); err != nil {
			l.durableErrs++
		}
	}
	l.oHead += n
	if l.oHead > 4096 && l.oHead*2 > len(l.origins) {
		l.origins = append([]uint64(nil), l.origins[l.oHead:]...)
		l.oHead = 0
	}
	l.mu.Unlock()
	// The audit hook runs outside the lock so it may inspect the log.
	if fn != nil && len(audit) > 0 {
		fn(audit)
	}
	return n
}

// Replay returns the retained suffix in order — everything whose
// downstream effects are not yet known safe. The recovery procedure
// (§6.3) processes exactly these tuples.
func (l *OutputLog) Replay() []stream.Tuple {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.q.Snapshot()
}

// ReplayFrom returns the retained tuples with link seq strictly above
// after, in order. The gap-repair path uses it: when a back channel
// reports the downstream's highest received sequence, everything the log
// still holds beyond that point was dropped by a lossy or partitioned
// link and can be retransmitted — the upstream-backup queue doubling as
// the retransmission buffer.
func (l *OutputLog) ReplayFrom(after uint64) []stream.Tuple {
	l.mu.Lock()
	defer l.mu.Unlock()
	all := l.q.Snapshot()
	i := sort.Search(len(all), func(i int) bool { return all[i].Seq > after })
	if i == len(all) {
		return nil
	}
	return all[i:]
}

// Len returns the number of retained tuples.
func (l *OutputLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.q.Len()
}

// Bytes returns the retained footprint.
func (l *OutputLog) Bytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.q.Bytes()
}

// Sent returns the total tuples ever appended.
func (l *OutputLog) Sent() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sent
}

// NextSeq returns the next link sequence number to be assigned.
func (l *OutputLog) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Dedup suppresses duplicate deliveries on one incoming link: replay after
// a failover re-sends retained tuples, and the receiver must accept each
// link sequence number at most once. k-safety guarantees no loss; Dedup
// keeps the duplicates from inflating downstream state.
//
// A lossy or briefly partitioned link can also drop messages, in which
// case later sequence numbers arrive above a gap. Dedup admits them (the
// operators above tolerate disorder) but records each skipped number as a
// hole, so that (a) the retransmitted tuple is admitted exactly once when
// it finally arrives, and (b) ContiguousRecv tells the upstream how far
// the prefix is complete — the gap-repair signal carried on the back
// channel.
type Dedup struct {
	mu    sync.Mutex
	last  uint64
	dups  uint64
	holes map[uint64]bool
}

// Admit reports whether the tuple with the given link seq is new; false
// means it is a duplicate and must be discarded. A seq above the
// high-water mark opens holes for every skipped number; a seq at or below
// the mark is admitted only if it fills a hole.
func (d *Dedup) Admit(linkSeq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.admitLocked(linkSeq)
}

// AdmitTrain runs Admit over a batch under one lock, compacting the fresh
// tuples to the front of ts in arrival order, and returns that prefix.
func (d *Dedup) AdmitTrain(ts []stream.Tuple) []stream.Tuple {
	d.mu.Lock()
	defer d.mu.Unlock()
	fresh := ts[:0]
	for _, t := range ts {
		if d.admitLocked(t.Seq) {
			fresh = append(fresh, t)
		}
	}
	return fresh
}

func (d *Dedup) admitLocked(linkSeq uint64) bool {
	if linkSeq > d.last {
		if linkSeq > d.last+1 {
			if d.holes == nil {
				d.holes = map[uint64]bool{}
			}
			for h := d.last + 1; h < linkSeq; h++ {
				d.holes[h] = true
			}
		}
		d.last = linkSeq
		return true
	}
	if d.holes[linkSeq] {
		delete(d.holes, linkSeq)
		return true
	}
	d.dups++
	return false
}

// Last returns the highest admitted link sequence.
func (d *Dedup) Last() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// ContiguousRecv returns the highest link sequence below which every
// number has been admitted — the complete prefix. Equal to Last when no
// holes are outstanding.
func (d *Dedup) ContiguousRecv() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.holes) == 0 {
		return d.last
	}
	min := uint64(0)
	for h := range d.holes {
		if min == 0 || h < min {
			min = h
		}
	}
	return min - 1
}

// Holes returns how many skipped sequence numbers are still outstanding.
func (d *Dedup) Holes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.holes)
}

// Duplicates returns how many deliveries were suppressed.
func (d *Dedup) Duplicates() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dups
}

// Seed raises the high-water mark without opening holes. A receiver that
// takes over a link mid-sequence-space (an adopter being replayed the
// retained suffix after a failover) calls it with the upstream log's
// truncation point: the prefix below it is already safe downstream and
// will never be sent again, so it must not be mistaken for loss holes.
func (d *Dedup) Seed(seq uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if seq > d.last && len(d.holes) == 0 {
		d.last = seq
	}
}

// Reset clears the high-water mark and any outstanding holes. A receiver
// calls it when a new upstream incarnation takes over the link after
// recovery (new link, fresh sequence space).
func (d *Dedup) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.last = 0
	d.holes = nil
}

// DepTracker translates a node's internal dependency low-water mark back
// into per-upstream-link sequence numbers for the back channel. Tuples are
// re-sequenced into a node-local space at ingress; because both spaces are
// monotone, retaining a ring of (localSeq, linkSeq) ingress pairs lets the
// node answer: "given that my state depends on nothing below local
// sequence L, which link sequence may upstream U truncate below?"
type DepTracker struct {
	mu       sync.Mutex
	links    map[string][]seqPair // upstream link -> ingress pairs (ascending)
	lastSafe map[string]uint64    // last safe point computed per link
}

type seqPair struct {
	local uint64
	link  uint64
}

// NewDepTracker returns an empty tracker.
func NewDepTracker() *DepTracker {
	return &DepTracker{links: map[string][]seqPair{}, lastSafe: map[string]uint64{}}
}

// NoteIngress records that the tuple with upstream link sequence linkSeq
// was admitted as local sequence localSeq on the named link.
func (d *DepTracker) NoteIngress(link string, linkSeq, localSeq uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.links[link] = append(d.links[link], seqPair{local: localSeq, link: linkSeq})
}

// SafeSeqs returns, for every upstream link, the link sequence below which
// the upstream may truncate, given that the node's state depends on
// nothing below localDep (hasDep false means the node holds no state: all
// ingressed tuples are safe). The safe point is the smallest link sequence
// among still-needed ingresses — pairs are ascending in local seq (admit
// order) but NOT necessarily in link seq, because a retransmitted tuple
// that fills a loss hole is admitted late with a high local seq; taking a
// minimum keeps the answer conservative under that reordering.
func (d *DepTracker) SafeSeqs(localDep uint64, hasDep bool) map[string]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]uint64, len(d.links))
	for link, pairs := range d.links {
		if len(pairs) == 0 {
			// Nothing new since the last computation: repeat the last
			// answer so late or repeated queries (the §6.2 pull variant)
			// still learn the truncation point.
			if s, ok := d.lastSafe[link]; ok {
				out[link] = s
			}
			continue
		}
		var safe uint64
		if !hasDep {
			// Nothing retained: everything ingressed so far is safe.
			max := pairs[0].link
			for _, p := range pairs[1:] {
				if p.link > max {
					max = p.link
				}
			}
			safe = max + 1
			d.links[link] = pairs[:0]
		} else {
			minNeeded, maxLink := uint64(0), uint64(0)
			kept := pairs[:0]
			for _, p := range pairs {
				if p.link > maxLink {
					maxLink = p.link
				}
				if p.local >= localDep {
					if minNeeded == 0 || p.link < minNeeded {
						minNeeded = p.link
					}
					kept = append(kept, p)
				}
			}
			if minNeeded != 0 {
				safe = minNeeded
			} else {
				safe = maxLink + 1
			}
			d.links[link] = kept
		}
		if prev, ok := d.lastSafe[link]; ok && prev > safe {
			safe = prev // never regress a previously reported safe point
		}
		d.lastSafe[link] = safe
		out[link] = safe
	}
	return out
}

// ResetLink forgets everything tracked for one upstream link: its ingress
// pairs and its last safe point. A receiver calls it (together with
// Dedup.Reset) when a new upstream incarnation takes over the link after a
// recovery — the old incarnation's link sequence space is dead, and a
// stale safe point from it would truncate the new producer's log below
// tuples a failure could still need (the dependency-boundary hazard the
// chaos harness's truncation oracle checks for).
func (d *DepTracker) ResetLink(link string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.links, link)
	delete(d.lastSafe, link)
}

// Links returns the tracked upstream link names, sorted.
func (d *DepTracker) Links() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.links))
	for l := range d.links {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// String renders tracker occupancy for diagnostics.
func (d *DepTracker) String() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0
	for _, p := range d.links {
		total += len(p)
	}
	return fmt.Sprintf("deptracker{links: %d, pairs: %d}", len(d.links), total)
}
