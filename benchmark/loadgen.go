package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ha"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transport"
)

// expectEntry is one output the sink is waiting for, in arrival order.
type expectEntry struct {
	out refOut
	// inputs is how many source tuples had been sent once the tuple that
	// produces this output was; verifying the output retires them all
	// (the filters' drops included), which is what throughput counts.
	inputs uint64
}

// expectRing is a single-producer (generator) single-consumer (sink)
// queue of expected outputs. tail-head is the closed loop's in-flight
// count, so the ring is also the credit counter.
type expectRing struct {
	buf  []expectEntry
	mask uint64
	head atomic.Uint64
	tail atomic.Uint64
}

const expectRingSize = 1 << 17

func newExpectRing() *expectRing {
	return &expectRing{buf: make([]expectEntry, expectRingSize), mask: expectRingSize - 1}
}

func (r *expectRing) inflight() uint64 { return r.tail.Load() - r.head.Load() }

func (r *expectRing) push(e expectEntry) {
	t := r.tail.Load()
	r.buf[t&r.mask] = e
	r.tail.Store(t + 1)
}

// sinkState terminates the last route: it is the downstream HA peer of
// the last node (dedup, acks so the node's output log drains) and the
// verifier. handle runs on the sink transport's read goroutine; mu orders
// it against the main goroutine opening and closing measurement windows.
type sinkState struct {
	w      *workload
	ring   *expectRing
	recv   *ha.LinkReceiver
	tcp    *transport.TCP
	peer   string        // id of the last node
	credit chan struct{} // cap 1: "the sink made progress", wakes a blocked closed loop

	verifiedInputs atomic.Uint64
	received       atomic.Uint64
	firstVerified  atomic.Int64 // unix ns of the first verified output

	mu        sync.Mutex
	now       int64 // arrival time of the batch being delivered
	recording bool
	tracing   bool
	lat       []int64 // now - T of outputs that arrived while recording
	spans     []spanSample
	rec       *spanRecorder // nil unless this is a traced run
	busyNs    int64         // time spent inside handle
	acks      uint64
	wrong     uint64 // matched no expected output
	dups      uint64 // matched an output already consumed
	missing   uint64 // expected outputs skipped over by a later one
}

func newSinkState(w *workload) *sinkState {
	s := &sinkState{w: w, ring: newExpectRing(), credit: make(chan struct{}, 1),
		lat: make([]int64, 0, 1<<20)}
	// 32 is the ack cadence auroranode's own receivers use.
	s.recv = ha.NewLinkReceiver(s.deliver, s.ack, 32)
	return s
}

func (s *sinkState) attach(c *cluster) {
	s.tcp = c.sink
	s.peer = c.nodes[len(c.nodes)-1].def.id
}

func (s *sinkState) outStream() string { return s.w.nodes[len(s.w.nodes)-1].output }

func (s *sinkState) handle(_ string, m transport.Msg) {
	if m.Kind != transport.KindData || !ha.IsLinkBatch(m.Ctrl) {
		return
	}
	start := time.Now()
	s.mu.Lock()
	s.now = start.UnixNano()
	traced := len(s.spans)
	s.recv.OnBatch(m.Tuples) // the benchmark's call into the ha layer
	end := time.Now()
	s.busyNs += int64(end.Sub(start))
	for _, sp := range s.spans[traced:] {
		s.rec.add(
			benchSpan{Trace: sp.Trace, Name: "tuple", StartNs: sp.BirthNs, EndNs: sp.EndNs},
			benchSpan{Trace: sp.Trace, Name: "ha.OnBatch", Parent: "tuple", StartNs: s.now, EndNs: end.UnixNano()},
		)
	}
	s.mu.Unlock()
	select {
	case s.credit <- struct{}{}:
	default:
	}
}

func (s *sinkState) ack(recv uint64) {
	s.acks++
	// A failed send only delays truncation upstream; the next ack covers it.
	_ = s.tcp.Send(s.peer, transport.Msg{
		Stream: s.outStream(), Kind: transport.KindBackChannel,
		Ctrl: ha.AppendLinkAck(nil, recv),
	})
}

// parse reads a sink tuple back into the reference's terms.
func (s *sinkState) parse(t stream.Tuple) (refOut, bool) {
	want := 3
	if s.w.tumble {
		want = 2
	}
	if len(t.Vals) != want {
		return refOut{}, false
	}
	for _, v := range t.Vals {
		if v.Kind() != stream.KindInt {
			return refOut{}, false
		}
	}
	if s.w.tumble {
		return refOut{K: t.Vals[0].AsInt(), T: t.Vals[1].AsInt()}, true
	}
	return refOut{K: t.Vals[0].AsInt(), V: t.Vals[1].AsInt(), T: t.Vals[2].AsInt()}, true
}

// How far deliver searches around the head of the expected queue to tell
// a duplicate (behind) or a gap (ahead) from a wrong value.
const (
	lookBehind = 256
	lookAhead  = 4096
)

// deliver checks one deduplicated tuple against the reference sequence.
// The expected queue is ordered, so a match at the head also proves
// per-stream order.
func (s *sinkState) deliver(t stream.Tuple) {
	s.received.Add(1)
	sampled := t.Span != nil && s.tracing
	var verifyStart int64
	if sampled {
		verifyStart = time.Now().UnixNano()
	}
	got, ok := s.parse(t)
	r := s.ring
	head, tail := r.head.Load(), r.tail.Load()
	matched := false
	if ok {
		switch {
		case head < tail && r.buf[head&r.mask].out == got:
			matched = true
		case s.seenBehind(head, got):
			s.dups++
			return
		default:
			for d := uint64(1); d < lookAhead && head+d < tail; d++ {
				if r.buf[(head+d)&r.mask].out == got {
					s.missing += d
					head += d
					matched = true
					break
				}
			}
		}
	}
	if !matched {
		s.wrong++
		return
	}
	s.verifiedInputs.Store(r.buf[head&r.mask].inputs)
	r.head.Store(head + 1)
	if s.firstVerified.Load() == 0 {
		s.firstVerified.Store(s.now)
	}
	if s.recording {
		s.lat = append(s.lat, s.now-got.T)
	}
	if sampled {
		s.spans = append(s.spans, finishSpan(t.Span, s.peer, s.now))
		s.rec.add(benchSpan{Trace: t.Span.ID, Name: "sink.verify", Parent: "ha.OnBatch",
			StartNs: verifyStart, EndNs: time.Now().UnixNano()})
	}
}

func (s *sinkState) seenBehind(head uint64, got refOut) bool {
	for d := uint64(1); d <= lookBehind && d <= head; d++ {
		if s.ring.buf[(head-d)&s.ring.mask].out == got {
			return true
		}
	}
	return false
}

// trainRing is the pre-built input: V is drawn once from the seed, K and
// T are restamped on every send, so the send path allocates nothing and
// the same seed always offers the same tuples.
type trainRing struct {
	trains [][]stream.Tuple
	next   int
}

func newTrainRing(seed int64, trainLen, slots int) *trainRing {
	rng := rand.New(rand.NewSource(seed))
	slab := make([]stream.Value, slots*trainLen*3)
	tuples := make([]stream.Tuple, slots*trainLen)
	r := &trainRing{trains: make([][]stream.Tuple, slots)}
	for i := range tuples {
		vals := slab[i*3 : i*3+3 : i*3+3]
		vals[0], vals[1], vals[2] = stream.Int(0), stream.Int(int64(rng.Intn(100))), stream.Int(0)
		tuples[i].Vals = vals
	}
	for i := range r.trains {
		r.trains[i] = tuples[i*trainLen : (i+1)*trainLen : (i+1)*trainLen]
	}
	return r
}

// ringSlots sizes a phase's train ring. The transport encodes a message
// after Send returns, so a slot must not be restamped while its last use
// can still be queued: the ring holds several times what can be in flight.
func ringSlots(p phaseDef) int {
	if p.open {
		return 1 << 15
	}
	return max(256, 4*p.inflight)
}

// loadgen drives one cluster: it stamps and sends trains, feeds the
// reference, and owns the measurement windows.
type loadgen struct {
	w    *workload
	c    *cluster
	sink *sinkState
	seed int64
	ref  reference
	seq  uint64 // source tuples sent so far
	gaps *rand.Rand

	tracer *trace.Tracer // non-nil only inside a traced segment
	rec    *spanRecorder // non-nil only in a traced run

	// Per-window generator accounting, reset by openWindow.
	lateNs     []int64
	sendNs     int64
	sendTuples uint64
}

func newLoadgen(w *workload, c *cluster, sink *sinkState, seed int64) *loadgen {
	return &loadgen{
		w: w, c: c, sink: sink, seed: seed, ref: w.newReference(),
		gaps: rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
}

// send stamps one train with its key and creation time, tells the
// reference, and hands it to the transport as an ordinary data message.
func (g *loadgen) send(r *trainRing, createdNs int64) error {
	begin := time.Now()
	train := r.trains[r.next]
	r.next = (r.next + 1) % len(r.trains)
	sampled := false
	for i := range train {
		t := &train[i]
		k := g.w.keyOf(g.seq)
		g.seq++
		t.Seq, t.TS = g.seq, createdNs
		t.Vals[0], t.Vals[2] = stream.Int(k), stream.Int(createdNs)
		t.Span = g.tracer.Sample(createdNs)
		sampled = sampled || t.Span != nil
		if out, ok := g.ref.feed(k, t.Vals[1].AsInt(), createdNs); ok {
			g.sink.ring.push(expectEntry{out: out, inputs: g.seq})
		}
	}
	first := g.c.nodes[0].def
	stamped := time.Now()
	err := g.c.src.Send(first.id, transport.Msg{
		Stream: first.input, Kind: transport.KindData, BaseSeq: train[0].Seq, Tuples: train,
	})
	sent := time.Now()
	g.sendNs += int64(sent.Sub(stamped))
	g.sendTuples += uint64(len(train))
	if sampled {
		g.rec.sendSpans(train, begin, stamped, sent)
	}
	if err != nil {
		return fmt.Errorf("send to %s: %w", first.id, err)
	}
	return nil
}

// segment is one stretch of a phase. A recorded segment yields a window.
type segment struct {
	name   string
	dur    time.Duration
	record bool
	traced bool // every 64th source tuple carries a span
}

// window is what one recorded segment measured.
type window struct {
	segment    string
	seconds    float64
	inputs     uint64 // source tuples whose results the sink verified
	outputs    uint64
	lat        []int64 // sorted
	lateNs     []int64 // sorted
	spans      []spanSample
	procs      []procSnap // per node, deltas over the window
	selfCPUNs  int64
	sendNs     int64
	sendTuples uint64
	sinkNs     int64
	acks       uint64
	before     *scrape // traced runs only
	after      *scrape
}

// windowMark is the counters' state when a window opened; closeWindow
// reports the differences.
type windowMark struct {
	at       time.Time
	inputs   uint64
	outputs  uint64
	procs    []procSnap
	selfCPU  int64
	sinkBusy int64
	acks     uint64
	before   *scrape
}

const traceEvery = 64

func (g *loadgen) openWindow(seg segment) (windowMark, error) {
	var m windowMark
	var err error
	if g.rec != nil {
		if m.before, err = scrapeNodes(g.c); err != nil {
			return m, err
		}
	}
	if m.procs, err = g.c.procSnaps(); err != nil {
		return m, err
	}
	g.lateNs, g.sendNs, g.sendTuples = g.lateNs[:0], 0, 0
	if seg.traced {
		g.tracer = trace.NewTracer("loadgen", traceEvery, nil)
		// The tracer picks every 64th call. Burn calls until the tuples
		// it picks are those whose sequence number divides by 64: in
		// compute_sat that includes the tuple closing each window, the
		// only one whose span a tumble passes on to its output.
		for burn := (g.seq + traceEvery - 1) % traceEvery; burn > 0; burn-- {
			g.tracer.Sample(0)
		}
	}
	s := g.sink
	s.mu.Lock()
	s.recording, s.tracing = true, seg.traced
	s.lat, s.spans = s.lat[:0], s.spans[:0]
	m.sinkBusy, m.acks = s.busyNs, s.acks
	s.mu.Unlock()
	m.inputs, m.outputs = s.verifiedInputs.Load(), s.received.Load()
	m.selfCPU = selfCPUNs()
	m.at = time.Now()
	return m, nil
}

func (g *loadgen) closeWindow(seg segment, m windowMark) (*window, error) {
	s := g.sink
	win := &window{segment: seg.name, before: m.before}
	// The counters first, as close together as they can be read; the
	// copying and sorting below take long enough to skew them.
	win.seconds = time.Since(m.at).Seconds()
	win.selfCPUNs = selfCPUNs() - m.selfCPU
	win.inputs = s.verifiedInputs.Load() - m.inputs
	win.outputs = s.received.Load() - m.outputs
	procs, err := g.c.procSnaps()
	if err != nil {
		return nil, err
	}
	for i := range procs {
		win.procs = append(win.procs, procs[i].sub(m.procs[i]))
	}
	s.mu.Lock()
	s.recording, s.tracing = false, false
	win.lat = slices.Clone(s.lat)
	win.spans = slices.Clone(s.spans)
	win.sinkNs, win.acks = s.busyNs-m.sinkBusy, s.acks-m.acks
	s.mu.Unlock()
	g.tracer = nil
	if g.rec != nil {
		if win.after, err = scrapeNodes(g.c); err != nil {
			return nil, err
		}
	}
	slices.Sort(win.lat)
	win.lateNs = sortedCopy(g.lateNs)
	win.sendNs, win.sendTuples = g.sendNs, g.sendTuples
	return win, nil
}

// stallTimeout fails a phase in which the sink sees nothing for this
// long; every wait in the benchmark is bounded by it.
const stallTimeout = 20 * time.Second

// awaitCredit blocks the closed loop until fewer than limit expected
// outputs are outstanding.
func (g *loadgen) awaitCredit(limit uint64) error {
	if g.sink.ring.inflight() < limit {
		return nil
	}
	check := time.NewTicker(50 * time.Millisecond)
	defer check.Stop()
	seen, since := g.sink.received.Load(), time.Now()
	for g.sink.ring.inflight() >= limit {
		select {
		case <-g.sink.credit:
		case <-check.C:
			if err := g.c.alive(); err != nil {
				return err
			}
			if now := g.sink.received.Load(); now != seen {
				seen, since = now, time.Now()
			} else if time.Since(since) > stallTimeout {
				return fmt.Errorf("no output for %v with %d expected outputs outstanding",
					stallTimeout, g.sink.ring.inflight())
			}
		}
	}
	return nil
}

// drain waits for every expected output to arrive.
func (g *loadgen) drain() error { return g.awaitCredit(1) }

// runPhase applies one load shape through its segments back to back and
// returns the recorded windows.
func (g *loadgen) runPhase(p phaseDef, segs []segment) ([]*window, error) {
	ring := newTrainRing(g.seed, p.trainLen, ringSlots(p))
	var wins []*window
	for _, seg := range segs {
		var mark windowMark
		var err error
		if seg.record {
			if mark, err = g.openWindow(seg); err != nil {
				return nil, err
			}
		}
		if p.open {
			err = g.openLoop(p, ring, seg.dur)
		} else {
			err = g.closedLoop(p, ring, seg.dur)
		}
		if err != nil {
			return nil, fmt.Errorf("%s %s/%s: %w", g.w.name, p.name, seg.name, err)
		}
		if seg.record {
			if p.open {
				// Every tuple of the schedule counts, however late it lands.
				if err := g.drain(); err != nil {
					return nil, err
				}
			}
			win, err := g.closeWindow(seg, mark)
			if err != nil {
				return nil, err
			}
			wins = append(wins, win)
		}
	}
	// The next phase restamps a fresh ring; let this one's last uses land.
	if err := g.drain(); err != nil {
		return nil, err
	}
	return wins, nil
}

// closedLoop keeps up to p.inflight expected outputs outstanding: a new
// train goes out only when the sink has verified enough earlier ones, so
// a slower system is offered less load and the source queue cannot grow.
// Tuples are created at the instant they are sent.
func (g *loadgen) closedLoop(p phaseDef, ring *trainRing, dur time.Duration) error {
	end := time.Now().Add(dur)
	for {
		if err := g.awaitCredit(uint64(p.inflight)); err != nil {
			return err
		}
		now := time.Now()
		if !now.Before(end) {
			return nil
		}
		if err := g.send(ring, now.UnixNano()); err != nil {
			return err
		}
	}
}

// openLoop sends on a Poisson schedule that does not slow when the
// system does. A tuple's creation time is the instant it was due, not
// the instant the generator got round to it, so a stall anywhere —
// generator included — shows as latency; how late the generator ran is
// reported beside it.
func (g *loadgen) openLoop(p phaseDef, ring *trainRing, dur time.Duration) error {
	unlock := precisePacing()
	defer unlock()
	start := time.Now()
	due := start
	end := start.Add(dur)
	backlogLimit := uint64(len(ring.trains) / 2)
	for n := 0; ; n++ {
		due = due.Add(secs(g.gaps.ExpFloat64() / p.rate))
		if !due.Before(end) {
			return nil
		}
		sleepUntil(due)
		g.lateNs = append(g.lateNs, int64(time.Since(due)))
		if err := g.send(ring, due.UnixNano()); err != nil {
			return err
		}
		if n%1024 == 0 {
			if err := g.c.alive(); err != nil {
				return err
			}
			if g.sink.ring.inflight() > backlogLimit {
				return fmt.Errorf("backlog of %d outputs: %.0f tuples/s is not sustainable",
					g.sink.ring.inflight(), p.rate)
			}
		}
	}
}

// precisePacing prepares the calling goroutine for sleepUntil. Go's own
// timers are no use for gaps of 200 us: an idle runtime parks in
// epoll_wait, whose timeout is whole milliseconds. So the open loop pins
// itself to an OS thread, drops that thread's timer slack from the
// default 50 us to the minimum, and sleeps in nanosleep(2) — punctual
// without spinning on a core the nodes need.
func precisePacing() (undo func()) {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	// Failure leaves the default slack: the generator runs later, and
	// loadgen.late_p99_ms says so.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	return runtime.UnlockOSThread
}

func sleepUntil(due time.Time) {
	for d := time.Until(due); d > 0; d = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR (the runtime preempts with signals) returns early; the
		// loop sleeps the rest.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// probe sends source trains until the reference expects an output, then
// waits for the sink to verify it: the end of set-up.
func (g *loadgen) probe() (time.Duration, error) {
	p := g.w.phases[0]
	ring := newTrainRing(g.seed, p.trainLen, 64)
	for g.sink.ring.tail.Load() == 0 {
		if err := g.send(ring, time.Now().UnixNano()); err != nil {
			return 0, err
		}
	}
	if err := g.drain(); err != nil {
		return 0, err
	}
	return time.Unix(0, g.sink.firstVerified.Load()).Sub(g.c.spawned), nil
}

// verdict is the correctness account of one cluster's whole life.
type verdict struct {
	attempted uint64 // outputs the reference expected
	wrong     uint64
	dups      uint64
	missing   uint64 // skipped over, or still outstanding at the end
	dropped   uint64 // messages the generator's own transports lost
	suppress  uint64 // duplicates the HA receiver absorbed (not failures)
}

func (v verdict) failed() uint64 { return v.wrong + v.dups + v.missing + v.dropped }

func (g *loadgen) verdict() verdict {
	s := g.sink
	s.mu.Lock()
	defer s.mu.Unlock()
	return verdict{
		attempted: s.ring.tail.Load(),
		wrong:     s.wrong, dups: s.dups,
		missing:  s.missing + s.ring.inflight(),
		dropped:  uint64(g.c.src.Dropped(g.c.nodes[0].def.id) + g.c.sink.Dropped(s.peer)),
		suppress: s.recv.Suppressed(),
	}
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
