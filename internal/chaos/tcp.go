package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/ha"
	"repro/internal/stream"
	"repro/internal/transport"
)

// TCPSchedule is a seed-reproducible fault schedule for the real-TCP
// path: while Tuples flow from a sender node to a consumer node through
// a TCPProxy, the harness kills the connection, blackholes it, and
// stalls handshakes at seed-chosen points. The k-safety oracles then
// check the same contract chaos proves on netsim — no loss, no
// duplicates at the consumer, full convergence — now provided by the
// supervised link layer plus ha.LinkSender/LinkReceiver replay.
type TCPSchedule struct {
	Seed       int64
	Tuples     int           // tuples offered at the sender (default 1200)
	Kills      int           // connection kills spread over the run (default 4)
	Blackholes int           // silent-partition windows (default 1)
	Stalls     int           // handshake-stall windows (default 1)
	Gap        time.Duration // inter-tuple gap (default 250µs)
}

func (s TCPSchedule) withDefaults() TCPSchedule {
	if s.Tuples <= 1 {
		s.Tuples = 1200
	}
	if s.Kills < 0 {
		s.Kills = 0
	}
	if s.Gap <= 0 {
		s.Gap = 250 * time.Microsecond
	}
	return s
}

// TCPResult is one RunTCP outcome plus its oracle verdicts.
type TCPResult struct {
	Schedule TCPSchedule

	Delivered   int    // distinct payloads at the consumer
	Missing     int    // payloads never delivered (no-loss oracle)
	Dups        int    // payloads delivered more than once (at-most-once oracle)
	Kills       int    // faults actually injected
	Blackholes  int
	Stalls      int
	Reconnects  int64  // link re-establishments observed
	Replayed    int64  // tuples retransmitted by Resync
	Suppressed  uint64 // duplicate deliveries absorbed by the receiver's dedup
	Outstanding int    // sender log tuples still unacknowledged after drain
	Holes       int    // receiver sequence holes after drain
	CloseTime   time.Duration

	Violations []string
}

// Failed reports whether any oracle was violated.
func (r *TCPResult) Failed() bool { return len(r.Violations) > 0 }

func (r *TCPResult) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// RunTCP executes one TCP fault schedule against a real sender/consumer
// transport pair joined through a TCPProxy, and verifies the oracles.
// Unlike the netsim harness this runs on wall-clock sockets, so timings
// vary run to run; the fault placement is what the seed reproduces.
func RunTCP(s TCPSchedule) *TCPResult {
	s = s.withDefaults()
	r := &TCPResult{Schedule: s}
	rng := rand.New(rand.NewSource(s.Seed))

	// Consumer state: payload i → delivery count. The oracles are defined
	// at the consumer, after the receiver's dedup — the end-to-end view.
	var cmu sync.Mutex
	counts := make(map[int64]int, s.Tuples)

	cfg := transport.LinkConfig{
		HandshakeTimeout: 250 * time.Millisecond,
		WriteTimeout:     500 * time.Millisecond,
		PingPeriod:       15 * time.Millisecond, // read-idle 60ms: beats blackhole windows
		BackoffMin:       5 * time.Millisecond,
		BackoffMax:       80 * time.Millisecond,
		BufferLimit:      s.Tuples + 64,
	}

	var sender *ha.LinkSender
	up, err := transport.ListenTCP("up", "127.0.0.1:0",
		func(from string, m transport.Msg) {
			if m.Kind == transport.KindBackChannel {
				if recv, ok := ha.ParseLinkAck(m.Ctrl); ok && sender != nil {
					sender.Ack(recv)
				}
			}
		}, cfg)
	if err != nil {
		r.violate("listen up: %v", err)
		return r
	}
	defer up.Close()

	var dn *transport.TCP
	recvr := ha.NewLinkReceiver(
		func(t stream.Tuple) {
			cmu.Lock()
			counts[t.Field(0).AsInt()]++
			cmu.Unlock()
		},
		func(recv uint64) {
			// Ack rides the same (breakable) conn back; losses are repaired
			// by the periodic AckNow below.
			_ = dn.Send("up", transport.Msg{Stream: "ack",
				Kind: transport.KindBackChannel, Ctrl: ha.AppendLinkAck(nil, recv)})
		}, 16)
	dn, err = transport.ListenTCP("dn", "127.0.0.1:0",
		func(from string, m transport.Msg) {
			if m.Kind == transport.KindData && ha.IsLinkBatch(m.Ctrl) {
				recvr.OnBatch(m.Tuples)
			}
		}, cfg)
	if err != nil {
		r.violate("listen dn: %v", err)
		return r
	}
	defer dn.Close()

	proxy, err := NewTCPProxy(dn.Addr())
	if err != nil {
		r.violate("proxy: %v", err)
		return r
	}
	defer proxy.Close()

	sender = ha.NewLinkSender(func(batch []stream.Tuple) error {
		return up.Send("dn", transport.Msg{Stream: "data",
			Kind: transport.KindData, Ctrl: ha.LinkBatchCtrl(),
			// The transport queues the message; batch is the sender's scratch.
			Tuples: append([]stream.Tuple(nil), batch...)})
	})
	up.SetOnEstablished(func(peer string, reconnected bool) {
		if reconnected {
			// Replay the unacknowledged suffix — the reconnect half of the
			// no-loss guarantee. Duplicates die in the receiver's dedup.
			sender.Resync()
		}
	})
	if err := up.AddPeer("dn", proxy.Addr()); err != nil {
		r.violate("add peer: %v", err)
		return r
	}

	// Seed-chosen fault placement: tuple indices at which each fault
	// fires. Blackhole and stall windows are bounded so the run always
	// makes progress again.
	killAt := map[int]int{}
	for i := 0; i < s.Kills; i++ {
		killAt[1+rng.Intn(s.Tuples-1)]++
	}
	blackAt := map[int]time.Duration{}
	for i := 0; i < s.Blackholes; i++ {
		blackAt[1+rng.Intn(s.Tuples-1)] = time.Duration(80+rng.Intn(80)) * time.Millisecond
	}
	stallAt := map[int]time.Duration{}
	for i := 0; i < s.Stalls; i++ {
		stallAt[1+rng.Intn(s.Tuples-1)] = time.Duration(100+rng.Intn(150)) * time.Millisecond
	}

	// Offered in trains, the run crosses multi-tuple frames and coalesced
	// writes.
	fault := func(i int) bool {
		_, black := blackAt[i]
		_, stall := stallAt[i]
		return killAt[i] > 0 || black || stall
	}
	var train []stream.Tuple
	for next := 0; next < s.Tuples; {
		train = nextTrain(train[:0], next, s.Tuples, fault)
		next += len(train)
		sender.SendTrain(train)
		i := next - 1
		if n := killAt[i]; n > 0 {
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					proxy.KillConns()
				} else {
					up.KillConn("dn")
				}
				r.Kills++
			}
		}
		if w, ok := blackAt[i]; ok {
			proxy.SetBlackhole(true)
			time.AfterFunc(w, func() { proxy.SetBlackhole(false) })
			r.Blackholes++
		}
		if w, ok := stallAt[i]; ok {
			proxy.SetStall(w)
			time.AfterFunc(w, func() { proxy.SetStall(0) })
			r.Stalls++
		}
		time.Sleep(s.Gap)
	}

	// Drain: keep acking and resyncing until the sender's log is empty
	// and every payload has landed, or the drain budget lapses.
	deadline := time.Now().Add(15 * time.Second)
	prevOut := -1
	for time.Now().Before(deadline) {
		recvr.AckNow()
		out := sender.Outstanding()
		if out > 0 && out == prevOut {
			// No ack progress across a full round trip: whatever is left
			// was lost on the wire, not in flight — replay it.
			sender.Resync()
		}
		prevOut = out
		cmu.Lock()
		got := len(counts)
		cmu.Unlock()
		if got == s.Tuples && out == 0 && recvr.Holes() == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Verdicts.
	cmu.Lock()
	for i := 0; i < s.Tuples; i++ {
		switch n := counts[int64(i)]; {
		case n == 0:
			r.Missing++
		case n > 1:
			r.Dups++
		}
	}
	r.Delivered = len(counts)
	cmu.Unlock()
	r.Replayed = sender.Replayed()
	r.Suppressed = recvr.Suppressed()
	r.Outstanding = sender.Outstanding()
	r.Holes = recvr.Holes()
	if info, ok := linkReconnects(up, "dn"); ok {
		r.Reconnects = info
	}

	start := time.Now()
	up.Close()
	dn.Close()
	proxy.Close()
	r.CloseTime = time.Since(start)

	if r.Missing > 0 {
		r.violate("no-loss: %d of %d tuples missing at the consumer after %d kills",
			r.Missing, s.Tuples, r.Kills)
	}
	if r.Dups > 0 {
		r.violate("at-most-once: %d payloads delivered more than once", r.Dups)
	}
	if r.Outstanding > 0 {
		r.violate("convergence: %d tuples still unacknowledged in the sender log", r.Outstanding)
	}
	if r.Holes > 0 {
		r.violate("convergence: %d receiver sequence holes never repaired", r.Holes)
	}
	if r.CloseTime > 2*time.Second {
		r.violate("shutdown: Close took %v under churn", r.CloseTime)
	}
	return r
}

// nextTrain appends the next train of payload tuples to buf: one to four
// of them starting at payload next, ending early after a tuple fault
// reports, so every fault still fires right after its seed-chosen tuple.
func nextTrain(buf []stream.Tuple, next, total int, fault func(i int) bool) []stream.Tuple {
	for n := 1 + next%4; n > 0 && next < total; n-- {
		buf = append(buf, stream.NewTuple(stream.Int(int64(next))))
		next++
		if fault(next - 1) {
			break
		}
	}
	return buf
}

func linkReconnects(t *transport.TCP, peer string) (int64, bool) {
	for _, in := range t.LinkInfos() {
		if in.Peer == peer {
			return in.Reconnects, true
		}
	}
	return 0, false
}

// String renders a one-line summary, mirroring Result's diagnostics.
func (r *TCPResult) String() string {
	return fmt.Sprintf(
		"seed=%d tuples=%d delivered=%d missing=%d dups=%d kills=%d black=%d stalls=%d reconnects=%d replayed=%d suppressed=%d close=%v violations=%d",
		r.Schedule.Seed, r.Schedule.Tuples, r.Delivered, r.Missing, r.Dups,
		r.Kills, r.Blackholes, r.Stalls, r.Reconnects, r.Replayed,
		r.Suppressed, r.CloseTime, len(r.Violations))
}
