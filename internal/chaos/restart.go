package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/ha"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/transport"
)

// RestartSchedule is a seed-reproducible process-restart fault schedule:
// while tuples flow from a durable sender node to a live consumer through
// a TCPProxy, the harness kills the sender process state — transport,
// output log, everything in memory — at seed-chosen points and restarts
// it from its data directory. The oracles check the durability contract:
// every tuple whose Send returned survives the crash (rebuilt from
// segment files and replayed through the normal resync path), the live
// consumer's dedup suppresses the replay overlap, and the run converges
// with no loss and no duplicates.
type RestartSchedule struct {
	Seed     int64
	Tuples   int           // tuples offered at the sender (default 800)
	Restarts int           // kill+restart-from-disk cycles (default 3)
	Kills    int           // plain connection kills mixed in (default 0)
	Gap      time.Duration // inter-tuple gap (default 250µs)
	Dir      string        // sender data directory (required; the disk that survives)
	Journal  *events.Journal
}

func (s RestartSchedule) withDefaults() RestartSchedule {
	if s.Tuples <= 1 {
		s.Tuples = 800
	}
	if s.Restarts < 0 {
		s.Restarts = 0
	}
	if s.Gap <= 0 {
		s.Gap = 250 * time.Microsecond
	}
	return s
}

// RestartResult is one RunRestart outcome plus its oracle verdicts.
type RestartResult struct {
	Schedule RestartSchedule

	Delivered   int    // distinct payloads at the consumer
	Missing     int    // payloads never delivered (durability oracle)
	Dups        int    // payloads delivered more than once (at-most-once oracle)
	Restarts    int    // restart cycles actually executed
	Kills       int    // plain connection kills injected
	Recovered   int    // log entries rebuilt from disk across all restarts
	Replayed    int64  // tuples retransmitted by resync (all incarnations)
	Suppressed  uint64 // duplicate deliveries absorbed by the consumer's dedup
	Outstanding int    // sender log tuples still unacknowledged after drain
	Holes       int    // receiver sequence holes after drain
	CloseTime   time.Duration

	Violations []string
}

// Failed reports whether any oracle was violated.
func (r *RestartResult) Failed() bool { return len(r.Violations) > 0 }

func (r *RestartResult) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// senderNode is one incarnation of the durable sender process: its
// transport, its recovered-or-fresh link sender, and the storage manager
// holding its output log. Killing it closes all three; the data dir is
// what survives.
type senderNode struct {
	tr  *transport.TCP
	mgr *storage.Manager

	// mu guards sender against the transport's handler goroutines: acks
	// can arrive the moment the listener is up, before the sender exists.
	mu     sync.Mutex
	sender *ha.LinkSender
}

func (n *senderNode) getSender() *ha.LinkSender {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sender
}

// startSender boots one sender incarnation from dir: open the data
// directory, rebuild the output log from whatever segments survive,
// attach the durable sink, and dial the consumer through the proxy.
// recovered reports how many log entries came back from disk.
func startSender(dir, proxyAddr string, cfg transport.LinkConfig, j *events.Journal) (*senderNode, int, error) {
	mgr, err := storage.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	olog, err := mgr.OutputLog("dn/data")
	if err != nil {
		mgr.Close()
		return nil, 0, err
	}
	sink := storage.NewOutputSink(olog)
	origins, tuples, err := sink.RecoveredEntries()
	if err != nil {
		mgr.Close()
		return nil, 0, err
	}
	entries := make([]ha.LogEntry, len(tuples))
	for i := range tuples {
		entries[i] = ha.LogEntry{Origin: origins[i], Tuple: tuples[i]}
	}

	n := &senderNode{mgr: mgr}
	tr, err := transport.ListenTCP("up", "127.0.0.1:0",
		func(from string, m transport.Msg) {
			if m.Kind == transport.KindBackChannel {
				if recv, ok := ha.ParseLinkAck(m.Ctrl); ok {
					if s := n.getSender(); s != nil {
						s.Ack(recv)
					}
				}
			}
		}, cfg)
	if err != nil {
		mgr.Close()
		return nil, 0, err
	}
	n.tr = tr
	sender := ha.RecoverLinkSender(entries, func(batch []stream.Tuple) error {
		return tr.Send("dn", transport.Msg{Stream: "data",
			Kind: transport.KindData, Ctrl: ha.LinkBatchCtrl(),
			// The transport queues the message; batch is the sender's scratch.
			Tuples: append([]stream.Tuple(nil), batch...)})
	})
	sender.Name, sender.Journal = "dn/data", j
	sender.AttachDurable(sink)
	n.mu.Lock()
	n.sender = sender
	n.mu.Unlock()

	if len(entries) > 0 && j != nil {
		corr := j.NewCorr()
		j.Append(events.Event{
			Time: time.Now().UnixNano(), Kind: events.KindRecovery,
			Subject: "up", Detail: "output log from disk", Corr: corr,
			V1: float64(len(entries)),
		})
		sender.SetCorr(corr)
	}
	// Resync on every establish, not just reconnects: a restarted
	// incarnation's first connection is brand new to the transport, but
	// the retained suffix on disk still needs replaying.
	tr.SetOnEstablished(func(peer string, reconnected bool) {
		if s := n.getSender(); s != nil {
			s.Resync()
		}
	})
	if err := tr.AddPeer("dn", proxyAddr); err != nil {
		tr.Close()
		mgr.Close()
		return nil, 0, err
	}
	return n, len(entries), nil
}

// kill simulates the process dying: transport torn down, every in-memory
// structure dropped. Closing the manager also closes (and syncs) the
// segment log, but by contract every Send that returned was already
// fsynced — the close is a courtesy, not the durability point.
func (n *senderNode) kill() {
	n.tr.Close()
	n.mgr.Close()
}

// RunRestart executes one process-restart fault schedule and verifies
// the durability oracles. The consumer node stays alive throughout (its
// in-memory dedup is the incarnation-spanning duplicate filter, exactly
// the role a live downstream plays for a recovering upstream in §6.3).
func RunRestart(s RestartSchedule) *RestartResult {
	s = s.withDefaults()
	r := &RestartResult{Schedule: s}
	if s.Dir == "" {
		r.violate("schedule: Dir is required (the disk that survives the crash)")
		return r
	}
	rng := rand.New(rand.NewSource(s.Seed))

	var cmu sync.Mutex
	counts := make(map[int64]int, s.Tuples)

	cfg := transport.LinkConfig{
		HandshakeTimeout: 250 * time.Millisecond,
		WriteTimeout:     500 * time.Millisecond,
		PingPeriod:       15 * time.Millisecond,
		BackoffMin:       5 * time.Millisecond,
		BackoffMax:       80 * time.Millisecond,
		BufferLimit:      s.Tuples + 64,
	}

	// Consumer: alive for the whole run, acking back to whichever sender
	// incarnation is currently connected.
	var dn *transport.TCP
	recvr := ha.NewLinkReceiver(
		func(t stream.Tuple) {
			cmu.Lock()
			counts[t.Field(0).AsInt()]++
			cmu.Unlock()
		},
		func(recv uint64) {
			_ = dn.Send("up", transport.Msg{Stream: "ack",
				Kind: transport.KindBackChannel, Ctrl: ha.AppendLinkAck(nil, recv)})
		}, 16)
	dn, err := transport.ListenTCP("dn", "127.0.0.1:0",
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

	node, recovered, err := startSender(s.Dir, proxy.Addr(), cfg, s.Journal)
	if err != nil {
		r.violate("start sender: %v", err)
		return r
	}
	if recovered != 0 {
		r.violate("fresh data dir recovered %d entries, want 0", recovered)
	}

	// Seed-chosen fault placement.
	restartAt := map[int]bool{}
	for i := 0; i < s.Restarts; i++ {
		restartAt[1+rng.Intn(s.Tuples-1)] = true
	}
	killAt := map[int]bool{}
	for i := 0; i < s.Kills; i++ {
		killAt[1+rng.Intn(s.Tuples-1)] = true
	}

	// Offered in trains: one log append each.
	fault := func(i int) bool { return restartAt[i] || killAt[i] }
	var train []stream.Tuple
	for next := 0; next < s.Tuples; {
		train = nextTrain(train[:0], next, s.Tuples, fault)
		next += len(train)
		// SendTrain's return is the commit point: the train is fsynced in
		// the sender's segment log before the offered set counts it.
		node.sender.SendTrain(train)
		i := next - 1
		if restartAt[i] {
			node.kill()
			var rec int
			node, rec, err = startSender(s.Dir, proxy.Addr(), cfg, s.Journal)
			if err != nil {
				r.violate("restart %d: %v", r.Restarts+1, err)
				return r
			}
			r.Restarts++
			r.Recovered += rec
		}
		if killAt[i] {
			proxy.KillConns()
			r.Kills++
		}
		time.Sleep(s.Gap)
	}

	// Drain: ack and resync until the sender's log is empty and every
	// payload has landed, or the budget lapses.
	deadline := time.Now().Add(15 * time.Second)
	prevOut := -1
	for time.Now().Before(deadline) {
		recvr.AckNow()
		out := node.sender.Outstanding()
		if out > 0 && out == prevOut {
			node.sender.Resync()
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
	r.Replayed = node.sender.Replayed() // final incarnation only; earlier ones died
	r.Suppressed = recvr.Suppressed()
	r.Outstanding = node.sender.Outstanding()
	r.Holes = recvr.Holes()

	start := time.Now()
	node.kill()
	dn.Close()
	proxy.Close()
	r.CloseTime = time.Since(start)

	if r.Missing > 0 {
		r.violate("durability: %d of %d committed tuples missing at the consumer after %d restarts",
			r.Missing, s.Tuples, r.Restarts)
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
	if r.Restarts > 0 && r.Recovered == 0 {
		r.violate("recovery: %d restarts recovered 0 log entries — the durable path was never exercised", r.Restarts)
	}
	if r.CloseTime > 2*time.Second {
		r.violate("shutdown: Close took %v under churn", r.CloseTime)
	}
	return r
}

// String renders a one-line summary.
func (r *RestartResult) String() string {
	return fmt.Sprintf(
		"seed=%d tuples=%d delivered=%d missing=%d dups=%d restarts=%d recovered=%d kills=%d replayed=%d suppressed=%d close=%v violations=%d",
		r.Schedule.Seed, r.Schedule.Tuples, r.Delivered, r.Missing, r.Dups,
		r.Restarts, r.Recovered, r.Kills, r.Replayed, r.Suppressed,
		r.CloseTime, len(r.Violations))
}
