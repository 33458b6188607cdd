package chaos

import (
	"fmt"
	"math/rand"
	"time"
)

// TCPSchedule is a seed-reproducible fault schedule for the real-TCP
// path: while Tuples flow from a sender node to a consumer node through
// a TCPProxy, the harness kills the connection, blackholes it, and
// stalls handshakes at seed-chosen points. The k-safety oracles then
// check the same contract chaos proves on netsim — no loss, no
// duplicates at the consumer, full convergence — as the shipping node
// provides it: the supervised link layer plus HA link replay.
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
	Outcome

	Kills      int // faults actually injected
	Blackholes int
	Stalls     int
	Reconnects int64 // link re-establishments observed
}

// RunTCP executes one TCP fault schedule against two shipping nodes
// joined through a TCPProxy, and verifies the oracles. Unlike the netsim
// harness this runs on wall-clock sockets, so timings vary run to run;
// the fault placement is what the seed reproduces.
func RunTCP(s TCPSchedule) *TCPResult {
	s = s.withDefaults()
	r := &TCPResult{Schedule: s}
	rng := rand.New(rand.NewSource(s.Seed))
	p, err := newPair(s.Tuples, "", nil)
	if err != nil {
		r.violate("start: %v", err)
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
	p.offer(s.Tuples, s.Gap, fault, func(i int) error {
		for j := 0; j < killAt[i]; j++ {
			if rng.Intn(2) == 0 {
				p.proxy.KillConns()
			} else {
				p.up.TCP().KillConn("dn")
			}
			r.Kills++
		}
		if w, ok := blackAt[i]; ok {
			p.proxy.SetBlackhole(true)
			time.AfterFunc(w, func() { p.proxy.SetBlackhole(false) })
			r.Blackholes++
		}
		if w, ok := stallAt[i]; ok {
			p.proxy.SetStall(w)
			time.AfterFunc(w, func() { p.proxy.SetStall(0) })
			r.Stalls++
		}
		return nil
	})
	for _, in := range p.up.TCP().LinkInfos() {
		if in.Peer == "dn" {
			r.Reconnects = in.Reconnects
		}
	}
	r.Outcome = p.finish(s.Tuples, fmt.Sprintf("%d kills", r.Kills))
	return r
}

// String renders a one-line summary, mirroring Result's diagnostics.
func (r *TCPResult) String() string {
	return fmt.Sprintf(
		"seed=%d tuples=%d delivered=%d missing=%d dups=%d kills=%d black=%d stalls=%d reconnects=%d replayed=%d suppressed=%d close=%v violations=%d",
		r.Schedule.Seed, r.Schedule.Tuples, r.Delivered, r.Missing, r.Dups,
		r.Kills, r.Blackholes, r.Stalls, r.Reconnects, r.Replayed,
		r.Suppressed, r.CloseTime, len(r.Violations))
}
