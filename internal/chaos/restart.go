package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/events"
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
	// Journal, when set, receives the sender's journal events — every
	// incarnation's, appended as it dies.
	Journal *events.Journal
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
	Outcome

	Restarts  int // restart cycles actually executed
	Kills     int // plain connection kills injected
	Recovered int // log entries rebuilt from disk across all restarts
}

// RunRestart executes one process-restart fault schedule and verifies
// the durability oracles. A restart closes the durable sender node —
// transport, output log, everything in memory — and opens it again on
// the same data directory. The consumer node stays alive throughout (its
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
	p, err := newPair(s.Tuples, s.Dir, s.Journal)
	if err != nil {
		r.violate("start: %v", err)
		return r
	}
	if n := p.up.Outstanding(); n != 0 {
		r.violate("fresh data dir recovered %d entries, want 0", n)
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

	// Offered in trains: one log append each. Ingest's return is the
	// commit point — the run loop's SendTrain fsyncs the train in the
	// sender's segment log before the offered set counts it.
	err = p.offer(s.Tuples, s.Gap, func(i int) bool { return restartAt[i] || killAt[i] }, func(i int) error {
		if restartAt[i] {
			if err := p.restart(); err != nil {
				return fmt.Errorf("restart %d: %w", r.Restarts+1, err)
			}
			r.Restarts++
		}
		if killAt[i] {
			p.proxy.KillConns()
			r.Kills++
		}
		return nil
	})
	if err != nil {
		r.violate("%v", err)
		return r
	}
	r.Outcome = p.finish(s.Tuples, fmt.Sprintf("%d restarts", r.Restarts))
	r.Recovered = p.recovered
	if r.Restarts > 0 && r.Recovered == 0 {
		r.violate("recovery: %d restarts recovered 0 log entries — the durable path was never exercised", r.Restarts)
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
