package chaos

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/node"
	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/transport"
)

// The wall-clock harnesses (RunTCP, RunRestart) drive two shipping nodes,
// not copies of one: whatever loses or duplicates a tuple here is a bug
// in internal/node or below.

// payloadSchema is the tuple both harnesses offer: P is the payload the
// consumer counts.
var payloadSchema = stream.MustSchema("payload", stream.Field{Name: "P", Kind: stream.KindInt})

// passAll is the one-box piece input → pass-all filter → output.
func passAll(name, input, output string) *query.Network {
	return query.NewBuilder(name).
		AddBox("f", op.Spec{Kind: "filter", Params: map[string]string{"predicate": "P >= 0"}}).
		BindInput(input, payloadSchema, "f", 0).
		BindOutput(output, "f", 0, nil).
		MustBuild()
}

// Outcome is what a wall-clock harness finds at the consumer once the run
// has drained, with the oracles' verdicts on it.
type Outcome struct {
	Delivered   int    // distinct payloads at the consumer
	Missing     int    // payloads never delivered (no-loss oracle)
	Dups        int    // payloads delivered more than once (at-most-once oracle)
	Replayed    int64  // tuples retransmitted by resync, every incarnation
	Suppressed  uint64 // duplicate deliveries absorbed by the consumer's dedup
	Outstanding int    // sender log tuples still unacknowledged after drain
	Holes       int    // receiver sequence holes after drain
	CloseTime   time.Duration

	Violations []string
}

// Failed reports whether any oracle was violated.
func (o *Outcome) Failed() bool { return len(o.Violations) > 0 }

func (o *Outcome) violate(format string, args ...any) {
	o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
}

// pair is the two nodes a harness drives: up (in → pass-all → out, routed
// HA-framed to dn/data) dials dn (data → pass-all → out) through a
// fault-injecting proxy, and dn's output hook counts payloads — the
// end-to-end view, after dn's dedup.
type pair struct {
	upCfg  node.Config
	up, dn *node.Node
	proxy  *TCPProxy
	// journal, when set, receives every up incarnation's events as it dies.
	journal *events.Journal

	mu     sync.Mutex
	counts map[int64]int

	recovered int   // output-log entries up rebuilt from disk, every incarnation
	replayed  int64 // tuples replayed by up incarnations already closed
}

// newPair opens dn, the proxy in front of it, and up's first incarnation,
// durable when dataDir is set.
func newPair(tuples int, dataDir string, journal *events.Journal) (*pair, error) {
	p := &pair{counts: make(map[int64]int, tuples), journal: journal}
	link := transport.LinkConfig{
		HandshakeTimeout: 250 * time.Millisecond,
		WriteTimeout:     500 * time.Millisecond,
		PingPeriod:       15 * time.Millisecond, // read-idle 60ms: beats blackhole windows
		BackoffMin:       5 * time.Millisecond,
		BackoffMax:       80 * time.Millisecond,
		BufferLimit:      tuples + 64,
	}
	dn, err := node.Open(node.Config{ID: "dn", Listen: "127.0.0.1:0", Quiet: true,
		Network: passAll("dn", "data", "out"), Output: p.count,
		Link: link, HARoutes: true})
	if err != nil {
		return nil, fmt.Errorf("dn: %w", err)
	}
	p.dn = dn
	if p.proxy, err = NewTCPProxy(dn.TCP().Addr()); err != nil {
		dn.Close()
		return nil, err
	}
	p.upCfg = node.Config{ID: "up", Listen: "127.0.0.1:0", Quiet: true,
		Network: passAll("up", "in", "out"),
		Peers:   map[string]string{"dn": p.proxy.Addr()},
		Routes:  map[string]string{"out": "dn/data"},
		Link:    link, HARoutes: true, EventsBuf: 1024, DataDir: dataDir}
	if p.up, err = node.Open(p.upCfg); err != nil {
		p.proxy.Close()
		dn.Close()
		return nil, fmt.Errorf("up: %w", err)
	}
	return p, nil
}

func (p *pair) count(_ string, ts []stream.Tuple) {
	p.mu.Lock()
	for _, t := range ts {
		p.counts[t.Field(0).AsInt()]++
	}
	p.mu.Unlock()
}

// closeUp kills the up incarnation, first folding its journal into the
// pair's tallies: what it rebuilt from disk and what its resyncs replayed.
func (p *pair) closeUp() {
	evs, _ := p.up.Journal().Since(0, 0)
	for _, e := range evs {
		switch {
		case e.Kind == events.KindRecovery && e.Detail == node.RecoveredOutputLog:
			p.recovered += int(e.V1)
		case e.Kind == events.KindHAReplay:
			p.replayed += int64(e.V1)
		}
		p.journal.Append(e)
	}
	p.up.Close()
}

// restart kills up and reopens it on the same data directory.
func (p *pair) restart() (err error) {
	p.closeUp()
	if p.up, err = node.Open(p.upCfg); err != nil {
		p.dn.Close()
		p.proxy.Close()
	}
	return err
}

// offer feeds total payloads into up in trains of one to four, sleeping
// gap after each; after fires after the train whose last payload is i.
func (p *pair) offer(total int, gap time.Duration, fault func(i int) bool, after func(i int) error) error {
	var train []stream.Tuple
	for next := 0; next < total; {
		train = nextTrain(train[:0], next, total, fault)
		next += len(train)
		p.up.Ingest("in", train)
		if err := after(next - 1); err != nil {
			return err
		}
		time.Sleep(gap)
	}
	return nil
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

// finish drains the run — dn acks until every payload has landed and up's
// log is acknowledged empty, or 15 s lapse — then closes both nodes and
// the proxy and judges the outcome. faults names what was injected.
func (p *pair) finish(total int, faults string) Outcome {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		p.dn.AckNow()
		p.mu.Lock()
		got := len(p.counts)
		p.mu.Unlock()
		r := p.dn.Receiver("up/data")
		if got == total && p.up.Outstanding() == 0 && r != nil && r.Holes() == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	var o Outcome
	p.mu.Lock()
	for i := 0; i < total; i++ {
		switch n := p.counts[int64(i)]; {
		case n == 0:
			o.Missing++
		case n > 1:
			o.Dups++
		}
	}
	o.Delivered = len(p.counts)
	p.mu.Unlock()
	if r := p.dn.Receiver("up/data"); r != nil {
		o.Suppressed, o.Holes = r.Suppressed(), r.Holes()
	}
	o.Outstanding = p.up.Outstanding()

	start := time.Now()
	p.closeUp()
	p.dn.Close()
	p.proxy.Close()
	o.CloseTime = time.Since(start)
	o.Replayed = p.replayed

	if o.Missing > 0 {
		o.violate("no-loss: %d of %d tuples missing at the consumer after %s", o.Missing, total, faults)
	}
	if o.Dups > 0 {
		o.violate("at-most-once: %d payloads delivered more than once", o.Dups)
	}
	if o.Outstanding > 0 {
		o.violate("convergence: %d tuples still unacknowledged in the sender log", o.Outstanding)
	}
	if o.Holes > 0 {
		o.violate("convergence: %d receiver sequence holes never repaired", o.Holes)
	}
	if o.CloseTime > 2*time.Second {
		o.violate("shutdown: Close took %v under churn", o.CloseTime)
	}
	return o
}
