package main

import (
	"path/filepath"
	"time"

	"repro/internal/stream"
)

// The layer ledger replays a workload's own tuples through each layer's
// public functions, single-threaded and in this process, after the
// cluster has stopped. Each layer's calls live in ledger_<layer>.go so an
// API move in one layer is a one-file follow-up here. The ledger prices
// operations; the traced run counts them; explained_share multiplies the
// two and compares with what /proc measured.

// cost is the mean price of one operation: wall time, and CPU time of
// the whole process (so both ends of a loopback hop are counted).
type cost struct{ wallNs, cpuNs float64 }

// timeOps calls run(n) — which must perform n operations — until the
// budget is spent, and returns the mean cost per operation.
func timeOps(budget time.Duration, n int, run func(n int)) cost {
	run(n) // warm caches, pools and lazily grown buffers
	var ops int
	cpu0, start := selfCPUNs(), time.Now()
	for time.Since(start) < budget {
		run(n)
		ops += n
	}
	wall := float64(time.Since(start))
	cpu := float64(selfCPUNs() - cpu0)
	return cost{wallNs: wall / float64(ops), cpuNs: cpu / float64(ops)}
}

// ledgerInput is what every layer replay starts from.
type ledgerInput struct {
	w      *workload
	tuples []stream.Tuple // generated exactly as the load generator would
	dir    string         // scratch directory on the work-dir filesystem
	budget time.Duration  // how long each micro-measurement runs
}

// sampleInput stamps n source tuples the way loadgen.send does.
func sampleInput(w *workload, seed int64, n int) []stream.Tuple {
	ring := newTrainRing(seed, n, 1)
	now := time.Now().UnixNano()
	train := ring.trains[0]
	for i := range train {
		train[i].Seq, train[i].TS = uint64(i+1), now
		train[i].Vals[0], train[i].Vals[2] = stream.Int(w.keyOf(uint64(i))), stream.Int(now)
	}
	return train
}

// ledger is every layer's prices for one workload.
type ledger struct {
	transport transportCosts
	ha        haCosts
	storage   storageCosts
	engine    engineCosts
	op        opCosts
}

// runLedger prices every layer. Each micro-measurement gets 1/80 of the
// run's seconds, a quarter second at most: about twenty of them make the
// ledger a quarter of a traced run.
func runLedger(w *workload, cfg config) (*ledger, error) {
	in := ledgerInput{
		w: w, tuples: sampleInput(w, cfg.seed, 1<<14),
		dir:    filepath.Join(cfg.workDir, "ledger"),
		budget: secs(min(cfg.seconds/80, 0.25)),
	}
	var l ledger
	var err error
	if l.transport, err = ledgerTransport(in); err != nil {
		return nil, err
	}
	l.ha = ledgerHA(in)
	if l.storage, err = ledgerStorage(in); err != nil {
		return nil, err
	}
	if l.engine, err = ledgerEngine(in); err != nil {
		return nil, err
	}
	if l.op, err = ledgerOp(in); err != nil {
		return nil, err
	}
	return &l, nil
}

// explainedCPUNs prices one source tuple's trip through the node
// processes from the ledger: CPU ns summed over nodes. routedBy[i] is how
// many tuples node i routes onward per source tuple, as the traced run
// counted them. A loopback hop's measured CPU covers both ends; a node
// pays the receiving half of its inbound hop and the sending half of its
// outbound one, and the halves are taken as equal.
func (l *ledger) explainedCPUNs(w *workload, p phaseDef, routedBy []float64) float64 {
	const ackEvery = 32
	// A hop costs a per-message part and a per-tuple part; the 1- and
	// 64-tuple measurements fix both, and a train of any length follows.
	perMsg := (l.transport.tcp1.cpuNs - l.transport.tcp64.cpuNs) * 64 / 63
	perTup := l.transport.tcp1.cpuNs - perMsg
	hop := func(trainLen int) float64 { return perMsg/float64(trainLen) + perTup }
	total := l.engine.perTuple.cpuNs
	in, inLen := 1.0, p.trainLen // the source's trains reach the first node
	for i := range w.nodes {
		out := routedBy[i]
		total += in * hop(inLen) / 2   // receive half of the inbound hop
		total += out * hop(1) / 2      // send half of the outbound hop: one tuple per frame
		total += out * l.ha.send.cpuNs // stamp, retain, truncate on ack
		if i > 0 {
			total += in * l.ha.recv.cpuNs       // dedup, ack cadence
			total += in / ackEvery * hop(1) / 2 // the ack frames it sends upstream
		}
		if w.durable {
			total += out * l.storage.appendSync.cpuNs
			if i > 0 {
				total += in / ackEvery * l.storage.checkpoint.cpuNs
			}
		}
		in, inLen = out, 1
	}
	return total
}
