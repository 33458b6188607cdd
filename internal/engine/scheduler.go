package engine

// DefaultMaxTrain is the default upper bound on tuples pushed through a
// box in one scheduling decision.
const DefaultMaxTrain = 128

// Scheduler determines which box to run next and how many of the tuples
// waiting in front of it to process — the train-scheduling determination
// of §2.3. Next returns (nil, 0, 0) when no box has queued work. Every box
// of the current topology snapshot is a candidate, runtime split replicas
// and merge boxes included.
type Scheduler interface {
	Next(e *Engine) (b *boxState, port int, train int)
}

// RoundRobinScheduler visits boxes cyclically, processing at most Train
// tuples per visit. It is the per-tuple / small-batch baseline that train
// scheduling is measured against (experiment E02).
type RoundRobinScheduler struct {
	Train int
	pos   int
}

// NewRoundRobinScheduler returns a round-robin scheduler with the given
// train size (minimum 1).
func NewRoundRobinScheduler(train int) *RoundRobinScheduler {
	if train < 1 {
		train = 1
	}
	return &RoundRobinScheduler{Train: train}
}

// Next implements Scheduler.
func (s *RoundRobinScheduler) Next(e *Engine) (*boxState, int, int) {
	topo := e.snap().boxes
	n := len(topo)
	for i := 0; i < n; i++ {
		b := topo[(s.pos+i)%n]
		for p, q := range b.inQ {
			if q.Len() > 0 {
				s.pos = (s.pos + i + 1) % n
				return b, p, s.Train
			}
		}
	}
	return nil, 0, 0
}

// TrainScheduler picks the box input queue with the most waiting tuples
// and drains up to MaxTrain of them in one go — maximizing train length to
// amortize per-invocation overhead, the paper's train scheduling.
type TrainScheduler struct {
	MaxTrain int
}

// NewTrainScheduler returns a train scheduler with the given cap.
func NewTrainScheduler(maxTrain int) *TrainScheduler {
	if maxTrain < 1 {
		maxTrain = DefaultMaxTrain
	}
	return &TrainScheduler{MaxTrain: maxTrain}
}

// Next implements Scheduler.
func (s *TrainScheduler) Next(e *Engine) (*boxState, int, int) {
	var best *boxState
	bestPort, bestLen := 0, 0
	for _, b := range e.snap().boxes {
		for p, q := range b.inQ {
			if n := q.Len(); n > bestLen {
				best, bestPort, bestLen = b, p, n
			}
		}
	}
	if best == nil {
		return nil, 0, 0
	}
	train := bestLen
	if train > s.MaxTrain {
		train = s.MaxTrain
	}
	return best, bestPort, train
}

// QoSScheduler prioritizes the box whose oldest waiting tuple is closest
// to violating its output latency budget: a QoS-aware discipline (§7.1
// "all Aurora resource allocation decisions ... are driven by QoS-aware
// algorithms"). Boxes whose outputs have no latency QoS fall back to
// longest-queue order.
type QoSScheduler struct {
	MaxTrain int
	// Budget is the latency (ns) the engine tries to beat; tuples older
	// than Budget*Pressure are urgent. Derived per output from QoS specs
	// by the caller (qos.Graph.CriticalX).
	Budget int64
}

// NewQoSScheduler returns a QoS-priority scheduler against the given
// end-to-end latency budget in nanoseconds.
func NewQoSScheduler(maxTrain int, budget int64) *QoSScheduler {
	if maxTrain < 1 {
		maxTrain = DefaultMaxTrain
	}
	if budget <= 0 {
		budget = 1e9
	}
	return &QoSScheduler{MaxTrain: maxTrain, Budget: budget}
}

// Next implements Scheduler.
func (s *QoSScheduler) Next(e *Engine) (*boxState, int, int) {
	now := e.clock.Now()
	var best *boxState
	bestPort := 0
	bestScore := -1.0
	for _, b := range e.snap().boxes {
		for p, q := range b.inQ {
			n := q.Len()
			if n == 0 {
				continue
			}
			// Urgency: age of the oldest tuple relative to the budget,
			// weighted by queue length so bulk work still gets served.
			oldest, ok := q.OldestEnq()
			if !ok {
				continue
			}
			age := float64(now - oldest)
			score := age/float64(s.Budget) + 0.001*float64(n)
			if score > bestScore {
				best, bestPort, bestScore = b, p, score
			}
		}
	}
	if best == nil {
		return nil, 0, 0
	}
	train := best.inQ[bestPort].Len()
	if train > s.MaxTrain {
		train = s.MaxTrain
	}
	return best, bestPort, train
}
