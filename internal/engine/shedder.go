package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/events"
	"repro/internal/op"
	"repro/internal/qos"
	"repro/internal/query"
	"repro/internal/stream"
)

// ShedMode selects the drop policy.
type ShedMode int

const (
	// ShedRandom drops uniformly at random with the controlled rate — the
	// baseline policy.
	ShedRandom ShedMode = iota
	// ShedQoS drops the lowest-utility tuples first, using the
	// value-based QoS graph over an input expression — "if tuples must be
	// dropped, QoS specifications can be used to determine which and how
	// many" (§7.1).
	ShedQoS
)

// ShedConfig configures the Load Shedder of Fig 3.
type ShedConfig struct {
	Mode ShedMode
	// QueueHigh and QueueLow are the queued-tuple thresholds that raise
	// and lower the drop rate (hysteresis band). Defaults: 2048 / 512.
	QueueHigh int
	QueueLow  int
	// StepUp/StepDown adjust the drop probability per control decision.
	// Defaults: +0.05 / -0.02.
	StepUp   float64
	StepDown float64
	// MaxDrop caps the drop probability (default 0.9).
	MaxDrop float64
	// ValueExpr scores a tuple (ShedQoS only); evaluated on input tuples.
	ValueExpr string
	// ValueGraph maps the score to utility (ShedQoS only).
	ValueGraph *qos.Graph
	// InputSchema resolves ValueExpr (ShedQoS only): name of the network
	// input whose schema the expression binds against.
	InputSchema string
	// Seed makes random drops reproducible.
	Seed int64
}

// Shedder implements QoS-driven load shedding: a control loop raises a
// drop rate while queues exceed the high threshold and lowers it below
// the low threshold; the drop policy then decides which tuples go.
// Shedding happens at ingest, before any processing is invested in a
// tuple — the cheapest place to discard (§2.3).
type Shedder struct {
	cfg ShedConfig

	// mu guards the control-loop and policy state (rng, drop rate, value
	// ring): ShouldDrop runs on ingest goroutines while Control runs on
	// the run loop. The counters are atomic so telemetry
	// (/metrics, SampleStats, dspstat) reads a consistent snapshot without
	// taking the policy lock.
	mu        sync.Mutex
	rng       *rand.Rand
	dropP     float64
	engaged   bool // dropP > 0 last Control decision (journal edge detect)
	valueExpr op.Expr
	values    []float64 // ring of recent value-utilities for quantiles
	valuePos  int
	threshold float64

	dropped   atomic.Uint64
	inspected atomic.Uint64
}

// NewShedder builds a shedder; for ShedQoS the value expression is bound
// against the named input's schema.
func NewShedder(cfg ShedConfig, net *query.Network) (*Shedder, error) {
	if cfg.QueueHigh <= 0 {
		cfg.QueueHigh = 2048
	}
	if cfg.QueueLow <= 0 || cfg.QueueLow >= cfg.QueueHigh {
		cfg.QueueLow = cfg.QueueHigh / 4
	}
	if cfg.StepUp <= 0 {
		cfg.StepUp = 0.05
	}
	if cfg.StepDown <= 0 {
		cfg.StepDown = 0.02
	}
	if cfg.MaxDrop <= 0 || cfg.MaxDrop > 1 {
		cfg.MaxDrop = 0.9
	}
	s := &Shedder{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed + 1)),
		values: make([]float64, 0, 512),
	}
	if cfg.Mode == ShedQoS {
		if cfg.ValueGraph == nil || cfg.ValueExpr == "" || cfg.InputSchema == "" {
			return nil, fmt.Errorf("shedder: ShedQoS requires ValueExpr, ValueGraph, InputSchema")
		}
		in, ok := net.Inputs()[cfg.InputSchema]
		if !ok {
			return nil, fmt.Errorf("shedder: unknown input %q", cfg.InputSchema)
		}
		e, err := op.Parse(cfg.ValueExpr)
		if err != nil {
			return nil, fmt.Errorf("shedder: %w", err)
		}
		if err := e.Bind(in.Schema); err != nil {
			return nil, fmt.Errorf("shedder: %w", err)
		}
		s.valueExpr = e
	}
	return s, nil
}

// Control adjusts the drop rate from queue occupancy (called by the
// engine after every step). Transitions of the drop rate across zero —
// the shedder engaging and disengaging — are journaled with the queue
// depth and cumulative drop count as evidence.
func (s *Shedder) Control(e *Engine) {
	q := e.QueuedTuples()
	s.mu.Lock()
	switch {
	case q > s.cfg.QueueHigh:
		s.dropP += s.cfg.StepUp
		if s.dropP > s.cfg.MaxDrop {
			s.dropP = s.cfg.MaxDrop
		}
	case q < s.cfg.QueueLow && s.dropP > 0:
		s.dropP -= s.cfg.StepDown
		if s.dropP < 0 {
			s.dropP = 0
		}
	}
	engaged := s.dropP > 0
	edge := engaged != s.engaged
	s.engaged = engaged
	dropP := s.dropP
	s.mu.Unlock()
	if edge && e.journal != nil {
		kind := events.KindShedEngage
		if !engaged {
			kind = events.KindShedDisengage
		}
		// V1 = drop probability, V2 = queued tuples, V3 = cumulative drops.
		e.journal.Append(events.Event{
			Time: e.clock.Now(), Kind: kind, Subject: "shedder",
			V1: dropP, V2: float64(q), V3: float64(s.dropped.Load()),
		})
	}
}

// ShouldDrop decides one tuple's fate at ingest.
func (s *Shedder) ShouldDrop(e *Engine, input string, t stream.Tuple) bool {
	inspected := s.inspected.Add(1)
	s.mu.Lock()
	if s.dropP <= 0 {
		s.mu.Unlock()
		return false
	}
	drop := false
	switch s.cfg.Mode {
	case ShedRandom:
		drop = s.rng.Float64() < s.dropP
	case ShedQoS:
		if input != s.cfg.InputSchema {
			drop = s.rng.Float64() < s.dropP
			break
		}
		u := s.cfg.ValueGraph.Utility(s.valueExpr.Eval(t).AsFloat())
		s.observeValue(u, inspected)
		// Drop the tuples in the lowest dropP quantile of recent value
		// utility: same volume shed as random, but the cheapest tuples.
		drop = u <= s.threshold
	}
	s.mu.Unlock()
	if drop {
		s.dropped.Add(1)
	}
	return drop
}

// observeValue maintains the rolling value-utility sample and refreshes
// the drop threshold to the dropP-quantile every 128 observations;
// callers hold s.mu.
func (s *Shedder) observeValue(u float64, inspected uint64) {
	if len(s.values) < cap(s.values) {
		s.values = append(s.values, u)
	} else {
		s.values[s.valuePos] = u
		s.valuePos = (s.valuePos + 1) % len(s.values)
	}
	if len(s.values) >= 32 && inspected%128 == 0 {
		tmp := append([]float64(nil), s.values...)
		sort.Float64s(tmp)
		idx := int(s.dropP * float64(len(tmp)))
		if idx >= len(tmp) {
			idx = len(tmp) - 1
		}
		s.threshold = tmp[idx]
	}
}

// DropRate returns the current controlled drop probability.
func (s *Shedder) DropRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropP
}

// Dropped returns how many tuples the shedder has discarded.
func (s *Shedder) Dropped() uint64 { return s.dropped.Load() }

// Inspected returns how many tuples the shedder has examined at ingest.
func (s *Shedder) Inspected() uint64 { return s.inspected.Load() }
