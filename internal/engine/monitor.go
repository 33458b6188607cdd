package engine

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Monitor is the QoS Monitor of Fig 3: it constantly observes the QoS of
// output tuples; this information drives the Scheduler and informs the
// Load Shedder when and where it is appropriate to discard tuples (§2.3).
type Monitor struct {
	clock Clock
}

// NewMonitor returns a monitor bound to the engine clock.
func NewMonitor(c Clock) *Monitor { return &Monitor{clock: c} }

// outputState tracks one application output's deliveries against its QoS
// specification. mu guards the observation state: the run loop observes
// deliveries while the shedder's noteDrop runs on ingest goroutines and
// telemetry reads reports.
type outputState struct {
	name     string
	spec     *qos.Spec
	valueIdx int
	latency  *metrics.Histogram
	// util is the delivered-QoS attribution gauge: the running mean of
	// per-tuple utility against the attached QoS graphs, registered so
	// /metrics scrapes carry delivered quality. Nil when the output has
	// no QoS spec (utility would be constant 1 — noise, not signal).
	util *metrics.FloatGauge
	// relay marks an output whose tuples continue to another node; traced
	// spans are not finalized at relay outputs.
	relay bool

	mu        sync.Mutex
	utilSum   float64 // sum of per-tuple latency*value utility
	delivered uint64
	dropped   uint64

	// Latency-SLO plane state, all under mu. lat is the cumulative
	// delivered-latency sketch (nil when the plane is off — the hot path
	// then pays one nil check); tails accumulates the queue/proc/net
	// decomposition of traced spans whose latency cleared tailCut, the
	// evidence tail attribution ranks; warned and sloIdx belong to the
	// forecaster's once-per-window latch.
	lat       *sketch.Sketch
	tailCut   float64
	tails     map[string]*tailAgg
	tailSpans uint64
	tailNs    int64
	warned    bool
	breached  bool
	sloIdx    int64
}

// tailAgg is one contributor's accumulated share of tail-span latency:
// a box (queue + proc segments) or a network link (net segments).
type tailAgg struct {
	queue, proc, net int64
}

// enableLatencySketch switches the output's sketch recording on; called
// once from New before the engine runs, never concurrently.
func (os *outputState) enableLatencySketch() {
	os.lat = sketch.New(sketch.DefaultAlpha)
	os.tails = map[string]*tailAgg{}
	os.sloIdx = -1
}

// noteTail folds a finished traced span into the per-contributor tail
// accumulators when its end-to-end latency clears the tail cut (a
// tailCut of 0 — before the first refresh — admits every span).
func (os *outputState) noteTail(sp *trace.Span) {
	lat := float64(sp.Total())
	os.mu.Lock()
	defer os.mu.Unlock()
	if lat < os.tailCut {
		return
	}
	for _, st := range sp.Stages {
		a, ok := os.tails[st.Name]
		if !ok {
			a = &tailAgg{}
			os.tails[st.Name] = a
		}
		switch st.Kind {
		case trace.KindQueue:
			a.queue += st.Dur
		case trace.KindProc:
			a.proc += st.Dur
		case trace.KindNet:
			a.net += st.Dur
		}
	}
	os.tailSpans++
	os.tailNs += sp.Total()
}

// decayTails halves every tail accumulator — called once per stats
// window so attribution tracks recent behavior instead of averaging a
// slowdown away against the whole run's history. Callers hold os.mu.
func (os *outputState) decayTails() {
	for name, a := range os.tails {
		a.queue /= 2
		a.proc /= 2
		a.net /= 2
		if a.queue == 0 && a.proc == 0 && a.net == 0 {
			delete(os.tails, name)
		}
	}
	os.tailSpans -= os.tailSpans / 2
	os.tailNs -= os.tailNs / 2
}

func newOutputState(o *query.Output, schema *stream.Schema, reg *metrics.Registry) (*outputState, error) {
	os := &outputState{
		name:     o.Name,
		spec:     o.QoS,
		valueIdx: -1,
		latency:  reg.Histogram("output." + o.Name + ".latency_ns"),
	}
	if o.QoS != nil {
		os.util = reg.FloatGauge("output." + o.Name + ".utility")
	}
	if o.QoS != nil && o.QoS.Value != nil {
		if schema == nil {
			return nil, fmt.Errorf("value QoS on output with unknown schema")
		}
		idx := schema.Index(o.QoS.ValueField)
		if idx < 0 {
			return nil, fmt.Errorf("value QoS field %q not in output schema %s",
				o.QoS.ValueField, schema)
		}
		os.valueIdx = idx
	}
	return os, nil
}

// observeTrain records a run of tuples delivered at time now: one mutex
// acquisition and one utility-gauge store per run, after which the gauge
// equals utilSum/delivered — the exact mean the QoS graphs assign to the
// observed latency samples (the property the tests pin). The latency
// histogram and sketch recorders are atomic/lock-free, so folding them
// under the mutex costs nothing extra.
func (os *outputState) observeTrain(ts []stream.Tuple, now int64) {
	if len(ts) == 0 {
		return
	}
	os.mu.Lock()
	for i := range ts {
		lat := float64(now - ts[i].TS)
		if lat < 0 {
			lat = 0
		}
		os.latency.Observe(lat)
		u := 1.0
		if os.spec != nil && os.spec.Latency != nil {
			u *= os.spec.Latency.Utility(lat)
		}
		if os.valueIdx >= 0 {
			u *= os.spec.Value.Utility(ts[i].Field(os.valueIdx).AsFloat())
		}
		os.utilSum += u
		os.delivered++
		if os.lat != nil {
			os.lat.Record(lat)
		}
	}
	mean := os.utilSum / float64(os.delivered)
	os.mu.Unlock()
	if os.util != nil {
		os.util.Set(mean)
	}
}

// hasQoS reports whether the output carries a QoS spec — only then is
// its utility worth attributing (without one utility is constant 1).
func (os *outputState) hasQoS() bool { return os.spec != nil }

// qosCounters returns the cumulative delivered-utility sum and delivery
// count, the raw counters SampleStats feeds the stats plane.
func (os *outputState) qosCounters() (utilSum float64, delivered uint64) {
	os.mu.Lock()
	defer os.mu.Unlock()
	return os.utilSum, os.delivered
}

// noteDrop charges one shed tuple against the output's loss accounting.
func (os *outputState) noteDrop() {
	os.mu.Lock()
	os.dropped++
	os.mu.Unlock()
}

// OutputReport summarizes one output's observed QoS.
type OutputReport struct {
	Name      string
	Delivered uint64
	Dropped   uint64
	Latency   metrics.Summary
	// Utility is the aggregate perceived QoS: the mean per-tuple
	// latency/value utility scaled by the loss graph evaluated at the
	// delivered fraction. This is the quantity Aurora's operational goal
	// maximizes (§7.1).
	Utility float64
	// DeliveredFraction is delivered / (delivered + dropped).
	DeliveredFraction float64
}

func (os *outputState) report() OutputReport {
	os.mu.Lock()
	delivered, dropped, utilSum := os.delivered, os.dropped, os.utilSum
	os.mu.Unlock()
	r := OutputReport{
		Name:      os.name,
		Delivered: delivered,
		Dropped:   dropped,
		Latency:   os.latency.Snapshot(),
	}
	total := delivered + dropped
	if total == 0 {
		r.DeliveredFraction = 1
		return r
	}
	r.DeliveredFraction = float64(delivered) / float64(total)
	mean := 0.0
	if delivered > 0 {
		mean = utilSum / float64(delivered)
	}
	lossU := 1.0
	if os.spec != nil && os.spec.Loss != nil {
		lossU = os.spec.Loss.Utility(r.DeliveredFraction)
	}
	r.Utility = mean * lossU
	return r
}
