package engine

import (
	"sort"

	"repro/internal/events"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// The latency-SLO plane closes the loop between the QoS monitor and the
// statistics plane: every output's delivered latency feeds a mergeable
// quantile sketch (published to the stats store and gossiped inside
// digests), traced tail spans feed a per-box queue/proc/net attribution,
// and once per stats window a forecaster regresses the output's recent
// p99 trajectory against its QoS latency cliff — journaling an SLO
// warning, with the attributed bottleneck box chained on the same
// correlation id, before delivered utility actually drops.

// SLOConfig tunes the latency-SLO plane. The zero value of every field
// selects a sensible default, so &SLOConfig{} enables the plane as-is.
type SLOConfig struct {
	// CliffFrac locates the latency cliff on the output's QoS latency
	// graph: the largest latency whose utility is still CliffFrac of the
	// graph's maximum (0 means 0.9).
	CliffFrac float64
	// Horizon is how many stats windows ahead the forecast projects the
	// fitted p99 trend (0 means 3).
	Horizon int
	// Windows is how many complete stats windows the trajectory
	// regression looks back over (0 means 8).
	Windows int
	// Quantile is the forecast percentile (0 means 0.99).
	Quantile float64
	// TailFrac is the quantile of the output's own latency distribution
	// that a traced span must clear to count as tail-attribution evidence
	// (0 means 0.95).
	TailFrac float64
	// MinSamples is the minimum delivered-tuple count before the
	// forecaster trusts the sketch (0 means 64).
	MinSamples uint64
	// WindowNs sizes the private stats store created when Config.Stats is
	// nil (0 means 25 ms).
	WindowNs int64
}

func (c *SLOConfig) applyDefaults() {
	if c.CliffFrac <= 0 || c.CliffFrac > 1 {
		c.CliffFrac = 0.9
	}
	if c.Horizon <= 0 {
		c.Horizon = 3
	}
	if c.Windows <= 0 {
		c.Windows = 8
	}
	if c.Quantile <= 0 || c.Quantile >= 1 {
		c.Quantile = 0.99
	}
	if c.TailFrac <= 0 || c.TailFrac >= 1 {
		c.TailFrac = 0.95
	}
	if c.MinSamples == 0 {
		c.MinSamples = 64
	}
}

// BoxShare is one contributor's slice of an output's tail latency: a box
// (queue + proc time) or a network link (net time), over the spans that
// cleared the tail cut.
type BoxShare struct {
	Name    string  `json:"name"`
	QueueNs int64   `json:"queue_ns"`
	ProcNs  int64   `json:"proc_ns"`
	NetNs   int64   `json:"net_ns"`
	Share   float64 `json:"share"` // fraction of the summed tail time
}

// Attribution decomposes an output's tail latency into its contributors,
// critical-path first.
type Attribution struct {
	Output   string     `json:"output"`
	Spans    uint64     `json:"spans"`    // tail spans the evidence covers
	TotalNs  int64      `json:"total_ns"` // summed attributed time
	Critical string     `json:"critical"` // largest contributor
	Shares   []BoxShare `json:"shares"`
}

// AttributeOutput ranks the contributors to the named output's tail
// latency from the traced spans that cleared its tail cut. ok is false
// when the output is unknown, the SLO plane is off, or no tail evidence
// has accumulated yet (tracing disabled or no deliveries).
func (e *Engine) AttributeOutput(name string) (Attribution, bool) {
	os, ok := e.outputs[name]
	if !ok || os.lat == nil {
		return Attribution{}, false
	}
	os.mu.Lock()
	defer os.mu.Unlock()
	if os.tailSpans == 0 || len(os.tails) == 0 {
		return Attribution{}, false
	}
	a := Attribution{Output: name, Spans: os.tailSpans}
	for n, agg := range os.tails {
		if n == name {
			// The span's Finish residual is charged to the output name
			// itself; it is delivery bookkeeping, not a box.
			continue
		}
		a.Shares = append(a.Shares, BoxShare{
			Name: n, QueueNs: agg.queue, ProcNs: agg.proc, NetNs: agg.net,
		})
		a.TotalNs += agg.queue + agg.proc + agg.net
	}
	if a.TotalNs <= 0 || len(a.Shares) == 0 {
		return Attribution{}, false
	}
	for i := range a.Shares {
		s := &a.Shares[i]
		s.Share = float64(s.QueueNs+s.ProcNs+s.NetNs) / float64(a.TotalNs)
	}
	sort.Slice(a.Shares, func(i, j int) bool {
		if a.Shares[i].Share != a.Shares[j].Share {
			return a.Shares[i].Share > a.Shares[j].Share
		}
		return a.Shares[i].Name < a.Shares[j].Name
	})
	a.Critical = a.Shares[0].Name
	return a, true
}

// LatencySketch returns a copy of the named output's cumulative
// delivered-latency sketch; ok is false when the output is unknown or
// the sketch plane is off.
func (e *Engine) LatencySketch(name string) (*sketch.Sketch, bool) {
	os, ok := e.outputs[name]
	if !ok || os.lat == nil {
		return nil, false
	}
	os.mu.Lock()
	defer os.mu.Unlock()
	return os.lat.Clone(), true
}

// LatencySketches returns copies of every output's cumulative latency
// sketch, keyed by output name; empty when the sketch plane is off.
func (e *Engine) LatencySketches() map[string]*sketch.Sketch {
	out := map[string]*sketch.Sketch{}
	for name, os := range e.outputs {
		if os.lat == nil {
			continue
		}
		os.mu.Lock()
		out[name] = os.lat.Clone()
		os.mu.Unlock()
	}
	return out
}

// SetBoxCost overrides the modeled per-tuple cost of a box (and its
// key-partition replicas) under a virtual clock — the experiment knob
// that injects a runtime slowdown. It reports whether the box exists.
// Like the serial control methods, it must not race a running Step loop
// on a wall clock; netsim experiments call it from the simulation
// thread.
func (e *Engine) SetBoxCost(id string, costNs int64) bool {
	if costNs <= 0 {
		return false
	}
	found := false
	for _, b := range e.snap().boxes {
		if b.id == id || b.parentID == id {
			b.virtCost = costNs
			found = true
		}
	}
	return found
}

// sloCheck runs the forecaster once per stats window per output: refresh
// the tail cut, publish the headroom gauge, fit the p99 trajectory, and
// journal an early warning (with chained bottleneck attribution) when
// the projection crosses the output's latency cliff.
func (e *Engine) sloCheck(now int64) {
	if e.slo == nil || e.stats == nil {
		return
	}
	idx := now / e.stats.WindowNs()
	for name, os := range e.outputs {
		if os.lat == nil {
			continue
		}
		os.mu.Lock()
		if os.sloIdx == idx {
			os.mu.Unlock()
			continue // at most one check per window
		}
		os.sloIdx = idx
		count := os.lat.Count()
		if count >= 16 {
			os.tailCut = os.lat.Quantile(e.slo.TailFrac)
		}
		os.decayTails()
		spec := os.spec
		warned, breached := os.warned, os.breached
		os.mu.Unlock()

		if spec == nil || spec.Latency == nil || count < e.slo.MinSamples {
			continue
		}
		cliff := spec.Latency.CriticalX(e.slo.CliffFrac)
		if cliff <= 0 {
			continue
		}
		series := stats.SeriesOutputLatency(name)
		ws, ok := e.stats.WindowedSketch(series, e.slo.Windows, now)
		if !ok {
			continue
		}
		p99 := ws.Quantile(e.slo.Quantile)
		headroom := (cliff - p99) / cliff
		if headroom < -1 {
			headroom = -1
		} else if headroom > 1 {
			headroom = 1
		}
		e.stats.Observe(stats.SeriesOutputHeadroom(name), stats.KindGauge, now, headroom)

		predicted := p99
		traj := e.stats.SketchTrajectory(series, e.slo.Windows, now)
		if len(traj) >= 2 {
			slope := trajSlope(traj, e.stats.WindowNs())
			predicted = traj[len(traj)-1].Value + slope*float64(e.slo.Horizon)
		}

		switch {
		case !warned && (predicted >= cliff || p99 >= cliff):
			e.sloWarn(name, now, p99, predicted, cliff)
			os.mu.Lock()
			os.warned = true
			os.breached = p99 >= cliff
			os.mu.Unlock()
		case warned && !breached && p99 >= cliff:
			// The forecast came true: the warn-time attribution ran on
			// early, possibly ambiguous tail evidence, so journal a
			// refreshed one now that the breach's spans dominate the
			// accumulators — the event an operator (and E20) trusts.
			e.sloBreach(name, now, p99, cliff)
			os.mu.Lock()
			os.breached = true
			os.mu.Unlock()
		case warned && p99 < 0.8*cliff && predicted < 0.8*cliff:
			// Hysteresis: re-arm only once the trajectory is clearly back
			// under the cliff, so a hovering p99 warns once, not per window.
			os.mu.Lock()
			os.warned = false
			os.breached = false
			os.mu.Unlock()
		}
	}
}

// trajSlope fits a least-squares line to the trajectory, returning the
// p99 change per window.
func trajSlope(pts []stats.Point, windowNs int64) float64 {
	n := float64(len(pts))
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x := float64(p.Start / windowNs)
		sx += x
		sy += p.Value
		sxx += x * x
		sxy += x * p.Value
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// sloWarn journals the early warning and, when tail evidence exists, the
// bottleneck attribution chained on the same correlation id (cause →
// effect), annotating the flight recorder so traces and journal join on
// one id.
func (e *Engine) sloWarn(name string, now int64, p99, predicted, cliff float64) {
	corr := e.journal.NewCorr()
	e.journal.Append(events.Event{
		Time: now, Kind: events.KindSLOWarn, Subject: name,
		Detail: "p99 trajectory crosses latency cliff",
		Corr:   corr, V1: p99, V2: cliff, V3: predicted,
	})
	if e.tracer != nil {
		e.tracer.AnnotateID(corr, "slo-warn "+name, now)
	}
	if attr, ok := e.AttributeOutput(name); ok {
		e.journal.Append(events.Event{
			Time: now, Kind: events.KindBottleneck, Subject: name,
			Detail: attr.Critical, Corr: corr,
			V1: attr.Shares[0].Share, V2: float64(attr.Spans),
			V3: float64(attr.TotalNs),
		})
		if e.tracer != nil {
			e.tracer.AnnotateID(corr, "bottleneck "+attr.Critical, now)
		}
	}
}

// sloBreach journals the refreshed bottleneck attribution once the
// forecast crossing actually happens. By now the tail accumulators are
// dominated by breach-era spans (decay halved away the calm history), so
// this attribution — unlike the warn-time one — names the contributor
// behind the observed breach.
func (e *Engine) sloBreach(name string, now int64, p99, cliff float64) {
	attr, ok := e.AttributeOutput(name)
	if !ok {
		return
	}
	corr := e.journal.NewCorr()
	e.journal.Append(events.Event{
		Time: now, Kind: events.KindBottleneck, Subject: name,
		Detail: attr.Critical, Corr: corr,
		V1: attr.Shares[0].Share, V2: float64(attr.Spans),
		V3: float64(attr.TotalNs),
	})
	if e.tracer != nil {
		e.tracer.AnnotateID(corr, "bottleneck "+attr.Critical, now)
	}
}
