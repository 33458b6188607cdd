// Package telemetry is the node-local HTTP introspection surface shared
// by cmd/auroranode (which serves it) and cmd/dspstat (which scrapes it):
// liveness, metric snapshots, flight-recorder traces, the structured
// event journal, and — when the statistics plane is on — windowed series
// and the gossiped load map.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
)

// LinkSource exposes a transport's per-peer link states for /links.
// *transport.TCP implements it.
type LinkSource interface {
	LinkInfos() []transport.LinkInfo
}

// LinksResponse is the /links payload: every peer link's supervised
// state machine position, buffering, and reconnect counters.
type LinksResponse struct {
	Node  string               `json:"node"`
	Links []transport.LinkInfo `json:"links"`
}

// MetricsResponse is the /metrics payload.
type MetricsResponse struct {
	Node string `json:"node"`
	// Now is the scrape's wall-clock time in unix nanoseconds and
	// UptimeNs how long this telemetry surface has been serving — rate
	// computations across scrapes need both.
	Now      int64                    `json:"now"`
	UptimeNs int64                    `json:"uptime_ns"`
	Version  string                   `json:"version,omitempty"`
	Metrics  metrics.RegistrySnapshot `json:"metrics"`
}

// StatsResponse is the /stats payload: the node's windowed series.
type StatsResponse struct {
	Node     string               `json:"node"`
	WindowNs int64                `json:"window_ns"`
	K        int                  `json:"k"`
	Series   []stats.SeriesExport `json:"series"`
}

// LoadMapResponse is the /loadmap payload: the node's converged view of
// the cluster, plus the ranking derived from it.
type LoadMapResponse struct {
	Node    string         `json:"node"`
	Ranking []string       `json:"ranking"`
	Digests []stats.Digest `json:"digests"`
}

// OutputLatency summarizes one output's delivered-latency quantile
// sketch for /latency. Headroom is the forecaster's latest fractional
// distance to the QoS latency cliff, stats.HeadroomUnknown when the
// forecaster has not produced one.
type OutputLatency struct {
	Output   string  `json:"output"`
	Count    uint64  `json:"count"`
	P50      float64 `json:"p50"`
	P95      float64 `json:"p95"`
	P99      float64 `json:"p99"`
	Max      float64 `json:"max"`
	Headroom float64 `json:"headroom"`
}

// LatencyResponse is the /latency payload. Local holds this node's own
// cumulative per-output sketches; Cluster holds per-output sketches
// merged across every digest in the gossiped load map (present only
// when the stats plane is on), so any node can answer for the whole
// cluster within a gossip round.
type LatencyResponse struct {
	Node    string          `json:"node"`
	Alpha   float64         `json:"alpha"`
	Local   []OutputLatency `json:"local"`
	Cluster []OutputLatency `json:"cluster,omitempty"`
}

// EventsResponse is the /events payload: one page of the node's
// structured event journal. Next is the cursor for the following page
// (pass it back as ?since=); Total counts everything ever journaled, so
// a scraper can detect how much the ring has already forgotten.
type EventsResponse struct {
	Node   string         `json:"node"`
	Next   uint64         `json:"next"`
	Total  uint64         `json:"total"`
	Events []events.Event `json:"events"`
}

// Config assembles a telemetry handler. Only Node and Engine are
// required; every nil optional surface answers 404 on its endpoints.
type Config struct {
	Node   string
	Engine *engine.Engine
	// Plane serves /stats and /loadmap.
	Plane *stats.Plane
	// Links serves /links.
	Links LinkSource
	// Journal serves /events. Nil falls back to the engine's journal.
	Journal *events.Journal
	// Version is reported in /metrics (build identification).
	Version string
	// Health, when non-nil, can veto liveness: /healthz answers 503 with
	// the returned reason. The engine's own drain state is checked first.
	Health func() (ok bool, reason string)
}

// NewHandler builds the introspection mux (stdlib only):
//
//	GET /healthz          liveness probe: "ok", or 503 + reason when the
//	                      engine is draining/stopped or the Health probe
//	                      vetoes
//	GET /metrics          JSON snapshot of every engine metric, with
//	                      uptime, wall-clock timestamp, and version
//	GET /metrics?format=prom
//	                      the same snapshot in Prometheus/OpenMetrics
//	                      text exposition, node label attached; when the
//	                      latency-SLO plane is on, per-output sketch
//	                      histograms and headroom gauges are appended
//	GET /latency          per-output delivered-latency quantile summaries
//	                      (p50/p95/p99/max + QoS headroom), node-local
//	                      and merged across the gossiped load map
//	GET /trace?n=100      the most recent flight-recorder events as JSON
//	GET /trace?format=chrome
//	                      same events as Chrome trace-event JSON, loadable
//	                      in Perfetto (ui.perfetto.dev) or chrome://tracing
//	GET /events?since=0&max=256
//	                      the structured event journal, seq-cursor paged
//	                      oldest-first (pass the returned next as since)
//	GET /stats?series=box.&window=4
//	                      windowed series (optionally filtered by name
//	                      prefix; window overrides how many complete
//	                      windows the windowed value averages)
//	GET /loadmap          the gossiped cluster load map and its ranking
//	GET /links            per-peer transport link states and counters
//	GET /debug/pprof/     the standard Go profiling surface
//
// Every handler reads only concurrency-safe state (the metric registry is
// mutex-and-atomic, the flight recorder and event journal are mutexed
// rings, the stats store and load map are mutexed, link infos are
// snapshots), so the HTTP goroutines never touch the single-threaded
// engine core.
func NewHandler(cfg Config) http.Handler {
	id, eng := cfg.Node, cfg.Engine
	journal := cfg.Journal
	if journal == nil {
		journal = eng.Journal()
	}
	start := time.Now()
	mux := http.NewServeMux()

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reason := ""
		if eng.Draining() {
			reason = "draining"
		} else if cfg.Health != nil {
			if ok, why := cfg.Health(); !ok {
				reason = why
				if reason == "" {
					reason = "unhealthy"
				}
			}
		}
		if reason != "" {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(reason + "\n"))
			return
		}
		w.Write([]byte("ok\n"))
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := eng.Metrics().Snapshot()
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			metrics.WritePrometheus(w, snap, map[string]string{"node": id})
			writeSketchProm(w, id, eng, time.Now().UnixNano())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(MetricsResponse{
			Node:     id,
			Now:      time.Now().UnixNano(),
			UptimeNs: time.Since(start).Nanoseconds(),
			Version:  cfg.Version,
			Metrics:  snap,
		})
	})

	mux.HandleFunc("/latency", func(w http.ResponseWriter, _ *http.Request) {
		local := eng.LatencySketches()
		if len(local) == 0 && cfg.Plane == nil {
			http.Error(w, "latency-SLO plane disabled", http.StatusNotFound)
			return
		}
		now := time.Now().UnixNano()
		resp := LatencyResponse{Node: id, Alpha: sketch.DefaultAlpha}
		for out, sk := range local {
			if sk.Count() > 0 {
				resp.Alpha = sk.Alpha()
			}
			resp.Local = append(resp.Local, summarize(out, sk, headroomOf(eng, out, now)))
		}
		sortByOutput(resp.Local)
		if resp.Local == nil {
			resp.Local = []OutputLatency{}
		}
		if cfg.Plane != nil {
			merged := map[string]*sketch.Sketch{}
			worst := map[string]float64{}
			for _, d := range cfg.Plane.Map().Snapshot() {
				for _, oq := range d.Outputs {
					if h, seen := worst[oq.Output]; oq.Headroom > stats.HeadroomUnknown &&
						(!seen || oq.Headroom < h) {
						worst[oq.Output] = oq.Headroom
					}
					if len(oq.Sketch) == 0 {
						continue
					}
					sk, _, err := sketch.DecodeSketch(oq.Sketch)
					if err != nil {
						continue
					}
					if cur, ok := merged[oq.Output]; ok {
						cur.Merge(sk)
					} else {
						merged[oq.Output] = sk
					}
				}
			}
			for out, sk := range merged {
				h := float64(stats.HeadroomUnknown)
				if v, ok := worst[out]; ok {
					h = v
				}
				resp.Cluster = append(resp.Cluster, summarize(out, sk, h))
			}
			sortByOutput(resp.Cluster)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	})

	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		var evs []trace.Event
		if rec := eng.Tracer().Recorder(); rec != nil {
			evs = rec.Events()
		}
		if s := r.URL.Query().Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			if n < len(evs) {
				evs = evs[len(evs)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("format") == "chrome" {
			w.Write(trace.ChromeTrace(evs))
			return
		}
		if evs == nil {
			evs = []trace.Event{}
		}
		json.NewEncoder(w).Encode(evs)
	})

	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if journal == nil {
			http.Error(w, "event journal disabled", http.StatusNotFound)
			return
		}
		var since uint64
		if s := r.URL.Query().Get("since"); s != "" {
			n, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since", http.StatusBadRequest)
				return
			}
			since = n
		}
		max := 256
		if s := r.URL.Query().Get("max"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				http.Error(w, "bad max", http.StatusBadRequest)
				return
			}
			max = n
		}
		evs, next := journal.Since(since, max)
		if evs == nil {
			evs = []events.Event{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(EventsResponse{
			Node: id, Next: next, Total: journal.Total(), Events: evs,
		})
	})

	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Plane == nil {
			http.Error(w, "stats plane disabled", http.StatusNotFound)
			return
		}
		k := cfg.Plane.WindowedK()
		if s := r.URL.Query().Get("window"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				http.Error(w, "bad window", http.StatusBadRequest)
				return
			}
			k = n
		}
		st := cfg.Plane.Store()
		series := st.Export(r.URL.Query().Get("series"), k, time.Now().UnixNano())
		if series == nil {
			series = []stats.SeriesExport{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(StatsResponse{
			Node: id, WindowNs: st.WindowNs(), K: k, Series: series,
		})
	})

	mux.HandleFunc("/loadmap", func(w http.ResponseWriter, _ *http.Request) {
		if cfg.Plane == nil {
			http.Error(w, "stats plane disabled", http.StatusNotFound)
			return
		}
		lm := cfg.Plane.Map()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(LoadMapResponse{
			Node: id, Ranking: lm.Ranking(), Digests: lm.Snapshot(),
		})
	})

	mux.HandleFunc("/links", func(w http.ResponseWriter, _ *http.Request) {
		if cfg.Links == nil {
			http.Error(w, "no transport", http.StatusNotFound)
			return
		}
		infos := cfg.Links.LinkInfos()
		if infos == nil {
			infos = []transport.LinkInfo{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(LinksResponse{Node: id, Links: infos})
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// summarize reduces a sketch to its /latency row.
func summarize(out string, sk *sketch.Sketch, headroom float64) OutputLatency {
	return OutputLatency{
		Output:   out,
		Count:    sk.Count(),
		P50:      sk.Quantile(0.50),
		P95:      sk.Quantile(0.95),
		P99:      sk.Quantile(0.99),
		Max:      sk.Max(),
		Headroom: headroom,
	}
}

func sortByOutput(rows []OutputLatency) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Output < rows[j].Output })
}

// headroomOf looks up the forecaster's latest headroom gauge for an
// output, stats.HeadroomUnknown when the forecaster has not run.
func headroomOf(eng *engine.Engine, out string, now int64) float64 {
	if st := eng.StatsStore(); st != nil {
		if h, ok := st.Latest(stats.SeriesOutputHeadroom(out), now); ok {
			return h
		}
	}
	return stats.HeadroomUnknown
}

// writeSketchProm appends the latency-SLO plane's per-output sketches to
// a Prometheus exposition as real histogram families (cumulative le
// buckets straight from the sketch's log-bucket boundaries) plus a
// headroom gauge per output. No-op when the plane is off.
func writeSketchProm(w io.Writer, node string, eng *engine.Engine, now int64) {
	sks := eng.LatencySketches()
	if len(sks) == 0 {
		return
	}
	outs := make([]string, 0, len(sks))
	for out := range sks {
		outs = append(outs, out)
	}
	sort.Strings(outs)
	fmt.Fprintf(w, "# TYPE dsp_output_latency_ns histogram\n")
	for _, out := range outs {
		sk := sks[out]
		sk.Buckets(func(upper float64, cum uint64) {
			fmt.Fprintf(w, "dsp_output_latency_ns_bucket{node=%q,output=%q,le=%q} %d\n",
				node, out, strconv.FormatFloat(upper, 'g', -1, 64), cum)
		})
		fmt.Fprintf(w, "dsp_output_latency_ns_bucket{node=%q,output=%q,le=\"+Inf\"} %d\n",
			node, out, sk.Count())
		fmt.Fprintf(w, "dsp_output_latency_ns_sum{node=%q,output=%q} %v\n", node, out, sk.Sum())
		fmt.Fprintf(w, "dsp_output_latency_ns_count{node=%q,output=%q} %d\n", node, out, sk.Count())
	}
	wrote := false
	for _, out := range outs {
		if h := headroomOf(eng, out, now); h > stats.HeadroomUnknown {
			if !wrote {
				fmt.Fprintf(w, "# TYPE dsp_qos_headroom gauge\n")
				wrote = true
			}
			fmt.Fprintf(w, "dsp_qos_headroom{node=%q,output=%q} %v\n", node, out, h)
		}
	}
}
