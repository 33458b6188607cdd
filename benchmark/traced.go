package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/stream"
	"repro/internal/trace"
)

// spanSample is the program's own account of one sampled tuple: the
// queue/proc/net totals its trace.Span accumulated on the way through
// every node, read at the sink.
type spanSample struct {
	Trace   uint64 `json:"trace"`
	BirthNs int64  `json:"birth_ns"`
	EndNs   int64  `json:"end_ns"`
	QueueNs int64  `json:"queue_ns"`
	ProcNs  int64  `json:"proc_ns"`
	NetNs   int64  `json:"net_ns"`
	TotalNs int64  `json:"total_ns"`
}

// finishSpan closes a span at the sink exactly as a terminal node would:
// the last hop is network time, and the span ends on arrival.
func finishSpan(sp *trace.Span, from string, now int64) spanSample {
	sp.Mark(trace.KindNet, from+">"+sinkID, now)
	sp.Finish(sinkID, now)
	q, p, n := sp.Components()
	return spanSample{Trace: sp.ID, BirthNs: sp.Birth, EndNs: now,
		QueueNs: q, ProcNs: p, NetNs: n, TotalNs: sp.Total()}
}

// benchSpan is a span the benchmark records around its own work and its
// own calls into a layer. Spans of one tuple share Trace; Parent names
// the enclosing span within that trace ("" for the root).
type benchSpan struct {
	Trace   uint64 `json:"trace"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanRecorder keeps the traced run's spans in memory until the run
// ends. The generator and the sink's read goroutine both add to it.
type spanRecorder struct {
	mu      sync.Mutex
	spans   []benchSpan
	dropped int
}

// maxBenchSpans bounds the trace file; spans past it are counted, not kept.
const maxBenchSpans = 1 << 16

func (r *spanRecorder) add(spans ...benchSpan) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans)+len(spans) > maxBenchSpans {
		r.dropped += len(spans)
		return
	}
	r.spans = append(r.spans, spans...)
}

// sendSpans records the generator's side of every sampled tuple in a
// train: stamping plus the reference, then the call into transport.Send.
// The sink records the root span ("tuple", creation to arrival) and its
// own side; a sampled tuple the filter drops leaves only these two.
func (r *spanRecorder) sendSpans(train []stream.Tuple, begin, stamped, sent time.Time) {
	for i := range train {
		if sp := train[i].Span; sp != nil {
			r.add(
				benchSpan{Trace: sp.ID, Name: "loadgen.stamp", Parent: "tuple", StartNs: begin.UnixNano(), EndNs: stamped.UnixNano()},
				benchSpan{Trace: sp.ID, Name: "transport.Send", Parent: "tuple", StartNs: stamped.UnixNano(), EndNs: sent.UnixNano()},
			)
		}
	}
}

// scrape is one reading of every node's telemetry endpoints and kernel
// accounting. The benchmark keeps the raw bodies for the trace file and
// parses only the few fields it reports, through local types, so a node
// that adds fields does not break it.
type scrape struct {
	AtNs  int64        `json:"at_ns"`
	Nodes []nodeScrape `json:"nodes"`
}

type nodeScrape struct {
	Node    string          `json:"node"`
	Metrics json.RawMessage `json:"metrics"`
	Links   json.RawMessage `json:"links"`
	Proc    procSnap        `json:"proc"`

	counters map[string]int64
	links    []linkInfo
}

type linkInfo struct {
	Peer       string `json:"peer"`
	Reconnects int64  `json:"reconnects"`
	Dropped    int64  `json:"dropped"`
	MsgsSent   int64  `json:"msgs_sent"`
	BytesSent  int64  `json:"bytes_sent"`
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func scrapeNodes(c *cluster) (*scrape, error) {
	s := &scrape{AtNs: time.Now().UnixNano()}
	for _, n := range c.nodes {
		ns := nodeScrape{Node: n.def.id}
		var err error
		if ns.Metrics, err = httpGet("http://" + n.httpAddr + "/metrics"); err != nil {
			return nil, err
		}
		if ns.Links, err = httpGet("http://" + n.httpAddr + "/links"); err != nil {
			return nil, err
		}
		if ns.Proc, err = readProc(n.pid()); err != nil {
			return nil, err
		}
		var m struct {
			Metrics struct {
				Counters map[string]int64 `json:"counters"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(ns.Metrics, &m); err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", n.def.id, err)
		}
		ns.counters = m.Metrics.Counters
		var l struct {
			Links []linkInfo `json:"links"`
		}
		if err := json.Unmarshal(ns.Links, &l); err != nil {
			return nil, fmt.Errorf("%s /links: %w", n.def.id, err)
		}
		ns.links = l.Links
		s.Nodes = append(s.Nodes, ns)
	}
	return s, nil
}

// counterDelta is after-before of one engine counter on node i.
func counterDelta(before, after *scrape, i int, name string) int64 {
	return after.Nodes[i].counters[name] - before.Nodes[i].counters[name]
}

// linkTotals sums a node's outbound links.
func (n nodeScrape) linkTotals() (msgs, bytes, dropped, reconnects int64) {
	for _, l := range n.links {
		msgs += l.MsgsSent
		bytes += l.BytesSent
		dropped += l.Dropped
		reconnects += l.Reconnects
	}
	return
}

// traceFile is what a traced run leaves in <out>/trace_<workload>.json.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Env      envBlock     `json:"env"`
	Windows  []traceWin   `json:"windows"`
	Tuples   []spanSample `json:"tuples"`
	Spans    []benchSpan  `json:"spans"`
	Dropped  int          `json:"spans_dropped"`
}

type traceWin struct {
	Phase   string  `json:"phase"`
	Segment string  `json:"segment"`
	Seconds float64 `json:"seconds"`
	Before  *scrape `json:"before"`
	After   *scrape `json:"after"`
}

func writeTraceFile(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
