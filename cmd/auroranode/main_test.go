package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var e2eSchema = stream.MustSchema("e2e",
	stream.Field{Name: "A", Kind: stream.KindInt},
	stream.Field{Name: "B", Kind: stream.KindInt},
)

// buildPiece returns a one-box pass-all filter piece input -> box -> output.
func buildPiece(name, input, box, output string) *query.Network {
	return query.NewBuilder(name).
		AddBox(box, op.Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 1000"}}).
		BindInput(input, e2eSchema, box, 0).
		BindOutput(output, box, 0, nil).
		MustBuild()
}

// TestTelemetryEndpoints exercises the HTTP surface against a live traced
// engine: /healthz liveness, /metrics snapshot including the output
// latency histogram, and /trace in both raw and Chrome formats.
func TestTelemetryEndpoints(t *testing.T) {
	tr := trace.NewTracer("x", 1, trace.NewRecorder(256))
	eng, err := engine.New(buildPiece("solo", "in", "b0", "out"), engine.Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		eng.Ingest("in", stream.NewTuple(stream.Int(int64(i)), stream.Int(0)))
		eng.RunUntilIdle(0)
	}

	srv := httptest.NewServer(telemetry.NewHandler(telemetry.Config{Node: "x", Engine: eng}))
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf [1 << 20]byte
		m, _ := resp.Body.Read(buf[:])
		return resp.StatusCode, buf[:m]
	}

	if code, body := get("/healthz"); code != 200 || string(body) != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	var mr struct {
		Node    string                   `json:"node"`
		Metrics metrics.RegistrySnapshot `json:"metrics"`
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatalf("/metrics JSON: %v\n%s", err, body)
	}
	if mr.Node != "x" {
		t.Errorf("node = %q, want x", mr.Node)
	}
	if got := mr.Metrics.Counters["engine.ingested"]; got != n {
		t.Errorf("engine.ingested = %d, want %d", got, n)
	}
	if h := mr.Metrics.Histograms["output.out.latency_ns"]; h.Count != n {
		t.Errorf("latency histogram count = %d, want %d", h.Count, n)
	}
	if h := mr.Metrics.Histograms["trace.queue_ns"]; h.Count != n {
		t.Errorf("trace.queue_ns count = %d, want %d", h.Count, n)
	}

	code, body = get("/trace?n=3")
	if code != 200 {
		t.Fatalf("/trace: %d", code)
	}
	var evs []trace.Event
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatalf("/trace JSON: %v\n%s", err, body)
	}
	if len(evs) == 0 || len(evs) > 3 {
		t.Errorf("/trace?n=3 returned %d events", len(evs))
	}

	code, body = get("/trace?format=chrome")
	if code != 200 {
		t.Fatalf("/trace chrome: %d", code)
	}
	var arr []map[string]any
	if err := json.Unmarshal(body, &arr); err != nil {
		t.Fatalf("chrome JSON: %v", err)
	}
	if len(arr) == 0 {
		t.Error("chrome trace is empty")
	}

	if code, _ := get("/trace?n=zilch"); code != 400 {
		t.Errorf("bad n: got %d, want 400", code)
	}
}

// edgeChain and computeChain are network pieces in the shape the
// benchmark's workloads write: a filter-and-maps edge relay, and a
// compute chain ending in a tumble with a latency QoS graph on its output.
const (
	edgeChain = `{"name":"n1","boxes":[
		{"id":"f","kind":"filter","params":{"predicate":"V < 95"}},
		{"id":"m","kind":"map","params":{"exprs":"K=K; V=(V * 3); T=T"}}],
	"arcs":[{"from":"f:0","to":"m:0"}],
	"inputs":[{"name":"in","schema":[{"name":"K","kind":"int"},{"name":"V","kind":"int"},{"name":"T","kind":"int"}],"box":"f","port":0}],
	"outputs":[{"name":"out","box":"m","port":0}]}`
	computeChain = `{"name":"c","boxes":[
		{"id":"f","kind":"filter","params":{"predicate":"(V > 0) && (K >= 0)"}},
		{"id":"t","kind":"tumble","params":{"agg":"max","on":"T","groupby":"K"}}],
	"arcs":[{"from":"f","to":"t:0"}],
	"inputs":[{"name":"in","schema":[{"name":"K","kind":"int"},{"name":"V","kind":"float"},{"name":"T","kind":"int"},{"name":"S","kind":"string"},{"name":"B","kind":"bool"}],"box":"f","port":0}],
	"outputs":[{"name":"out","box":"t","port":0,"qos_good_ms":5,"qos_zero_ms":50}]}`
)

// TestParseNetwork: both seed pieces build with the output they name, and
// malformed pieces are errors.
func TestParseNetwork(t *testing.T) {
	for _, src := range []string{edgeChain, computeChain} {
		net, err := parseNetwork([]byte(src))
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		if _, ok := net.Outputs()["out"]; !ok {
			t.Errorf("network %s has no output out", net)
		}
	}
	for _, bad := range []string{``, `{`, `{"boxes":[{"id":"f","kind":"nope"}]}`,
		`{"inputs":[{"name":"in","schema":[{"name":"K","kind":"complex"}]}]}`,
		`{"arcs":[{"from":"f:x","to":"m"}]}`} {
		if _, err := parseNetwork([]byte(bad)); err == nil {
			t.Errorf("parseNetwork(%q) accepted a malformed piece", bad)
		}
	}
}

// FuzzParseNetwork: no network JSON, however malformed, panics the
// loader; it builds a network or returns an error.
func FuzzParseNetwork(f *testing.F) {
	f.Add([]byte(edgeChain))
	f.Add([]byte(computeChain))
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := parseNetwork(data)
		if err == nil && net == nil {
			t.Fatal("no network and no error")
		}
		if err != nil && strings.TrimSpace(err.Error()) == "" {
			t.Fatal("empty error")
		}
	})
}

// TestCheckSerialRefusesParallelFlags: the retired in-process parallelism
// flags accept only their serial values; anything else stops the node at
// start-up with a message that points at scaling out across nodes.
func TestCheckSerialRefusesParallelFlags(t *testing.T) {
	for _, c := range []struct{ workers, autosplit int }{{0, 0}, {1, 0}} {
		if err := checkSerial(c.workers, c.autosplit); err != nil {
			t.Errorf("-workers %d -autosplit %d refused: %v", c.workers, c.autosplit, err)
		}
	}
	for _, c := range []struct {
		workers, autosplit int
		flag               string
	}{{2, 0, "-workers 2"}, {-1, 0, "-workers -1"}, {0, 3, "-autosplit 3"}, {1, 1, "-autosplit 1"}} {
		err := checkSerial(c.workers, c.autosplit)
		if err == nil {
			t.Errorf("-workers %d -autosplit %d accepted", c.workers, c.autosplit)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, c.flag+":") || !strings.Contains(msg, "§5") {
			t.Errorf("-workers %d -autosplit %d: error %q should name %s and point at §5 scale-out", c.workers, c.autosplit, msg, c.flag)
		}
	}
}
