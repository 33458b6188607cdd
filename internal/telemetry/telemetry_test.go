package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/transport"
)

func statsFixture(t *testing.T) (*engine.Engine, *stats.Plane) {
	t.Helper()
	schema := stream.MustSchema("s",
		stream.Field{Name: "A", Kind: stream.KindInt},
		stream.Field{Name: "B", Kind: stream.KindInt},
	)
	net := query.NewBuilder("tele").
		AddBox("f1", op.Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 1000"}}).
		BindInput("in", schema, "f1", 0).
		BindOutput("out", "f1", 0, nil).
		MustBuild()
	plane := stats.NewPlane("x", int64(10e6), 8, 2)
	eng, err := engine.New(net, engine.Config{Stats: plane.Store(), StatsEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	for i := 0; i < 10; i++ {
		eng.Ingest("in", stream.NewTuple(stream.Int(int64(i)), stream.Int(1)))
		eng.RunUntilIdle(0)
	}
	eng.SampleStats(now - 10e6)
	eng.SampleStats(now)
	// One window back so the sample sits in a complete window by Publish(now).
	plane.Store().Observe(stats.SeriesNodeUtil, stats.KindGauge, now-10e6, 0.5)
	plane.Publish(now)
	return eng, plane
}

func TestStatsAndLoadMapEndpoints(t *testing.T) {
	eng, plane := statsFixture(t)
	srv := httptest.NewServer(Handler("x", eng, plane, nil))
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	code, body := get("/stats")
	if code != 200 {
		t.Fatalf("/stats: %d %s", code, body)
	}
	var sr StatsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("/stats JSON: %v\n%s", err, body)
	}
	if sr.Node != "x" || sr.WindowNs != 10e6 || sr.K != 2 {
		t.Errorf("stats header = %+v", sr)
	}
	names := map[string]bool{}
	for _, s := range sr.Series {
		names[s.Name] = true
	}
	for _, want := range []string{
		stats.SeriesBoxCost("f1"), stats.SeriesBoxQueue("f1"),
		stats.SeriesBoxWork("f1"), stats.SeriesNodeUtil,
	} {
		if !names[want] {
			t.Errorf("/stats missing series %s; have %v", want, names)
		}
	}

	// Prefix filter and window override.
	code, body = get("/stats?series=box.&window=4")
	if code != 200 {
		t.Fatalf("/stats filtered: %d", code)
	}
	sr = StatsResponse{}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.K != 4 {
		t.Errorf("window override: K = %d, want 4", sr.K)
	}
	for _, s := range sr.Series {
		if !strings.HasPrefix(s.Name, "box.") {
			t.Errorf("prefix filter leaked series %s", s.Name)
		}
	}
	if len(sr.Series) == 0 {
		t.Error("prefix filter returned nothing")
	}

	if code, _ := get("/stats?window=zero"); code != 400 {
		t.Errorf("bad window: got %d, want 400", code)
	}

	code, body = get("/loadmap")
	if code != 200 {
		t.Fatalf("/loadmap: %d", code)
	}
	var lr LoadMapResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatalf("/loadmap JSON: %v\n%s", err, body)
	}
	if lr.Node != "x" || len(lr.Digests) != 1 || lr.Digests[0].Node != "x" {
		t.Errorf("/loadmap = %+v", lr)
	}
	if len(lr.Ranking) != 1 || lr.Ranking[0] != "x" {
		t.Errorf("ranking = %v", lr.Ranking)
	}
	if lr.Digests[0].Util <= 0 {
		t.Errorf("digest util = %g, want the published 0.5 window average", lr.Digests[0].Util)
	}
}

func TestStatsEndpointsDisabled(t *testing.T) {
	eng, _ := statsFixture(t)
	srv := httptest.NewServer(Handler("x", eng, nil, nil))
	defer srv.Close()
	for _, path := range []string{"/stats", "/loadmap", "/links"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("%s with no plane/transport: %d, want 404", path, resp.StatusCode)
		}
	}
}

func httpGet(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// holdOp parks Process on a channel so a test can hold the engine inside
// Drain and observe the draining state from the outside.
type holdOp struct{ gate chan struct{} }

func (h *holdOp) Spec() op.Spec  { return op.Spec{Kind: "telehold"} }
func (h *holdOp) NumIn() int     { return 1 }
func (h *holdOp) NumOut() int    { return 1 }
func (h *holdOp) Bind(in []*stream.Schema) ([]*stream.Schema, error) {
	return []*stream.Schema{in[0]}, nil
}
func (h *holdOp) Process(_ int, t stream.Tuple, emit op.Emit) {
	<-h.gate
	emit(0, t)
}
func (h *holdOp) Advance(int64, op.Emit) {}
func (h *holdOp) Flush(op.Emit)          {}

var holdGate chan struct{}

func init() {
	op.RegisterKind("telehold", func(op.Spec) (op.Operator, error) {
		return &holdOp{gate: holdGate}, nil
	})
}

func TestHealthzReflectsRunState(t *testing.T) {
	eng, _ := statsFixture(t)
	srv := httptest.NewServer(Handler("x", eng, nil, nil))
	defer srv.Close()
	code, body := httpGet(t, srv, "/healthz")
	if code != 200 || string(body) != "ok\n" {
		t.Fatalf("healthy /healthz = %d %q", code, body)
	}

	// A vetoing health probe answers 503 with the reason — the stopped
	// (post-drain) auroranode uses exactly this hook.
	stopped := httptest.NewServer(NewHandler(Config{
		Node: "x", Engine: eng,
		Health: func() (bool, string) { return false, "stopped" },
	}))
	defer stopped.Close()
	code, body = httpGet(t, stopped, "/healthz")
	if code != http.StatusServiceUnavailable || strings.TrimSpace(string(body)) != "stopped" {
		t.Fatalf("stopped /healthz = %d %q, want 503 stopped", code, body)
	}

	// A probe with no reason still gets a non-empty body.
	vague := httptest.NewServer(NewHandler(Config{
		Node: "x", Engine: eng,
		Health: func() (bool, string) { return false, "" },
	}))
	defer vague.Close()
	code, body = httpGet(t, vague, "/healthz")
	if code != http.StatusServiceUnavailable || strings.TrimSpace(string(body)) == "" {
		t.Fatalf("reasonless veto /healthz = %d %q", code, body)
	}
}

// TestHealthzDuringDrain holds the engine inside Drain (a tuple parked in
// a blocking operator) and checks /healthz flips to 503 "draining" for
// the duration, then back to ok.
func TestHealthzDuringDrain(t *testing.T) {
	holdGate = make(chan struct{})
	schema := stream.MustSchema("s", stream.Field{Name: "A", Kind: stream.KindInt})
	net := query.NewBuilder("hold").
		AddBox("h1", op.Spec{Kind: "telehold"}).
		BindInput("in", schema, "h1", 0).
		BindOutput("out", "h1", 0, nil).
		MustBuild()
	eng, err := engine.New(net, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Ingest("in", stream.NewTuple(stream.Int(1)))

	srv := httptest.NewServer(Handler("x", eng, nil, nil))
	defer srv.Close()
	if code, _ := httpGet(t, srv, "/healthz"); code != 200 {
		t.Fatalf("pre-drain /healthz = %d", code)
	}

	done := make(chan struct{})
	go func() { eng.Drain(); close(done) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := httpGet(t, srv, "/healthz")
		if code == http.StatusServiceUnavailable {
			if got := strings.TrimSpace(string(body)); got != "draining" {
				t.Fatalf("draining /healthz body = %q", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	close(holdGate)
	<-done
	if code, _ := httpGet(t, srv, "/healthz"); code != 200 {
		t.Errorf("post-drain /healthz = %d, want 200", code)
	}
}

func TestMetricsEndpointFormats(t *testing.T) {
	eng, _ := statsFixture(t)
	srv := httptest.NewServer(NewHandler(Config{Node: "x", Engine: eng, Version: "v1.2.3"}))
	defer srv.Close()

	code, body := httpGet(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	var mr MetricsResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatalf("/metrics JSON: %v\n%s", err, body)
	}
	if mr.Node != "x" || mr.Version != "v1.2.3" {
		t.Errorf("metrics header = %+v", mr)
	}
	if mr.Now <= 0 || mr.UptimeNs < 0 {
		t.Errorf("timestamps: now=%d uptime=%d", mr.Now, mr.UptimeNs)
	}
	if len(mr.Metrics.Counters) == 0 {
		t.Error("/metrics snapshot carries no counters")
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	prom, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom content type = %q", ct)
	}
	text := string(prom)
	if !strings.Contains(text, "# TYPE ") {
		t.Errorf("prom exposition has no TYPE lines:\n%s", text)
	}
	if !strings.Contains(text, `node="x"`) {
		t.Errorf("prom exposition missing node label:\n%s", text)
	}
}

func TestEventsEndpoint(t *testing.T) {
	eng, _ := statsFixture(t)
	j := events.NewJournal("x", 64)
	for i := 0; i < 5; i++ {
		j.Append(events.Event{Kind: events.KindSplit, Subject: fmt.Sprintf("b%d", i)})
	}
	srv := httptest.NewServer(NewHandler(Config{Node: "x", Engine: eng, Journal: j}))
	defer srv.Close()

	code, body := httpGet(t, srv, "/events")
	if code != 200 {
		t.Fatalf("/events: %d %s", code, body)
	}
	var er EventsResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("/events JSON: %v\n%s", err, body)
	}
	if er.Node != "x" || er.Total != 5 || len(er.Events) != 5 {
		t.Fatalf("/events = %+v", er)
	}
	if er.Next != er.Events[4].Seq {
		t.Errorf("next cursor = %d, want last seq %d", er.Next, er.Events[4].Seq)
	}

	// Cursor paging: two pages of two, oldest first.
	_, body = httpGet(t, srv, "/events?max=2")
	var p1 EventsResponse
	json.Unmarshal(body, &p1)
	if len(p1.Events) != 2 || p1.Events[0].Subject != "b0" || p1.Events[1].Subject != "b1" {
		t.Fatalf("page 1 = %+v", p1.Events)
	}
	_, body = httpGet(t, srv, fmt.Sprintf("/events?since=%d&max=2", p1.Next))
	var p2 EventsResponse
	json.Unmarshal(body, &p2)
	if len(p2.Events) != 2 || p2.Events[0].Subject != "b2" || p2.Events[1].Subject != "b3" {
		t.Fatalf("page 2 = %+v", p2.Events)
	}

	// A caught-up cursor gets an empty page and the same cursor back.
	_, body = httpGet(t, srv, fmt.Sprintf("/events?since=%d", er.Next))
	var p3 EventsResponse
	json.Unmarshal(body, &p3)
	if len(p3.Events) != 0 || p3.Next != er.Next {
		t.Errorf("caught-up page = %+v", p3)
	}

	if code, _ := httpGet(t, srv, "/events?since=abc"); code != 400 {
		t.Errorf("bad since: %d, want 400", code)
	}
	if code, _ := httpGet(t, srv, "/events?max=0"); code != 400 {
		t.Errorf("bad max: %d, want 400", code)
	}

	// No journal anywhere: 404.
	bare := httptest.NewServer(NewHandler(Config{Node: "x", Engine: eng}))
	defer bare.Close()
	if code, _ := httpGet(t, bare, "/events"); code != 404 {
		t.Errorf("journal-less /events: %d, want 404", code)
	}
}

// TestEventsEngineJournalFallback: the positional Handler serves the
// engine's own journal when none is passed explicitly.
func TestEventsEngineJournalFallback(t *testing.T) {
	schema := stream.MustSchema("s",
		stream.Field{Name: "A", Kind: stream.KindInt},
		stream.Field{Name: "B", Kind: stream.KindInt},
	)
	net := query.NewBuilder("fb").
		AddBox("f1", op.Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 1000"}}).
		BindInput("in", schema, "f1", 0).
		BindOutput("out", "f1", 0, nil).
		MustBuild()
	eng, err := engine.New(net, engine.Config{Journal: events.NewJournal("x", 64)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SplitBox("f1", 2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler("x", eng, nil, nil))
	defer srv.Close()
	_, body := httpGet(t, srv, "/events")
	var er EventsResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("/events JSON: %v\n%s", err, body)
	}
	if len(er.Events) != 1 || er.Events[0].Kind != events.KindSplit || er.Events[0].Subject != "f1" {
		t.Fatalf("engine journal not served: %+v", er.Events)
	}
}

// TestConcurrentScrapeUnderChurn hammers every endpoint from several
// goroutines while the engine ingests, splits, unsplits, samples, and
// publishes — the scrape plane must never race the engine core (run
// under -race) and must not leak goroutines once the server closes.
func TestConcurrentScrapeUnderChurn(t *testing.T) {
	base := runtime.NumGoroutine()
	schema := stream.MustSchema("s",
		stream.Field{Name: "A", Kind: stream.KindInt},
		stream.Field{Name: "B", Kind: stream.KindInt},
	)
	net := query.NewBuilder("churn").
		AddBox("f1", op.Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 1000"}}).
		BindInput("in", schema, "f1", 0).
		BindOutput("out", "f1", 0, nil).
		MustBuild()
	plane := stats.NewPlane("x", int64(10e6), 8, 2)
	eng, err := engine.New(net, engine.Config{
		Stats: plane.Store(), StatsEvery: 1,
		Journal: events.NewJournal("x", 256),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(Config{
		Node: "x", Engine: eng, Plane: plane, Version: "test",
	}))

	paths := []string{
		"/healthz", "/metrics", "/metrics?format=prom", "/trace",
		"/events", "/events?max=4", "/stats", "/loadmap",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := srv.Client()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(srv.URL + paths[i%len(paths)])
				if err != nil {
					t.Errorf("scrape %s: %v", paths[i%len(paths)], err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	now := time.Now().UnixNano()
	for i := 0; i < 400; i++ {
		eng.Ingest("in", stream.NewTuple(stream.Int(int64(i)), stream.Int(1)))
		eng.RunUntilIdle(0)
		if i%20 == 0 {
			now += 10e6
			eng.SampleStats(now)
			plane.Publish(now)
		}
		switch i % 40 {
		case 10:
			eng.SplitBox("f1", 2)
		case 30:
			eng.UnsplitBox("f1")
		}
	}
	close(stop)
	wg.Wait()
	srv.Close()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d at start, %d after close", base, runtime.NumGoroutine())
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLinksEndpoint(t *testing.T) {
	eng, _ := statsFixture(t)
	a, err := transport.ListenTCP("x", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.ListenTCP("y", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer("y", b.Addr()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, ok := a.LinkState("y"); ok && st == transport.LinkEstablished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("link never established")
		}
		time.Sleep(2 * time.Millisecond)
	}

	srv := httptest.NewServer(Handler("x", eng, nil, a))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/links")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/links: %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	var lr LinksResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatalf("/links JSON: %v\n%s", err, body)
	}
	if lr.Node != "x" || len(lr.Links) != 1 {
		t.Fatalf("/links = %+v", lr)
	}
	l := lr.Links[0]
	if l.Peer != "y" || l.State != "established" || !l.Supervised || l.Dials < 1 {
		t.Errorf("link info = %+v", l)
	}
	// Frames per write, and the share of writes that skipped the write
	// loop, are read off the running node: the counters are in the payload,
	// side by side.
	for _, key := range []string{`"msgs_sent":`, `"bytes_sent":`, `"writes":`, `"inline_writes":`} {
		if !strings.Contains(string(body), key) {
			t.Errorf("/links payload lacks %s: %s", key, body)
		}
	}
}
