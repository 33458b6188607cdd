package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// statNode stands up a real auroranode telemetry surface: an engine with a
// two-box network feeding a stats plane, served over HTTP exactly as
// cmd/auroranode serves it.
func statNode(t *testing.T, id string) (*httptest.Server, []string) {
	t.Helper()
	return statNodeWithLinks(t, id, nil)
}

// statNodeWithLinks is statNode with an optional transport behind /links.
func statNodeWithLinks(t *testing.T, id string, links telemetry.LinkSource) (*httptest.Server, []string) {
	t.Helper()
	schema := stream.MustSchema("s",
		stream.Field{Name: "A", Kind: stream.KindInt},
		stream.Field{Name: "B", Kind: stream.KindInt},
	)
	net := query.NewBuilder("stat").
		AddBox("f1", op.Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 1000"}}).
		AddBox("m1", op.Spec{Kind: "map", Params: map[string]string{"exprs": "A=A+1; B=B"}}).
		Connect("f1", "m1").
		BindInput("in", schema, "f1", 0).
		BindOutput("out", "m1", 0, nil).
		MustBuild()
	plane := stats.NewPlane(id, int64(10e6), 8, 2)
	eng, err := engine.New(net, engine.Config{Stats: plane.Store(), StatsEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	for i := 0; i < 20; i++ {
		eng.Ingest("in", stream.NewTuple(stream.Int(int64(i)), stream.Int(1)))
		eng.RunUntilIdle(0)
	}
	// Two samples a window apart so rates land in a complete window, then
	// publish so the load map has a digest with per-box loads.
	eng.SampleStats(now - 10e6)
	eng.SampleStats(now)
	plane.Store().Observe(stats.SeriesNodeUtil, stats.KindGauge, now-10e6, 0.5)
	plane.Store().Observe(stats.SeriesNodeQueued, stats.KindGauge, now-10e6,
		float64(eng.QueuedTuples()))
	plane.Publish(now)

	srv := httptest.NewServer(telemetry.NewHandler(telemetry.Config{Node: id, Engine: eng, Plane: plane, Links: links}))
	t.Cleanup(srv.Close)
	return srv, []string{"f1", "m1"}
}

func TestDspstatCoversEveryBoxAndQueueSeries(t *testing.T) {
	srv, boxes := statNode(t, "n1")

	rep := scrapeNode(srv.Client(), srv.URL, "", 0)
	if rep.Err != nil {
		t.Fatalf("scrape: %v", rep.Err)
	}
	var out strings.Builder
	render(&out, []*nodeReport{rep}, nil)
	got := out.String()

	// The cluster table names the node and its digest's per-box loads.
	if !strings.Contains(got, `node "n1"`) {
		t.Errorf("output missing node header:\n%s", got)
	}
	for _, box := range boxes {
		if !strings.Contains(got, box+"=") {
			t.Errorf("load table missing box %s:\n%s", box, got)
		}
	}

	// The series table covers every registered box series and every queue
	// series the engine samples.
	for _, box := range boxes {
		for _, series := range []string{
			stats.SeriesBoxCost(box),
			stats.SeriesBoxSelectivity(box),
			stats.SeriesBoxQueue(box),
			stats.SeriesBoxWork(box),
		} {
			if !strings.Contains(got, series) {
				t.Errorf("series table missing %s:\n%s", series, got)
			}
		}
	}
	for _, series := range []string{stats.SeriesNodeUtil, stats.SeriesNodeQueued} {
		if !strings.Contains(got, series) {
			t.Errorf("series table missing %s:\n%s", series, got)
		}
	}
}

func TestDspstatSeriesFilterAndScrapeError(t *testing.T) {
	srv, _ := statNode(t, "n1")

	rep := scrapeNode(srv.Client(), srv.URL, "box.f1.", 4)
	if rep.Err != nil {
		t.Fatalf("scrape: %v", rep.Err)
	}
	if rep.Stats.K != 4 {
		t.Errorf("window override: K = %d, want 4", rep.Stats.K)
	}
	for _, s := range rep.Stats.Series {
		if !strings.HasPrefix(s.Name, "box.f1.") {
			t.Errorf("filter leaked %s", s.Name)
		}
	}
	if len(rep.Stats.Series) == 0 {
		t.Error("filtered scrape returned no series")
	}

	// A dead endpoint renders as a failure line, not a panic.
	dead := scrapeNode(srv.Client(), "http://127.0.0.1:1", "", 0)
	if dead.Err == nil {
		t.Fatal("scrape of dead endpoint should fail")
	}
	var out strings.Builder
	render(&out, []*nodeReport{dead}, nil)
	if !strings.Contains(out.String(), "scrape failed") {
		t.Errorf("render of failed scrape = %q", out.String())
	}
}

func TestDspstatRendersLinkTable(t *testing.T) {
	a, err := transport.ListenTCP("n1", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := transport.ListenTCP("n2", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.AddPeer("n2", b.Addr()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, ok := a.LinkState("n2"); ok && st == transport.LinkEstablished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("link never established")
		}
		time.Sleep(2 * time.Millisecond)
	}

	srv, _ := statNodeWithLinks(t, "n1", a)
	rep := scrapeNode(srv.Client(), srv.URL, "", 0)
	if rep.Err != nil {
		t.Fatalf("scrape: %v", rep.Err)
	}
	if !rep.HasLink {
		t.Fatal("/links not scraped")
	}
	var out strings.Builder
	render(&out, []*nodeReport{rep}, nil)
	got := out.String()
	for _, want := range []string{"-- links on n1 --", "PEER", "SENT", "WRITES", "INLINE", "n2", "established"} {
		if !strings.Contains(got, want) {
			t.Errorf("link table missing %q:\n%s", want, got)
		}
	}

	// A node with a transport but no stats plane (auroranode without
	// -stats) must still render its link table, not fail the scrape.
	schema := stream.MustSchema("s", stream.Field{Name: "A", Kind: stream.KindInt})
	netw := query.NewBuilder("bare").
		AddBox("f", op.Spec{Kind: "filter", Params: map[string]string{"predicate": "A < 10"}}).
		BindInput("in", schema, "f", 0).
		BindOutput("out", "f", 0, nil).
		MustBuild()
	bareEng, err := engine.New(netw, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srvBare := httptest.NewServer(telemetry.NewHandler(telemetry.Config{Node: "n1", Engine: bareEng, Links: a}))
	t.Cleanup(srvBare.Close)
	repBare := scrapeNode(srvBare.Client(), srvBare.URL, "", 0)
	if repBare.Err != nil {
		t.Fatalf("scrape of plane-less node failed: %v", repBare.Err)
	}
	if repBare.HasLoad || repBare.HasStat || !repBare.HasLink {
		t.Fatalf("plane-less node flags: load=%v stat=%v link=%v",
			repBare.HasLoad, repBare.HasStat, repBare.HasLink)
	}
	out.Reset()
	render(&out, []*nodeReport{repBare}, nil)
	if !strings.Contains(out.String(), "-- links on n1 --") {
		t.Errorf("plane-less node missing link table:\n%s", out.String())
	}

	// A node without a transport renders no link table and still scrapes.
	srvNo, _ := statNode(t, "n3")
	repNo := scrapeNode(srvNo.Client(), srvNo.URL, "", 0)
	if repNo.Err != nil {
		t.Fatalf("scrape without links: %v", repNo.Err)
	}
	if repNo.HasLink {
		t.Error("HasLink true for a node without /links")
	}
	out.Reset()
	render(&out, []*nodeReport{repNo}, nil)
	if strings.Contains(out.String(), "-- links") {
		t.Errorf("link table rendered without /links:\n%s", out.String())
	}
}

// journalNode stands up a telemetry surface whose engine journals control
// events and whose load map carries delivered-QoS output attribution.
func journalNode(t *testing.T, id string) (*httptest.Server, *events.Journal) {
	t.Helper()
	schema := stream.MustSchema("s",
		stream.Field{Name: "A", Kind: stream.KindInt},
		stream.Field{Name: "B", Kind: stream.KindInt},
	)
	net := query.NewBuilder("jn").
		AddBox("f1", op.Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 1000"}}).
		BindInput("in", schema, "f1", 0).
		BindOutput("out", "f1", 0, nil).
		MustBuild()
	j := events.NewJournal(id, 64)
	plane := stats.NewPlane(id, int64(10e6), 8, 2)
	eng, err := engine.New(net, engine.Config{
		Stats: plane.Store(), StatsEvery: 1, Journal: j,
	})
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
	// Hand-laid output-QoS counters: only the span between the first two
	// observations is a complete window by Publish(now), so the harvested
	// mean delivered utility is 7.5/10 = 0.75.
	st := plane.Store()
	st.Observe(stats.SeriesOutputUtilSum("out"), stats.KindCounter, now-20e6, 0)
	st.Observe(stats.SeriesOutputDelivered("out"), stats.KindCounter, now-20e6, 0)
	st.Observe(stats.SeriesOutputUtilSum("out"), stats.KindCounter, now-10e6, 7.5)
	st.Observe(stats.SeriesOutputDelivered("out"), stats.KindCounter, now-10e6, 10)
	st.Observe(stats.SeriesOutputUtilSum("out"), stats.KindCounter, now-1, 10)
	st.Observe(stats.SeriesOutputDelivered("out"), stats.KindCounter, now-1, 20)
	plane.Publish(now)
	if err := eng.SplitBox("f1", 2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(telemetry.NewHandler(telemetry.Config{Node: id, Engine: eng, Plane: plane}))
	t.Cleanup(srv.Close)
	return srv, j
}

// TestDspstatEventTailAndUtilityColumn: the rendered view carries the
// delivered-utility column from the digest's output attribution, and the
// event tail shows the journaled split.
func TestDspstatEventTailAndUtilityColumn(t *testing.T) {
	srv, _ := journalNode(t, "n1")
	rep := scrapeNode(srv.Client(), srv.URL, "", 0)
	if rep.Err != nil {
		t.Fatalf("scrape: %v", rep.Err)
	}
	if !rep.HasEvent {
		t.Fatal("/events not scraped")
	}
	var out strings.Builder
	render(&out, []*nodeReport{rep}, nil)
	tail := mergeEventTail(nil, []*nodeReport{rep}, 12)
	renderEventTail(&out, tail, 12)
	got := out.String()
	if !strings.Contains(got, "DELIVERED") || !strings.Contains(got, "out=0.750u") {
		t.Errorf("missing delivered-utility column:\n%s", got)
	}
	if !strings.Contains(got, "cluster events") || !strings.Contains(got, "split") {
		t.Errorf("missing event tail with the journaled split:\n%s", got)
	}
	if !strings.Contains(got, "f1") {
		t.Errorf("event tail does not name the split box:\n%s", got)
	}
}

// TestDspstatWatchCursors: scrapeAll advances each node's /events cursor,
// so a second round returns only what was journaled in between — and a
// dead node in the list degrades to an error report without poisoning
// the live ones (partial-cluster tolerance).
func TestDspstatWatchCursors(t *testing.T) {
	srv, j := journalNode(t, "n1")
	bases := []string{srv.URL, "http://127.0.0.1:1"}
	cursors := map[string]uint64{}

	first := scrapeAll(srv.Client(), bases, "", 0, cursors)
	if len(first) != 2 {
		t.Fatalf("reports = %d", len(first))
	}
	if first[0].Err != nil || !first[0].HasEvent {
		t.Fatalf("live node: err=%v hasEvent=%v", first[0].Err, first[0].HasEvent)
	}
	if first[1].Err == nil {
		t.Fatal("dead node should report an error")
	}
	got1 := len(first[0].Events.Events)
	if got1 == 0 {
		t.Fatal("first round returned no events")
	}
	if cursors[srv.URL] == 0 {
		t.Fatal("cursor not advanced")
	}

	j.Append(events.Event{Kind: events.KindShedEngage, Subject: "shedder", V1: 0.25})
	j.Append(events.Event{Kind: events.KindShedDisengage, Subject: "shedder"})
	second := scrapeAll(srv.Client(), bases, "", 0, cursors)
	evs := second[0].Events.Events
	if len(evs) != 2 {
		t.Fatalf("second round = %d events, want only the 2 new ones: %+v", len(evs), evs)
	}
	if evs[0].Kind != events.KindShedEngage || evs[1].Kind != events.KindShedDisengage {
		t.Errorf("second round events = %+v", evs)
	}

	tail := mergeEventTail(nil, first, 2)
	tail = mergeEventTail(tail, second, 2)
	if len(tail) != 2 {
		t.Errorf("tail bound leaked: %d", len(tail))
	}
	var out strings.Builder
	render(&out, second, nil)
	if !strings.Contains(out.String(), "scrape failed") {
		t.Errorf("dead node not rendered as failure:\n%s", out.String())
	}
}

// latencyNode stands up a telemetry surface whose digest carries a
// delivered-latency sketch and forecast headroom, and whose journal holds
// a bottleneck attribution — the SLO-plane view dspstat renders.
func latencyNode(t *testing.T, id string) *httptest.Server {
	t.Helper()
	schema := stream.MustSchema("s",
		stream.Field{Name: "A", Kind: stream.KindInt},
		stream.Field{Name: "B", Kind: stream.KindInt},
	)
	net := query.NewBuilder("slo").
		AddBox("f1", op.Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 1000"}}).
		BindInput("in", schema, "f1", 0).
		BindOutput("out", "f1", 0, nil).
		MustBuild()
	j := events.NewJournal(id, 64)
	plane := stats.NewPlane(id, int64(10e6), 8, 2)
	eng, err := engine.New(net, engine.Config{
		Stats: plane.Store(), StatsEvery: 1, Journal: j,
	})
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
	// Hand-laid SLO series: a cumulative latency sketch (first ObserveSketch
	// is the baseline) and a headroom gauge, both harvested by Publish.
	st := plane.Store()
	sk := sketch.New(sketch.DefaultAlpha)
	st.ObserveSketch(stats.SeriesOutputLatency("out"), now-20e6, sk)
	for i := 0; i < 200; i++ {
		sk.Record(1e6)
	}
	sk.Record(5e6)
	st.ObserveSketch(stats.SeriesOutputLatency("out"), now-10e6, sk)
	st.Observe(stats.SeriesOutputHeadroom("out"), stats.KindGauge, now-10e6, 0.37)
	plane.Publish(now)
	corr := j.NewCorr()
	j.Append(events.Event{Kind: events.KindSLOWarn, Subject: "out", Corr: corr})
	j.Append(events.Event{Kind: events.KindBottleneck, Subject: "out", Detail: "f1", Corr: corr})
	srv := httptest.NewServer(telemetry.NewHandler(telemetry.Config{Node: id, Engine: eng, Plane: plane}))
	t.Cleanup(srv.Close)
	return srv
}

// TestDspstatLatencyColumns: the node table gains P99 and HEADROOM
// columns decoded from the digest's sketch, and the box the journal's
// bottleneck attribution names is starred.
func TestDspstatLatencyColumns(t *testing.T) {
	srv := latencyNode(t, "n1")
	rep := scrapeNode(srv.Client(), srv.URL, "", 0)
	if rep.Err != nil {
		t.Fatalf("scrape: %v", rep.Err)
	}
	bn := map[string]string{}
	updateBottlenecks(bn, []*nodeReport{rep})
	if bn["out"] != "f1" {
		t.Fatalf("bottleneck map = %v, want out→f1", bn)
	}
	var out strings.Builder
	render(&out, []*nodeReport{rep}, bn)
	got := out.String()
	for _, want := range []string{"P99", "HEADROOM", "out=+0.37", "f1*=", "attributed tail-latency bottleneck"} {
		if !strings.Contains(got, want) {
			t.Errorf("latency view missing %q:\n%s", want, got)
		}
	}
	// p99 of 200×1ms + 1×5ms sits at ~1ms, rendered at ms scale.
	if !strings.Contains(got, "out=1.0") || !strings.Contains(got, "ms") {
		t.Errorf("p99 column not ~1ms:\n%s", got)
	}

	// A digest without sketch or headroom renders dashes, not garbage.
	plain, _ := statNode(t, "n2")
	repPlain := scrapeNode(plain.Client(), plain.URL, "", 0)
	out.Reset()
	render(&out, []*nodeReport{repPlain}, nil)
	if !strings.Contains(out.String(), "\t") && !strings.Contains(out.String(), "-") {
		t.Errorf("plain node missing dash columns:\n%s", out.String())
	}
}
