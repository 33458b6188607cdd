package main

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/ha"
	"repro/internal/metrics"
	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/transport"
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

// e2eSink collects finalized spans delivered at the tail output.
type e2eSink struct {
	mu    sync.Mutex
	spans []*trace.Span
	total int
}

func (s *e2eSink) add(t stream.Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	if t.Span != nil {
		s.spans = append(s.spans, t.Span)
	}
}

func (s *e2eSink) snapshot() (int, []*trace.Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total, append([]*trace.Span(nil), s.spans...)
}

// TestTCPTraceDecomposition is the wall-clock half of the acceptance
// criterion: two engines in one process connected by the real TCP
// transport, tracing every tuple. Each delivered span must decompose
// exactly (queue+proc+net == end-to-end), carry a nonzero network
// component for the wire hop, and agree exactly with the tail engine's
// QoS monitor. It runs once over plain single-tuple frames and once over
// HA-framed five-tuple trains; inbound frames take the node's own
// ingestFrame, and every tuple of a frame must end its network component
// at the frame's arrival instant — not at whatever time the tuples ahead
// of it in the frame took to ingest.
func TestTCPTraceDecomposition(t *testing.T) {
	t.Run("plain", func(t *testing.T) { traceDecomposition(t, 1, false) })
	t.Run("ha-trains", func(t *testing.T) { traceDecomposition(t, 5, true) })
}

func traceDecomposition(t *testing.T, train int, haFramed bool) {
	const n = 50

	headTr := trace.NewTracer("head", 1, trace.NewRecorder(1024))
	headEng, err := engine.New(buildPiece("head", "in", "b0", "mid"), engine.Config{Tracer: headTr})
	if err != nil {
		t.Fatal(err)
	}
	headEng.SetRelayOutput("mid")

	tailTr := trace.NewTracer("tail", 1, trace.NewRecorder(1024))
	tailEng, err := engine.New(buildPiece("tail", "mid", "b1", "out"), engine.Config{Tracer: tailTr})
	if err != nil {
		t.Fatal(err)
	}

	sink := &e2eSink{}
	var tailMu sync.Mutex
	tailEng.OnOutput(func(_ string, tup stream.Tuple) { sink.add(tup) })

	// arrivals maps each span that crossed the wire to its frame's arrival
	// instant and size (guarded by tailMu).
	type arrival struct {
		at    int64
		frame int
	}
	arrivals := map[uint64]arrival{}
	recv := ha.NewLinkReceiverTrain(func(ts []stream.Tuple) { tailEng.IngestTrain("mid", ts) }, nil, 0)
	tailTCP, err := transport.ListenTCP("tail", "127.0.0.1:0", func(from string, m transport.Msg) {
		if m.Kind != transport.KindData {
			return
		}
		arrive := time.Now().UnixNano()
		var r *ha.LinkReceiver
		if ha.IsLinkBatch(m.Ctrl) {
			r = recv
		}
		tailMu.Lock()
		defer tailMu.Unlock()
		for _, tup := range m.Tuples {
			if tup.Span != nil {
				arrivals[tup.Span.ID] = arrival{at: arrive, frame: len(m.Tuples)}
			}
		}
		ingestFrame(tailEng, r, from+">tail", m.Stream, m.Tuples, arrive)
		tailEng.RunUntilIdle(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tailTCP.Close()

	headTCP, err := transport.ListenTCP("head", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer headTCP.Close()
	if got, err := headTCP.Dial(tailTCP.Addr()); err != nil || got != "tail" {
		t.Fatalf("dial tail: got %q, %v", got, err)
	}

	route := func(m transport.Msg) error {
		m.Stream, m.Kind = "mid", transport.KindData
		m.Tuples = append([]stream.Tuple(nil), m.Tuples...)
		return headTCP.Send("tail", m)
	}
	sender := ha.NewLinkSender(func(batch []stream.Tuple) error {
		return route(transport.Msg{BaseSeq: batch[0].Seq, Tuples: batch, Ctrl: ha.LinkBatchCtrl()})
	})
	// A train with a traced tuple aboard executes one tuple at a time, so
	// with every tuple traced the head's runs are single tuples; like the
	// node's run loop, the hook collects them, so the frames on the wire
	// carry `train` traced tuples.
	var pending []stream.Tuple
	headEng.OnOutputTrain(func(name string, ts []stream.Tuple) {
		if pending = append(pending, ts...); len(pending) < train {
			return
		}
		if haFramed {
			sender.SendTrain(pending)
		} else if err := route(transport.Msg{BaseSeq: pending[0].Seq, Tuples: pending}); err != nil {
			t.Errorf("route mid: %v", err)
		}
		pending = pending[:0]
	})

	for i := 0; i < n; i += train {
		run := make([]stream.Tuple, train)
		for j := range run {
			run[j] = stream.NewTuple(stream.Int(int64(i+j)), stream.Int(int64((i+j)%7)))
		}
		headEng.IngestTrain("in", run)
		headEng.RunUntilIdle(0)
	}

	deadline := time.Now().Add(10 * time.Second)
	var total int
	var spans []*trace.Span
	for {
		total, spans = sink.snapshot()
		if total >= n || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if total != n || len(spans) != n {
		t.Fatalf("delivered %d tuples, %d traced; want %d/%d", total, len(spans), n, n)
	}

	tailMu.Lock()
	defer tailMu.Unlock()
	var sum int64
	for i, sp := range spans {
		if !sp.Done() {
			t.Fatalf("span %d not finalized: %+v", i, sp)
		}
		q, p, nn := sp.Components()
		if q+p+nn != sp.Total() {
			t.Fatalf("span %d: %d+%d+%d != total %d", i, q, p, nn, sp.Total())
		}
		if nn <= 0 {
			t.Errorf("span %d crossed a real TCP hop but shows net=%d", i, nn)
		}
		sum += sp.Total()

		arr := arrivals[sp.ID]
		if arr.frame != train {
			t.Errorf("span %d arrived in a frame of %d, want %d", i, arr.frame, train)
		}
		netEnd := int64(0)
		for _, st := range sp.Stages {
			if st.Kind == trace.KindNet && st.Name == "head>tail" {
				netEnd = st.Start + st.Dur
			}
		}
		if netEnd != arr.at {
			t.Errorf("span %d: network component ends at %d, its frame arrived at %d (off by %d ns)",
				i, netEnd, arr.at, netEnd-arr.at)
		}
	}

	// The monitor and the traces observed the very same timestamps.
	lat := tailEng.Metrics().Histogram("output.out.latency_ns").Snapshot()
	if lat.Count != n {
		t.Fatalf("monitor observed %d deliveries, want %d", lat.Count, n)
	}
	if mean := float64(sum) / n; lat.Mean != mean {
		t.Errorf("monitor mean %f != trace mean %f", lat.Mean, mean)
	}

	// Both flight recorders saw the journey: the head recorded the wire
	// hop (its tracer never completes these spans), the tail recorded the
	// per-stage detail and delivery summaries.
	if tailTr.Recorder().Total() == 0 {
		t.Error("tail flight recorder is empty")
	}
	found := false
	for _, ev := range tailTr.Recorder().Events() {
		if ev.Kind == trace.KindNet && ev.Name == "head>tail" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no head>tail network segment in the tail's flight recorder")
	}
}

// TestParseRoutes: every -route flag is validated at start-up. A
// destination without a slash used to discard the output's tuples at
// delivery time, and an unknown output name was ignored outright.
func TestParseRoutes(t *testing.T) {
	has := func(out string) bool { return out == "mid" || out == "alerts" }
	cases := []struct {
		name    string
		flags   map[string]string
		wantErr string
		want    map[string][2]string // output -> {peer, stream}
	}{
		{"ok", map[string]string{"mid": "n2/in", "alerts": "n3/a/b"}, "",
			map[string][2]string{"mid": {"n2", "in"}, "alerts": {"n3", "a/b"}}},
		{"none", nil, "", map[string][2]string{}},
		{"no slash", map[string]string{"mid": "n2"}, "-route mid=n2: destination must be peer/stream", nil},
		{"empty peer", map[string]string{"mid": "/in"}, "-route mid=/in: destination must be peer/stream", nil},
		{"empty stream", map[string]string{"mid": "n2/"}, "-route mid=n2/: destination must be peer/stream", nil},
		{"unknown output", map[string]string{"nope": "n2/in"}, `-route nope=n2/in: the network has no output "nope"`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseRoutes(tc.flags, has)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("error %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("parsed %d routes, want %d", len(got), len(tc.want))
			}
			for out, w := range tc.want {
				if g := got[out]; g == nil || g.peer != w[0] || g.stream != w[1] {
					t.Errorf("route %s = %+v, want %v", out, g, w)
				}
			}
		})
	}
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

	srv := httptest.NewServer(telemetry.Handler("x", eng, nil, nil))
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

// TestTCPStatsDigestGossip is the real-wire half of the stats-plane
// acceptance criterion: digests published at the head node piggyback on
// data messages through the TCP transport codec and land, field for
// field, in the tail node's load map.
func TestTCPStatsDigestGossip(t *testing.T) {
	const windowNs = int64(10e6)

	headPlane := stats.NewPlane("head", windowNs, 8, 2)
	headEng, err := engine.New(buildPiece("head", "in", "b0", "mid"),
		engine.Config{Stats: headPlane.Store(), StatsEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	headEng.SetRelayOutput("mid")

	tailPlane := stats.NewPlane("tail", windowNs, 8, 2)
	tailEng, err := engine.New(buildPiece("tail", "mid", "b1", "out"),
		engine.Config{Stats: tailPlane.Store(), StatsEvery: 1})
	if err != nil {
		t.Fatal(err)
	}

	var tailMu sync.Mutex
	tailTCP, err := transport.ListenTCP("tail", "127.0.0.1:0", func(from string, m transport.Msg) {
		tailMu.Lock()
		defer tailMu.Unlock()
		if len(m.Digests) > 0 {
			tailPlane.Merge(m.Digests)
		}
		if m.Kind != transport.KindData {
			return
		}
		for _, tup := range m.Tuples {
			tailEng.Ingest(m.Stream, tup)
		}
		tailEng.RunUntilIdle(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tailTCP.Close()

	headTCP, err := transport.ListenTCP("head", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer headTCP.Close()
	if got, err := headTCP.Dial(tailTCP.Addr()); err != nil || got != "tail" {
		t.Fatalf("dial tail: got %q, %v", got, err)
	}

	// Build a head digest with box-level load, then route tuples carrying
	// the head's gossip — exactly what main.go's OnOutput hook does.
	for i := 0; i < 20; i++ {
		headEng.Ingest("in", stream.NewTuple(stream.Int(int64(i)), stream.Int(3)))
		headEng.RunUntilIdle(0)
	}
	now := 5 * windowNs
	headEng.SampleStats(now - windowNs)
	headEng.SampleStats(now)
	headPlane.Store().Observe(stats.SeriesNodeUtil, stats.KindGauge, now, 0.625)
	published := headPlane.Publish(now + windowNs)
	if len(published.Boxes) == 0 {
		t.Fatalf("head digest has no box loads: %+v", published)
	}

	headEng.OnOutput(func(_ string, tup stream.Tuple) {
		if err := headTCP.Send("tail", transport.Msg{
			Stream: "mid", Kind: transport.KindData, BaseSeq: tup.Seq,
			Tuples:  []stream.Tuple{tup},
			Digests: headPlane.Gossip(),
		}); err != nil {
			t.Errorf("route mid: %v", err)
		}
	})
	headEng.Ingest("in", stream.NewTuple(stream.Int(99), stream.Int(3)))
	headEng.RunUntilIdle(0)

	deadline := time.Now().Add(10 * time.Second)
	for {
		tailMu.Lock()
		d, ok := tailPlane.Map().Get("head")
		tailMu.Unlock()
		if ok {
			if d.Seq != published.Seq || d.At != published.At || d.Util != published.Util {
				t.Fatalf("digest mangled in flight: got %+v, sent %+v", d, published)
			}
			if len(d.Boxes) != len(published.Boxes) {
				t.Fatalf("box loads mangled: got %+v, sent %+v", d.Boxes, published.Boxes)
			}
			for i := range d.Boxes {
				if d.Boxes[i] != published.Boxes[i] {
					t.Fatalf("box %d mangled: got %+v, sent %+v", i, d.Boxes[i], published.Boxes[i])
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tail never received the head's digest")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The tail's map now ranks both nodes; the head published util 0.625
	// against the idle tail.
	tailMu.Lock()
	tailPlane.Publish(now)
	ranking := tailPlane.Map().Ranking()
	tailMu.Unlock()
	if len(ranking) != 2 || ranking[0] != "head" {
		t.Errorf("tail ranking = %v, want head first", ranking)
	}
}

// relayNode is a node under test with its transport replaced by a
// recorder: one pass-all box from "in" to "mid", routed HA-framed to
// down/mid.
func relayNode(t *testing.T) (*node, *[]transport.Msg) {
	t.Helper()
	eng, err := engine.New(buildPiece("relay", "in", "b0", "mid"), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetRelayOutput("mid")
	routes, err := parseRoutes(map[string]string{"mid": "down/mid"}, func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	n := newNode("relay", eng, routes)
	n.quiet, n.haRoutes = true, true
	var sent []transport.Msg
	n.send = func(peer string, m transport.Msg) error {
		m.Stream = peer + "/" + m.Stream
		sent = append(sent, m)
		return nil
	}
	routes["mid"].sender = n.getSender("down", "mid")
	eng.OnOutputTrain(n.onOutputTrain)
	return n, &sent
}

// haFrame is an HA-framed inbound data frame of k tuples starting at link
// sequence base.
func haFrame(base uint64, k int, more bool) transport.Msg {
	ts := make([]stream.Tuple, k)
	for i := range ts {
		ts[i] = stream.NewTuple(stream.Int(int64(base)+int64(i)), stream.Int(1))
		ts[i].Seq = base + uint64(i)
	}
	return transport.Msg{Stream: "in", Kind: transport.KindData, BaseSeq: base,
		Tuples: ts, Ctrl: ha.LinkBatchCtrl(), More: more}
}

// TestRelayCopiesMore: everything the node sends while handling a frame —
// the routed output frame and the HA ack — carries that frame's More, so a
// relay with the next frame already in hand queues its output behind the
// write loop and one with nothing else in hand writes at once. Outside a
// frame the hint is clear.
func TestRelayCopiesMore(t *testing.T) {
	n, sent := relayNode(t)
	base := uint64(1)
	for _, more := range []bool{true, false, true} {
		*sent = (*sent)[:0]
		// 32 fresh tuples reach the receiver's ack cadence, so this one
		// frame produces an ack upstream and a route frame downstream.
		n.handle("up", haFrame(base, 32, more))
		base += 32
		var ack, routed int
		for _, m := range *sent {
			switch {
			case m.Kind == transport.KindBackChannel && m.Stream == "up/in":
				ack++
			case m.Kind == transport.KindData && m.Stream == "down/mid" && len(m.Tuples) == 32:
				routed++
			default:
				t.Errorf("unexpected outbound message %+v", m)
			}
			if m.More != more {
				t.Errorf("inbound More=%v: outbound %s kind %d has More=%v", more, m.Stream, m.Kind, m.More)
			}
		}
		if ack != 1 || routed != 1 {
			t.Fatalf("inbound More=%v: %d acks and %d route frames, want 1 and 1", more, ack, routed)
		}
		if n.more.Load() {
			t.Error("the hint outlived the frame it came with")
		}
	}

	// The downstream's ack finds its sender through the same cache.
	if got := n.senders["down/mid"].Outstanding(); got != 96 {
		t.Fatalf("%d tuples retained before the ack, want 96", got)
	}
	n.handle("down", transport.Msg{Stream: "mid", Kind: transport.KindBackChannel,
		Ctrl: ha.AppendLinkAck(nil, 64)})
	if got := n.senders["down/mid"].Outstanding(); got != 32 {
		t.Errorf("%d tuples retained after acking 64 of 96, want 32", got)
	}
}

// TestResolveCachesInboundPair: the handler's per-frame lookups — hop
// label, receiver, ack sender — are resolved once per (peer, stream); the
// hit path allocates nothing, a plain pair gains its receiver on its first
// HA-framed frame, and a sender built later is seen by pairs resolved
// before it existed.
func TestResolveCachesInboundPair(t *testing.T) {
	n, _ := relayNode(t)
	plain := n.resolve("up", "in", false)
	if plain.hop != "up>relay" || plain.recv != nil {
		t.Fatalf("plain pair resolved to %+v", plain)
	}
	framed := n.resolve("up", "in", true)
	if framed.recv == nil || framed.recv != n.receivers["up/in"] {
		t.Fatal("first HA-framed frame did not get the pair its receiver")
	}
	if again := n.resolve("up", "in", true); again != framed {
		t.Error("second resolve built a new entry")
	}
	if avg := testing.AllocsPerRun(100, func() { n.resolve("up", "in", true) }); avg != 0 {
		t.Errorf("resolve allocates %.1f per frame on the hit path", avg)
	}

	if e := n.resolve("late", "x", false); e.sender != nil {
		t.Fatalf("no route to late/x yet, resolved sender %p", e.sender)
	}
	s := n.getSender("late", "x")
	if e := n.resolve("late", "x", false); e.sender != s {
		t.Error("a pair resolved before its sender existed never saw it")
	}
	if e := n.resolve("up", "in", true); e.recv != framed.recv {
		t.Error("rebuilding the cache replaced a live receiver")
	}
}
