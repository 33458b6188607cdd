package node

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/ha"
	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
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

// openNode opens a node on a fresh loopback port and closes it with the
// test.
func openNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	cfg.Listen, cfg.Quiet = "127.0.0.1:0", true
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// openPair opens tail, then head with tail as its peer and head's "mid"
// routed to tail/mid, and waits for the link to come up.
func openPair(t *testing.T, head, tail Config) (*Node, *Node) {
	t.Helper()
	tn := openNode(t, tail)
	head.Peers = map[string]string{"tail": tn.TCP().Addr()}
	head.Routes = map[string]string{"mid": "tail/mid"}
	hn := openNode(t, head)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, ok := hn.TCP().LinkState("tail"); ok && st == transport.LinkEstablished {
			return hn, tn
		}
		if time.Now().After(deadline) {
			t.Fatal("head never reached tail")
		}
		time.Sleep(time.Millisecond)
	}
}

// e2eSink collects finalized spans delivered at the tail output.
type e2eSink struct {
	mu    sync.Mutex
	spans []*trace.Span
	total int
}

func (s *e2eSink) add(_ string, ts []stream.Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range ts {
		s.total++
		if t.Span != nil {
			s.spans = append(s.spans, t.Span)
		}
	}
}

func (s *e2eSink) snapshot() (int, []*trace.Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total, append([]*trace.Span(nil), s.spans...)
}

// TestTCPTraceDecomposition is the wall-clock half of the acceptance
// criterion: two nodes in one process connected by the real TCP
// transport, tracing every tuple. Each delivered span must decompose
// exactly (queue+proc+net == end-to-end), carry a nonzero network
// component for the wire hop, and agree exactly with the tail engine's
// QoS monitor. It runs once over plain single-tuple frames and once over
// HA-framed five-tuple trains; inbound frames take the node's own
// ingestFrame, and every tuple of a frame must end its network component
// at the frame's arrival instant — one instant per frame, not whatever
// time the tuples ahead of it in the frame took to ingest.
func TestTCPTraceDecomposition(t *testing.T) {
	t.Run("plain", func(t *testing.T) { traceDecomposition(t, 1, false) })
	t.Run("ha-trains", func(t *testing.T) { traceDecomposition(t, 5, true) })
}

func traceDecomposition(t *testing.T, train int, haFramed bool) {
	const n = 50
	sink := &e2eSink{}
	head, tail := openPair(t,
		Config{ID: "head", Network: buildPiece("head", "in", "b0", "mid"),
			Trace: 1, TraceBuf: 1024, HARoutes: haFramed},
		Config{ID: "tail", Network: buildPiece("tail", "mid", "b1", "out"),
			Trace: 1, TraceBuf: 1024, HARoutes: true, Output: sink.add})

	// A train with a traced tuple aboard executes one tuple at a time, so
	// with every tuple traced the head's runs are single tuples; the run
	// loop collects them, so each Ingest leaves as one frame of `train`
	// traced tuples.
	for i := 0; i < n; i += train {
		run := make([]stream.Tuple, train)
		for j := range run {
			run[j] = stream.NewTuple(stream.Int(int64(i+j)), stream.Int(int64((i+j)%7)))
		}
		head.Ingest("in", run)
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

	// netEnds[i] is where span i's wire hop ends: its frame's arrival
	// instant, which every tuple of the frame shares and no other frame
	// does — so the spans sharing it are exactly the frame.
	netEnds := make([]int64, len(spans))
	frames := map[int64]int{}
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
		for _, st := range sp.Stages {
			if st.Kind == trace.KindNet && st.Name == "head>tail" {
				netEnds[i] = st.Start + st.Dur
			}
		}
		if netEnds[i] == 0 {
			t.Fatalf("span %d has no head>tail network stage", i)
		}
		frames[netEnds[i]]++
	}
	for i, end := range netEnds {
		if frames[end] != train {
			t.Errorf("span %d arrived in a frame of %d (network component ends at %d), want %d",
				i, frames[end], end, train)
		}
	}

	// The monitor and the traces observed the very same timestamps.
	lat := tail.Engine().Metrics().Histogram("output.out.latency_ns").Snapshot()
	if lat.Count != n {
		t.Fatalf("monitor observed %d deliveries, want %d", lat.Count, n)
	}
	if mean := float64(sum) / n; lat.Mean != mean {
		t.Errorf("monitor mean %f != trace mean %f", lat.Mean, mean)
	}

	// Both flight recorders saw the journey: the head recorded the wire
	// hop (its tracer never completes these spans), the tail recorded the
	// per-stage detail and delivery summaries.
	rec := tail.Engine().Tracer().Recorder()
	if rec.Total() == 0 {
		t.Error("tail flight recorder is empty")
	}
	found := false
	for _, ev := range rec.Events() {
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

// TestTCPStatsDigestGossip is the real-wire half of the stats-plane
// acceptance criterion: digests published at the head node piggyback on
// its routed frames through the TCP transport codec and land, field for
// field, in the tail node's load map.
func TestTCPStatsDigestGossip(t *testing.T) {
	// A window no test outlives: the samplers never tick, so the test
	// alone drives both planes.
	const window = time.Hour
	const windowNs = int64(window)
	head, tail := openPair(t,
		Config{ID: "head", Network: buildPiece("head", "in", "b0", "mid"),
			Stats: window, StatsWindows: 8, HARoutes: true},
		Config{ID: "tail", Network: buildPiece("tail", "mid", "b1", "out"),
			Stats: window, StatsWindows: 8, HARoutes: true})

	// Build a head digest with box-level load. The head publishes nothing
	// yet, so these frames gossip nothing.
	for i := 0; i < 20; i++ {
		head.Ingest("in", []stream.Tuple{stream.NewTuple(stream.Int(int64(i)), stream.Int(3))})
	}
	now := 5 * windowNs
	head.mu.Lock()
	head.Engine().SampleStats(now - windowNs)
	head.Engine().SampleStats(now)
	head.mu.Unlock()
	head.Plane().Store().Observe(stats.SeriesNodeUtil, stats.KindGauge, now, 0.625)
	published := head.Plane().Publish(now + windowNs)
	if len(published.Boxes) == 0 {
		t.Fatalf("head digest has no box loads: %+v", published)
	}

	// Every routed frame carries the head's load map from here on.
	head.Ingest("in", []stream.Tuple{stream.NewTuple(stream.Int(99), stream.Int(3))})

	deadline := time.Now().Add(10 * time.Second)
	for {
		d, ok := tail.Plane().Map().Get("head")
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
	tail.Plane().Publish(now)
	if ranking := tail.Plane().Map().Ranking(); len(ranking) != 2 || ranking[0] != "head" {
		t.Errorf("tail ranking = %v, want head first", ranking)
	}
}

// relayNode is a node under test with its transport replaced by a
// recorder: one pass-all box from "in" to "mid", routed HA-framed to
// down/mid.
func relayNode(t *testing.T) (*Node, *[]transport.Msg) {
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
	n := newNode("relay", routes)
	n.eng = eng
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

// TestCloseLeaksNothing opens, drives and closes a durable node three
// times against one live downstream — the second incarnation sends
// nothing of its own — and checks that every payload arrives exactly once
// and that the goroutine count returns to where it started: Close stops
// the stats sampler, both tickers and the transport, so a process can be
// killed and reopened in-process.
func TestCloseLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	var mu sync.Mutex
	got := map[int64]int{}
	dn, err := Open(Config{ID: "dn", Listen: "127.0.0.1:0", Quiet: true, HARoutes: true,
		Network: buildPiece("dn", "mid", "b1", "out"),
		Output: func(_ string, ts []stream.Tuple) {
			mu.Lock()
			defer mu.Unlock()
			for _, tp := range ts {
				got[tp.Field(0).AsInt()]++
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	next := int64(0)
	for round, count := range []int{10, 0, 5} {
		up, err := Open(Config{ID: "up", Listen: "127.0.0.1:0", Quiet: true, HARoutes: true,
			Network: buildPiece("up", "in", "b0", "mid"), DataDir: dir,
			Peers:  map[string]string{"dn": dn.TCP().Addr()},
			Routes: map[string]string{"mid": "dn/mid"},
			Stats:  10 * time.Millisecond, StatsWindows: 8, EventsBuf: 64})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < count; i++ {
			up.Ingest("in", []stream.Tuple{stream.NewTuple(stream.Int(next), stream.Int(0))})
			next++
		}
		deadline := time.Now().Add(10 * time.Second)
		for up.Outstanding() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d tuples never acknowledged", round, up.Outstanding())
			}
			dn.AckNow()
			time.Sleep(5 * time.Millisecond)
		}
		if err := up.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dn.Close()

	mu.Lock()
	if len(got) != int(next) {
		t.Errorf("downstream saw %d of %d payloads: %v", len(got), next, got)
	}
	for p, c := range got {
		if c != 1 {
			t.Errorf("payload %d delivered %d times", p, c)
		}
	}
	mu.Unlock()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
