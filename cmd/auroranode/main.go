// auroranode runs one Aurora server as an OS process speaking the
// multiplexed TCP transport of §4.3, so a query network can be partitioned
// across real processes the same way Cluster partitions it across
// simulated ones.
//
// The node loads its piece of the query network from a JSON file, accepts
// tuples for its input streams from upstream peers (or generates them with
// -gen), and routes its outputs either to downstream peers or to stdout.
//
// Example — a two-process chain:
//
//	auroranode -id n2 -listen 127.0.0.1:7002 -network tail.json -print out &
//	auroranode -id n1 -listen 127.0.0.1:7001 -network head.json \
//	    -peer n2=127.0.0.1:7002 -route mid=n2/mid \
//	    -gen sensors=in -gen-count 10000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	netpkg "net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/ha"
	"repro/internal/op"
	"repro/internal/qos"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wgen"
)

// buildVersion identifies the binary in /metrics; override with
//
//	go build -ldflags "-X main.buildVersion=v1.2.3" ./cmd/auroranode
var buildVersion = "dev"

// netFile is the JSON description of one node's piece of a query network.
type netFile struct {
	Name  string `json:"name"`
	Boxes []struct {
		ID     string            `json:"id"`
		Kind   string            `json:"kind"`
		Params map[string]string `json:"params"`
	} `json:"boxes"`
	Arcs []struct {
		From string `json:"from"` // "box:port"
		To   string `json:"to"`
	} `json:"arcs"`
	Inputs []struct {
		Name   string `json:"name"`
		Schema []struct {
			Name string `json:"name"`
			Kind string `json:"kind"` // int, float, string, bool
		} `json:"schema"`
		Box  string `json:"box"`
		Port int    `json:"port"`
	} `json:"inputs"`
	Outputs []struct {
		Name string `json:"name"`
		Box  string `json:"box"`
		Port int    `json:"port"`
		// Optional latency QoS graph (§7.1): utility 1 up to good ms,
		// linear to 0 at zero ms. Both must be set; enables delivered-QoS
		// attribution and the -slo plane's cliff forecasting.
		QoSGoodMs float64 `json:"qos_good_ms"`
		QoSZeroMs float64 `json:"qos_zero_ms"`
	} `json:"outputs"`
}

func parseKind(s string) (stream.Kind, error) {
	switch s {
	case "int":
		return stream.KindInt, nil
	case "float":
		return stream.KindFloat, nil
	case "string":
		return stream.KindString, nil
	case "bool":
		return stream.KindBool, nil
	}
	return stream.KindInvalid, fmt.Errorf("unknown kind %q", s)
}

func parsePort(s string) (query.Port, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return query.Port{Box: s}, nil
	}
	var port int
	if _, err := fmt.Sscanf(s[i+1:], "%d", &port); err != nil {
		return query.Port{}, fmt.Errorf("bad port in %q", s)
	}
	return query.Port{Box: s[:i], Port: port}, nil
}

func loadNetwork(path string) (*query.Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var nf netFile
	if err := json.Unmarshal(data, &nf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	b := query.NewBuilder(nf.Name)
	for _, box := range nf.Boxes {
		b.AddBox(box.ID, op.Spec{Kind: box.Kind, Params: box.Params})
	}
	for _, a := range nf.Arcs {
		from, err := parsePort(a.From)
		if err != nil {
			return nil, err
		}
		to, err := parsePort(a.To)
		if err != nil {
			return nil, err
		}
		b.ConnectPorts(from, to, false)
	}
	for _, in := range nf.Inputs {
		fields := make([]stream.Field, len(in.Schema))
		for i, f := range in.Schema {
			k, err := parseKind(f.Kind)
			if err != nil {
				return nil, err
			}
			fields[i] = stream.Field{Name: f.Name, Kind: k}
		}
		schema, err := stream.NewSchema(in.Name, fields...)
		if err != nil {
			return nil, err
		}
		b.BindInput(in.Name, schema, in.Box, in.Port)
	}
	for _, o := range nf.Outputs {
		var spec *qos.Spec
		if o.QoSGoodMs > 0 && o.QoSZeroMs > o.QoSGoodMs {
			spec = &qos.Spec{Latency: qos.DefaultLatency(o.QoSGoodMs*1e6, o.QoSZeroMs*1e6)}
		}
		b.BindOutput(o.Name, o.Box, o.Port, spec)
	}
	return b.Build()
}

// multiFlag collects repeated -flag key=value pairs.
type multiFlag map[string]string

func (m multiFlag) String() string { return fmt.Sprint(map[string]string(m)) }
func (m multiFlag) Set(s string) error {
	i := strings.IndexByte(s, '=')
	if i <= 0 {
		return fmt.Errorf("want key=value, got %q", s)
	}
	m[s[:i]] = s[i+1:]
	return nil
}

// route is one -route out=peer/stream entry, resolved at start-up: where a
// routed output's tuples go, and (with -ha-routes) the link sender that
// owns their delivery. run collects what the output emitted during the
// current engine run; the run loop sends it as one train when the engine
// goes idle, so one inbound frame leaves as one outbound frame per route
// however the engine chunked its execution (a train with a traced tuple
// aboard executes, and emits, one tuple at a time).
type route struct {
	peer, stream string
	sender       *ha.LinkSender
	run          []stream.Tuple
}

// parseRoutes validates every -route flag against the network's outputs
// and splits each destination into peer and remote stream. A malformed
// destination or an output the network does not have is a start-up error
// naming the flag: either would otherwise discard that output's tuples,
// or leave the flag silently without effect.
func parseRoutes(flags map[string]string, hasOutput func(string) bool) (map[string]*route, error) {
	routes := make(map[string]*route, len(flags))
	for out, dest := range flags {
		peer, remote, ok := strings.Cut(dest, "/")
		if !ok || peer == "" || remote == "" {
			return nil, fmt.Errorf("-route %s=%s: destination must be peer/stream", out, dest)
		}
		if !hasOutput(out) {
			return nil, fmt.Errorf("-route %s=%s: the network has no output %q", out, dest, out)
		}
		routes[out] = &route{peer: peer, stream: remote}
	}
	return routes, nil
}

// ingestFrame is the inbound data path for one frame from a peer, HA-
// framed (r non-nil: dedup by link sequence first) or plain. The tuples
// are mid-path: their traces began at the sampling edge upstream, so the
// input must not re-sample, and the time since the sender's last mark —
// serialization, flight, demux — is charged to the network component.
// Every tuple of the frame ends that component at the frame's arrival
// instant, whatever its position; then the frame is ingested as one
// train. The caller holds the run-loop lock and runs the engine next.
func ingestFrame(eng *engine.Engine, r *ha.LinkReceiver, hop, input string, ts []stream.Tuple, arrive int64) {
	for i := range ts {
		ts[i].Span.Mark(trace.KindNet, hop, arrive)
	}
	eng.SetRelayInput(input)
	if r != nil {
		r.OnBatch(ts)
	} else {
		eng.IngestTrain(input, ts)
	}
}

// inKey names one inbound logical stream: the peer it arrives from and the
// stream name on the frame.
type inKey struct{ from, stream string }

// inbound is what a frame's (from, stream) resolves to, worked out once per
// pair instead of once per frame.
type inbound struct {
	hop    string           // trace hop label, "from>id"
	recv   *ha.LinkReceiver // dedup and acks for HA-framed data; nil until the first such frame
	sender *ha.LinkSender   // the route this pair's acks truncate; nil while there is none
}

// node is one server's frame path: the engine, its routed outputs with
// their HA senders, the HA receivers of its inbound streams, and the
// checkpoint that must precede every ack. main builds it from the flags
// and points the transport's handler at handle.
type node struct {
	id       string
	quiet    bool
	haRoutes bool
	print    string
	eng      *engine.Engine
	plane    *stats.Plane     // nil without -stats
	journal  *events.Journal  // nil with -events-buf 0
	mgr      *storage.Manager // nil without -data-dir
	ckpt     storage.NodeCheckpoint
	routes   map[string]*route
	send     func(peer string, m transport.Msg) error // the transport's Send

	// mu serializes run-loop invocations (Step trains or one worker pool at
	// a time; concurrent RunParallel calls are an engine panic). Ingest is
	// engine-safe without it, but the handler takes it anyway so a serial
	// engine behaves exactly as before.
	mu sync.Mutex
	// more is the More of the inbound frame being handled, copied onto
	// everything sent while handling it: a relay with another frame already
	// in hand lets its output queue up behind the write loop, and one with
	// nothing else in hand writes at once. It is only a hint, so the
	// senders that run outside the handler (resync, the ack ticker) may
	// read a neighbouring frame's value: that costs one hand-off or one
	// uncoalesced write, never a message.
	more atomic.Bool
	// outMu guards the delivery counters, the routes' collected runs and
	// stdout printing: with a worker pool, the output hook fires from pool
	// goroutines. It must be distinct from mu — the hook runs while the
	// run loop holds mu.
	outMu     sync.Mutex
	delivered map[string]uint64

	// HA-framed routes: each routed output gets a LinkSender that stamps,
	// retains, and replays across reconnects; each inbound HA-framed
	// stream gets a LinkReceiver that dedups and acks. Keyed by
	// "peer/stream" — exactly the -route destination syntax. in caches
	// what the handler needs per inbound pair; it is replaced, never
	// modified, under lmu, so the handler reads it without a lock.
	lmu       sync.Mutex
	senders   map[string]*ha.LinkSender
	receivers map[string]*ha.LinkReceiver
	in        atomic.Pointer[map[inKey]*inbound]

	ckMu      sync.Mutex
	ckLastSig string
}

func newNode(id string, eng *engine.Engine, routes map[string]*route) *node {
	return &node{id: id, eng: eng, routes: routes,
		delivered: map[string]uint64{},
		senders:   map[string]*ha.LinkSender{},
		receivers: map[string]*ha.LinkReceiver{},
	}
}

// saveCheckpoint snapshots the cheap-to-save, expensive-to-lose state:
// each inbound link's complete received prefix and the plane's digest
// seq. Called before every outbound ack (so upstream truncation never
// outruns what this node has persisted) and from the periodic ticker.
// Unchanged state is skipped; journalIt marks the periodic saves that
// land in the event journal without flooding it at ack cadence.
func (n *node) saveCheckpoint(journalIt bool) {
	if n.mgr == nil {
		return
	}
	cp := storage.NodeCheckpoint{SavedAt: time.Now().UnixNano()}
	n.lmu.Lock()
	if len(n.receivers) > 0 {
		cp.DedupRecv = make(map[string]uint64, len(n.receivers))
		for k, r := range n.receivers {
			cp.DedupRecv[k] = r.ContiguousRecv()
		}
	}
	n.lmu.Unlock()
	if n.plane != nil {
		cp.PlaneSeq = n.plane.Seq()
	}
	sig := fmt.Sprintf("%d|%v", cp.PlaneSeq, cp.DedupRecv)
	n.ckMu.Lock()
	defer n.ckMu.Unlock()
	if sig == n.ckLastSig {
		return
	}
	if err := n.mgr.SaveCheckpoint(cp); err != nil {
		log.Printf("checkpoint save: %v", err)
		return
	}
	n.ckLastSig = sig
	if journalIt && n.journal != nil {
		n.journal.Append(events.Event{
			Time: cp.SavedAt, Kind: events.KindCheckpoint, Subject: n.id,
			V1: float64(len(cp.DedupRecv)), V2: float64(cp.PlaneSeq),
		})
	}
}

// routeMsg frames one run of a routed output. The transport queues the
// message, and the run is its caller's scratch, so the frame gets its
// own copy of the slice. The stats trailer rides along for free: every
// routed batch gossips the sender's current load map.
func (n *node) routeMsg(remoteStream string, run []stream.Tuple, ctrl []byte) transport.Msg {
	m := transport.Msg{
		Stream: remoteStream, Kind: transport.KindData, Ctrl: ctrl,
		BaseSeq: run[0].Seq, Tuples: append([]stream.Tuple(nil), run...),
		More: n.more.Load(),
	}
	if n.plane != nil {
		m.Digests = n.plane.Gossip()
	}
	return m
}

// getSender returns the HA sender of the route to peer/remoteStream,
// building it — from the surviving segment files when the node is
// durable — on first use.
func (n *node) getSender(peer, remoteStream string) *ha.LinkSender {
	n.lmu.Lock()
	defer n.lmu.Unlock()
	key := peer + "/" + remoteStream
	s := n.senders[key]
	if s != nil {
		return s
	}
	send := func(batch []stream.Tuple) error {
		return n.send(peer, n.routeMsg(remoteStream, batch, ha.LinkBatchCtrl()))
	}
	s = n.recoverSender(key, send)
	s.Name = key
	s.Journal = n.journal
	n.senders[key] = s
	n.in.Store(nil) // entries resolved before this sender existed lack it
	return s
}

// recoverSender builds a durable route's sender: the output log is rebuilt
// from whatever segments survived the last incarnation, and every Send is
// written through to disk before it counts as committed. Without a data
// directory (or when the log cannot be opened) the sender is memory-only.
func (n *node) recoverSender(key string, send func([]stream.Tuple) error) *ha.LinkSender {
	if n.mgr == nil {
		return ha.NewLinkSender(send)
	}
	olog, err := n.mgr.OutputLog(key)
	if err != nil {
		log.Printf("output log %s: %v (route running without durability)", key, err)
		return ha.NewLinkSender(send)
	}
	sink := storage.NewOutputSink(olog)
	origins, tuples, err := sink.RecoveredEntries()
	if err != nil {
		log.Printf("output log %s: replay: %v (recovered prefix only)", key, err)
	}
	entries := make([]ha.LogEntry, len(tuples))
	for i := range tuples {
		entries[i] = ha.LogEntry{Origin: origins[i], Tuple: tuples[i]}
	}
	s := ha.RecoverLinkSender(entries, send)
	s.AttachDurable(sink)
	if len(entries) == 0 {
		return s
	}
	if !n.quiet {
		log.Printf("route %s: recovered %d unacknowledged entries from disk", key, len(entries))
	}
	if n.journal != nil {
		corr := n.journal.NewCorr()
		n.journal.Append(events.Event{
			Time: time.Now().UnixNano(), Kind: events.KindRecovery,
			Subject: key, Detail: "output log from disk", Corr: corr,
			V1: float64(len(entries)),
		})
		// The corr chains this recovery to the resync that replays the
		// rebuilt suffix.
		s.SetCorr(corr)
	}
	return s
}

// resolve returns what frames of stream from peer `from` need: the trace
// hop label, the sender their acks truncate, and — when wantRecv, for an
// HA-framed data frame — the receiver that dedups them. The hit path is
// one map read with no lock and no allocation; a miss (the pair's first
// frame, its first HA-framed frame, an ack for a route not yet built)
// fills the entry in under lmu and publishes a new map.
func (n *node) resolve(from, streamName string, wantRecv bool) *inbound {
	k := inKey{from, streamName}
	if cur := n.in.Load(); cur != nil {
		if e := (*cur)[k]; e != nil && (e.recv != nil || !wantRecv) {
			return e
		}
	}
	n.lmu.Lock()
	defer n.lmu.Unlock()
	key := from + "/" + streamName
	e := &inbound{hop: from + ">" + n.id, recv: n.receivers[key], sender: n.senders[key]}
	if e.recv == nil && wantRecv {
		e.recv = n.newReceiver(from, streamName, key)
		n.receivers[key] = e.recv
	}
	next := map[inKey]*inbound{k: e}
	if cur := n.in.Load(); cur != nil {
		for ok, oe := range *cur {
			if ok != k {
				next[ok] = oe
			}
		}
	}
	n.in.Store(&next)
	return e
}

// newReceiver builds the HA receiver of one inbound stream. Its deliver
// and ack closures run with mu held when a frame drives them (OnBatch is
// only invoked from handle, through ingestFrame); the periodic AckNow
// calls ack without it.
func (n *node) newReceiver(from, streamName, key string) *ha.LinkReceiver {
	r := ha.NewLinkReceiverTrain(
		func(ts []stream.Tuple) { n.eng.IngestTrain(streamName, ts) },
		func(recv uint64) {
			// Checkpoint before the ack leaves: the upstream may
			// truncate its log the moment it sees recv, so this
			// node's persisted watermark must already cover it.
			n.saveCheckpoint(false)
			_ = n.send(from, transport.Msg{
				Stream: streamName, Kind: transport.KindBackChannel,
				Ctrl: ha.AppendLinkAck(nil, recv), More: n.more.Load(),
			})
		}, 32)
	if seq := n.ckpt.DedupRecv[key]; seq > 0 {
		// The previous incarnation had acknowledged this prefix;
		// a resync replaying it must be suppressed, not re-ingested.
		r.SeedDedup(seq)
	}
	return r
}

// onOutputTrain is the engine's output hook: count, print, and collect
// each routed output's tuples for the run loop to send.
func (n *node) onOutputTrain(name string, ts []stream.Tuple) {
	n.outMu.Lock()
	n.delivered[name] += uint64(len(ts))
	if name == n.print {
		for _, t := range ts {
			fmt.Println(t.String())
		}
	}
	if r := n.routes[name]; r != nil {
		r.run = append(r.run, ts...)
	}
	n.outMu.Unlock()
}

// runEngine is the run loop's one step, called with mu held: run the
// engine until idle, then send each routed output's collected run as
// one train — one log append, one frame. Nothing waits for more: a run
// is whatever the work already in hand produced.
func (n *node) runEngine() {
	n.eng.Run()
	n.outMu.Lock()
	defer n.outMu.Unlock()
	for name, r := range n.routes {
		if len(r.run) == 0 {
			continue
		}
		if r.sender != nil {
			r.sender.SendTrain(r.run)
		} else if err := n.send(r.peer, n.routeMsg(r.stream, r.run, nil)); err != nil && !n.quiet {
			log.Printf("route %s -> %s/%s: %v", name, r.peer, r.stream, err)
		}
		clear(r.run) // the log and the frame hold their own copies
		r.run = r.run[:0]
	}
}

// handle is the transport's handler: one inbound frame from a peer.
func (n *node) handle(from string, m transport.Msg) {
	if n.plane != nil && len(m.Digests) > 0 {
		n.plane.Merge(m.Digests)
	}
	if m.Kind == transport.KindBackChannel {
		// Complete-prefix ack from a downstream HA receiver: truncate
		// the matching output log.
		if recv, ok := ha.ParseLinkAck(m.Ctrl); ok {
			if s := n.resolve(from, m.Stream, false).sender; s != nil {
				s.Ack(recv)
			}
		}
		return
	}
	if m.Kind != transport.KindData {
		return
	}
	arrive := time.Now().UnixNano()
	// HA-framed batch: dedup by link sequence, then ingest. The receiver
	// acks its complete prefix so the upstream log drains.
	in := n.resolve(from, m.Stream, n.haRoutes && ha.IsLinkBatch(m.Ctrl))
	n.mu.Lock()
	defer n.mu.Unlock()
	n.more.Store(m.More)
	defer n.more.Store(false)
	ingestFrame(n.eng, in.recv, in.hop, m.Stream, m.Tuples, arrive)
	n.runEngine()
}

func main() {
	var (
		id       = flag.String("id", "node", "node identity")
		listen   = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		netPath  = flag.String("network", "", "query network JSON file (required)")
		print    = flag.String("print", "", "output stream to print to stdout")
		genSpec  = flag.String("gen", "", "self-generate workload: sensors=<input> | quotes=<input> | flows=<input>")
		genN     = flag.Int("gen-count", 10000, "tuples to generate")
		genRate  = flag.Float64("gen-rate", 10000, "generated tuples per second")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")
		httpAddr = flag.String("http", "", "telemetry HTTP listen address (/metrics, /trace, /healthz, /stats, /loadmap, /links); empty disables")
		traceN   = flag.Int("trace", 0, "trace every Nth locally ingested tuple (0 disables tracing)")
		traceBuf = flag.Int("trace-buf", 4096, "flight-recorder ring capacity")
		statsPer = flag.Duration("stats", 0, "statistics-plane sample period (0 disables the stats plane)")
		statsWin = flag.Int("stats-windows", 8, "windowed-store ring size per series")
		linkPing = flag.Duration("link-ping", time.Second, "peer-link keepalive period (0 disables pings and read-idle detection)")
		linkBuf  = flag.Int("link-buffer", 1024, "messages buffered per peer link across reconnects")
		haRoutes = flag.Bool("ha-routes", true, "frame routed outputs with the HA link protocol (sequence, retain, replay on reconnect, dedup downstream)")
		workers  = flag.Int("workers", 0, "engine worker pool size for wall-clock execution (0 or 1 = serial)")
		autoN    = flag.Int("autosplit", 0, "key-shard a hot box into N replicas at runtime when the stats plane flags it (0 disables; needs a splittable operator)")
		eventBuf = flag.Int("events-buf", 1024, "structured event journal ring capacity (0 disables the journal)")
		dataDir  = flag.String("data-dir", "", "durable state directory: output logs and connection-point spill land in segment files there, dedup + stats-plane state is checkpointed, and a restart recovers all of it (empty disables durability)")
		sloOn    = flag.Bool("slo", false, "enable the latency-SLO plane: per-output quantile sketches, tail attribution, and cliff forecasting (served at /latency and as Prometheus histograms)")
	)
	peers := multiFlag{}
	routeFlags := multiFlag{}
	flag.Var(peers, "peer", "peer id=host:port (repeatable)")
	flag.Var(routeFlags, "route", "output routing out=peer/stream (repeatable)")
	flag.Parse()

	if *netPath == "" {
		log.Fatal("-network is required")
	}
	net, err := loadNetwork(*netPath)
	if err != nil {
		log.Fatalf("load network: %v", err)
	}
	routes, err := parseRoutes(routeFlags, func(out string) bool {
		_, ok := net.Outputs()[out]
		return ok
	})
	if err != nil {
		log.Fatal(err)
	}
	var tracer *trace.Tracer
	if *traceN > 0 {
		tracer = trace.NewTracer(*id, *traceN, trace.NewRecorder(*traceBuf))
	}
	// The event journal is the node's flight recorder for control-plane
	// decisions: every split/unsplit, shed transition, link state change,
	// and HA replay lands here and is served at /events.
	var journal *events.Journal
	if *eventBuf > 0 {
		journal = events.NewJournal(*id, *eventBuf)
	}
	// Durable state: the data directory survives the process. Output logs
	// and connection-point spill live there as segment files; the small
	// checkpoint carries each inbound link's dedup prefix and the stats
	// plane's digest sequence. A restart rebuilds all of it before any
	// traffic arrives.
	var mgr *storage.Manager
	var ckpt storage.NodeCheckpoint
	if *dataDir != "" {
		mgr, err = storage.Open(*dataDir)
		if err != nil {
			log.Fatalf("data dir: %v", err)
		}
		defer mgr.Close()
		var ok bool
		ckpt, ok, err = mgr.LoadCheckpoint()
		if err != nil {
			log.Printf("checkpoint load: %v (starting cold)", err)
		}
		if ok {
			if !*quiet {
				log.Printf("recovered checkpoint: %d inbound link watermarks, plane seq %d",
					len(ckpt.DedupRecv), ckpt.PlaneSeq)
			}
			if journal != nil {
				journal.Append(events.Event{
					Time: time.Now().UnixNano(), Kind: events.KindRecovery,
					Subject: *id, Detail: "checkpoint",
					V1: float64(len(ckpt.DedupRecv)), V2: float64(ckpt.PlaneSeq),
				})
			}
		}
	}

	ecfg := engine.Config{Tracer: tracer, Workers: *workers, Journal: journal}
	if mgr != nil {
		// Every marked arc's history spills to disk past the memory
		// budget instead of dropping, and a restarted node's ad hoc
		// attachments replay the prior incarnation's retained window.
		ecfg.CPSpill = func(p query.Port) stream.Spill {
			l, err := mgr.CPLog(fmt.Sprintf("%s:%d", p.Box, p.Port))
			if err != nil {
				log.Printf("cp spill %s:%d: %v (memory-only)", p.Box, p.Port, err)
				return nil
			}
			return storage.NewCPSpill(l, 0)
		}
	}
	var plane *stats.Plane
	if *statsPer > 0 {
		plane = stats.NewPlane(*id, statsPer.Nanoseconds(), *statsWin, 0)
		if ckpt.PlaneSeq > 0 {
			// Peers merge digests keep-max-seq; a reborn plane restarting
			// at zero would be ignored until it out-counted its past self.
			plane.ResumeSeq(ckpt.PlaneSeq)
		}
		ecfg.Stats = plane.Store()
		ecfg.StatsEvery = 64
	}
	if *autoN > 0 {
		// The controller rides the stats plane; without -stats the engine
		// creates a private windowed store just for hot-box detection.
		ecfg.AutoSplit = &engine.AutoSplitConfig{Replicas: *autoN}
	}
	if *sloOn {
		// Defaults throughout; like autosplit, the plane builds a private
		// windowed store when -stats is off.
		ecfg.SLO = &engine.SLOConfig{}
	}
	eng, err := engine.New(net, ecfg)
	if err != nil {
		log.Fatalf("engine: %v", err)
	}
	// Routed outputs leave this process for a downstream peer, so their
	// spans must stay open; only a terminal output finalizes a trace.
	for name := range routes {
		eng.SetRelayOutput(name)
	}

	n := newNode(*id, eng, routes)
	n.quiet, n.haRoutes, n.print = *quiet, *haRoutes, *print
	n.plane, n.journal, n.mgr, n.ckpt = plane, journal, mgr, ckpt
	var tcp *transport.TCP
	n.send = func(peer string, m transport.Msg) error { return tcp.Send(peer, m) }

	if *haRoutes {
		// The output log owns delivery on these routes: stamped, retained
		// until the downstream acks, replayed on reconnect.
		for _, r := range routes {
			r.sender = n.getSender(r.peer, r.stream)
		}
	}
	eng.OnOutputTrain(n.onOutputTrain)

	tcp, err = transport.ListenTCP(*id, *listen, n.handle,
		transport.LinkConfig{PingPeriod: *linkPing, BufferLimit: *linkBuf})
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer tcp.Close()
	tcp.SetJournal(journal)
	if !*quiet {
		log.Printf("node %s listening on %s, network %s", *id, tcp.Addr(), net)
	}

	// Link lifecycle: log and trace-mark every state transition, and on a
	// re-established link replay each affected route's unacknowledged
	// output (the no-loss half; the receiver's dedup is the no-dup half).
	tcp.SetOnLinkState(func(peer string, from, to transport.LinkState) {
		if !*quiet {
			log.Printf("link %s: %s -> %s", peer, from, to)
		}
		tracer.Annotate("link "+peer+" "+to.String(), time.Now().UnixNano())
	})
	tcp.SetOnEstablished(func(peer string, reconnected bool) {
		// A durable node resyncs on every establish, not just reconnects:
		// a restarted process's first connection is brand new to this
		// transport, but the suffix rebuilt from segment files still needs
		// replaying (an empty log replays nothing, so fresh routes are
		// unaffected).
		if !reconnected && mgr == nil {
			return
		}
		n.lmu.Lock()
		var rs []*ha.LinkSender
		for key, s := range n.senders {
			if strings.HasPrefix(key, peer+"/") {
				rs = append(rs, s)
			}
		}
		n.lmu.Unlock()
		for _, s := range rs {
			left := s.Resync()
			if !*quiet {
				log.Printf("link %s established: replayed %d total, %d still outstanding",
					peer, s.Replayed(), left)
			}
		}
	})

	if plane != nil {
		// Sampler: on each stats period, fold the engine's sources into
		// the windowed store, derive node-level gauges, and publish a
		// fresh digest for the gossip to carry.
		go func() {
			tick := time.NewTicker(*statsPer)
			defer tick.Stop()
			var lastBusy int64
			var lastAt = time.Now().UnixNano()
			for range tick.C {
				now := time.Now().UnixNano()
				n.mu.Lock()
				eng.SampleStats(now)
				queued := eng.QueuedTuples()
				busy := eng.BusyNs()
				n.mu.Unlock()
				st := plane.Store()
				if elapsed := now - lastAt; elapsed > 0 {
					util := float64(busy-lastBusy) / float64(elapsed)
					if util > 1 {
						util = 1
					}
					st.Observe(stats.SeriesNodeUtil, stats.KindGauge, now, util)
				}
				lastBusy, lastAt = busy, now
				st.Observe(stats.SeriesNodeQueued, stats.KindGauge, now, float64(queued))
				// Windowed pressure, not the latched all-time Pressure():
				// a transient burst shows for the windows it spans, then
				// the reading decays as the backlog drains.
				st.Observe(stats.SeriesNodePressure, stats.KindGauge, now,
					eng.Storage().PressureWindow())
				eng.Storage().ResetPressureWindow()
				plane.Publish(now)
			}
		}()
	}

	// stopped flips once the generator has drained and the node is about
	// to exit: /healthz reports 503 "stopped" so scrapers and probes see
	// the node leave the cluster before the process goes away.
	var stopped atomic.Bool
	if *httpAddr != "" {
		ln, err := netpkg.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("telemetry listen: %v", err)
		}
		if !*quiet {
			log.Printf("telemetry on http://%s (/metrics /trace /events /healthz /stats /loadmap /links)", ln.Addr())
		}
		go http.Serve(ln, telemetry.NewHandler(telemetry.Config{
			Node:    *id,
			Engine:  eng,
			Plane:   plane,
			Links:   tcp,
			Journal: journal,
			Version: buildVersion,
			Health: func() (bool, string) {
				if stopped.Load() {
					return false, "stopped"
				}
				return true, ""
			},
		}))
	}

	// Recovery enumeration: rebuild a sender (and its retained suffix) for
	// every route with an on-disk output log, before any peer connects —
	// the establish hook above then replays each one through the normal
	// resync path as soon as its link comes up.
	if mgr != nil && *haRoutes {
		keys, err := mgr.OutputLogKeys()
		if err != nil {
			log.Printf("output log enumeration: %v", err)
		}
		for _, key := range keys {
			i := strings.IndexByte(key, '/')
			if i <= 0 {
				continue
			}
			n.getSender(key[:i], key[i+1:])
		}
	}

	// Supervised peers: the transport dials with backoff, reconnects when
	// the connection dies, and buffers routed output across the gaps — a
	// peer that is down at startup is no longer fatal.
	for peer, addr := range peers {
		if err := tcp.AddPeer(peer, addr); err != nil {
			log.Fatalf("peer %s=%s: %v", peer, addr, err)
		}
	}

	if *haRoutes {
		// Cadence acks alone leave a tail in the upstream log when the
		// stream pauses; a periodic AckNow drains it.
		go func() {
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for range tick.C {
				n.lmu.Lock()
				rs := make([]*ha.LinkReceiver, 0, len(n.receivers))
				for _, r := range n.receivers {
					rs = append(rs, r)
				}
				n.lmu.Unlock()
				for _, r := range rs {
					r.AckNow()
				}
			}
		}()
	}
	if mgr != nil {
		// Periodic checkpoint, journaled: covers the plane seq (which
		// advances without inbound traffic) and any watermark movement the
		// ack path already persisted quietly.
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for range tick.C {
				n.saveCheckpoint(true)
			}
		}()
	}

	if *genSpec != "" {
		i := strings.IndexByte(*genSpec, '=')
		if i <= 0 {
			log.Fatalf("bad -gen %q", *genSpec)
		}
		kind, input := (*genSpec)[:i], (*genSpec)[i+1:]
		arrival := wgen.NewPoissonArrival(*genRate, 1)
		var src wgen.Source
		switch kind {
		case "sensors":
			src = wgen.NewSensorSource(32, 1.2, []string{"cambridge", "boston"}, arrival, int64(*genN), 1)
		case "quotes":
			src = wgen.NewStockSource(16, arrival, int64(*genN), 1)
		case "flows":
			src = wgen.NewNetFlowSource(256, arrival, int64(*genN), 1)
		default:
			log.Fatalf("unknown generator %q", kind)
		}
		// A worker pool costs goroutine startup per invocation, so with
		// workers the generator runs it on batches instead of per tuple.
		runEvery := 1
		if *workers > 1 {
			runEvery = 256
		}
		start := time.Now()
		count := 0
		for {
			t, gap, ok := src.Next()
			if !ok {
				break
			}
			time.Sleep(time.Duration(gap))
			n.mu.Lock()
			eng.Ingest(input, t)
			count++
			if count%runEvery == 0 {
				n.runEngine()
			}
			n.mu.Unlock()
		}
		n.mu.Lock()
		n.runEngine()
		eng.Drain()
		n.runEngine() // Drain's flushed windows are routed output too
		n.mu.Unlock()
		stopped.Store(true)
		if !*quiet {
			n.outMu.Lock()
			log.Printf("generated %d tuples in %v; deliveries: %v",
				count, time.Since(start).Round(time.Millisecond), n.delivered)
			n.outMu.Unlock()
		}
		// Give routed messages a moment to flush before exiting; HA-framed
		// routes additionally wait (bounded) for their output logs to be
		// acknowledged empty, so a reconnect near the end loses nothing.
		flushDeadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(flushDeadline) {
			n.lmu.Lock()
			outstanding := 0
			for _, s := range n.senders {
				outstanding += s.Outstanding()
			}
			n.lmu.Unlock()
			if outstanding == 0 {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		n.saveCheckpoint(false)
		time.Sleep(200 * time.Millisecond)
		return
	}

	select {} // serve forever
}
