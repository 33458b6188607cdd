// Package node is one Aurora server over the multiplexed TCP transport of
// §4.3 and the wall clock: the engine, its routed outputs with their HA
// link senders, the HA receivers of its inbound streams, the durable
// output logs and dedup checkpoint under a data directory, the gossiped
// statistics plane, and the run loop that joins them. cmd/auroranode is
// flags over this package; the wall-clock chaos harnesses drive the same
// Node, so the code they check is the code that ships.
package node

import (
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/ha"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transport"
)

const (
	// ackPeriod is the periodic AckNow: cadence acks alone leave a tail in
	// the upstream log when the stream pauses.
	ackPeriod = 500 * time.Millisecond
	// checkpointPeriod is the journaled checkpoint: it covers the plane
	// seq, which advances without inbound traffic.
	checkpointPeriod = time.Second
)

// Config is one node's start-up configuration. Each field is one
// auroranode flag, named in its comment.
type Config struct {
	ID      string            // -id
	Listen  string            // -listen
	Network *query.Network    // -network, loaded
	Peers   map[string]string // -peer id=host:port
	Routes  map[string]string // -route out=peer/stream
	// Output, when set, sees every output run as it is emitted, routed or
	// not (-print is a printer here). It is called on the run loop, under
	// the node's lock; ts is valid for the call only.
	Output       func(name string, ts []stream.Tuple)
	Quiet        bool                 // -quiet
	Trace        int                  // -trace
	TraceBuf     int                  // -trace-buf
	Stats        time.Duration        // -stats
	StatsWindows int                  // -stats-windows
	Link         transport.LinkConfig // -link-ping, -link-buffer
	HARoutes     bool                 // -ha-routes
	EventsBuf    int                  // -events-buf
	DataDir      string               // -data-dir
	SLO          bool                 // -slo
}

// Node is one running server. Open starts it; Close stops every goroutine
// it started, so a process can be killed and reopened in-process.
type Node struct {
	id       string
	quiet    bool
	haRoutes bool
	output   func(name string, ts []stream.Tuple)
	eng      *engine.Engine
	tracer   *trace.Tracer    // nil without -trace
	plane    *stats.Plane     // nil without -stats
	journal  *events.Journal  // nil with -events-buf 0
	mgr      *storage.Manager // nil without -data-dir
	ckpt     storage.NodeCheckpoint
	routes   map[string]*route
	tcp      *transport.TCP
	send     func(peer string, m transport.Msg) error // the transport's Send

	// mu serializes the run loop: the engine's control methods, and with
	// them the output hook and the routes' collected runs, only ever run
	// under it. Ingest is engine-safe without it, but the handler takes it
	// anyway so ingest and the run that follows it stay one step.
	mu sync.Mutex
	// more is the More of the inbound frame being handled, copied onto
	// everything sent while handling it: a relay with another frame already
	// in hand lets its output queue up behind the write loop, and one with
	// nothing else in hand writes at once. It is only a hint, so the
	// senders that run outside the handler (resync, the ack ticker) may
	// read a neighbouring frame's value: that costs one hand-off or one
	// uncoalesced write, never a message.
	more atomic.Bool

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

	stop      chan struct{} // closed by Close: the tickers exit
	tickers   sync.WaitGroup
	closeOnce sync.Once
}

func newNode(id string, routes map[string]*route) *Node {
	return &Node{id: id, routes: routes,
		senders:   map[string]*ha.LinkSender{},
		receivers: map[string]*ha.LinkReceiver{},
		stop:      make(chan struct{}),
	}
}

// Open builds and starts a node: it recovers the data directory, builds
// the engine, rebuilds a sender for every route with surviving output,
// listens, dials its peers, and starts the stats sampler, the ack ticker
// and the checkpoint ticker. A bad -route is an error naming the flag.
func Open(cfg Config) (*Node, error) {
	routes, err := parseRoutes(cfg.Routes, func(out string) bool {
		_, ok := cfg.Network.Outputs()[out]
		return ok
	})
	if err != nil {
		return nil, err
	}
	n := newNode(cfg.ID, routes)
	n.quiet, n.haRoutes, n.output = cfg.Quiet, cfg.HARoutes, cfg.Output
	if cfg.Trace > 0 {
		n.tracer = trace.NewTracer(cfg.ID, cfg.Trace, trace.NewRecorder(cfg.TraceBuf))
	}
	// The event journal is the node's flight recorder for control-plane
	// decisions: every split/unsplit, shed transition, link state change,
	// and HA replay lands here and is served at /events.
	if cfg.EventsBuf > 0 {
		n.journal = events.NewJournal(cfg.ID, cfg.EventsBuf)
	}
	if cfg.DataDir != "" {
		if err := n.openData(cfg.DataDir); err != nil {
			return nil, err
		}
	}
	n.eng, err = engine.New(cfg.Network, n.engineConfig(cfg))
	if err != nil {
		n.Close()
		return nil, fmt.Errorf("engine: %w", err)
	}
	// Routed outputs leave this process for a downstream peer, so their
	// spans must stay open; only a terminal output finalizes a trace.
	for name := range routes {
		n.eng.SetRelayOutput(name)
	}
	n.send = func(peer string, m transport.Msg) error { return n.tcp.Send(peer, m) }
	if n.haRoutes {
		// The output log owns delivery on these routes: stamped, retained
		// until the downstream acks, replayed on reconnect.
		for _, r := range routes {
			r.sender = n.getSender(r.peer, r.stream)
		}
	}
	n.eng.OnOutputTrain(n.onOutputTrain)

	n.tcp, err = transport.ListenTCP(cfg.ID, cfg.Listen, n.handle, cfg.Link)
	if err != nil {
		n.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	n.tcp.SetJournal(n.journal)
	if !n.quiet {
		log.Printf("node %s listening on %s, network %s", cfg.ID, n.tcp.Addr(), cfg.Network)
	}
	// Link lifecycle: log and trace-mark every state transition, and on a
	// re-established link replay each affected route's unacknowledged
	// output (the no-loss half; the receiver's dedup is the no-dup half).
	n.tcp.SetOnLinkState(func(peer string, from, to transport.LinkState) {
		if !n.quiet {
			log.Printf("link %s: %s -> %s", peer, from, to)
		}
		n.tracer.Annotate("link "+peer+" "+to.String(), time.Now().UnixNano())
	})
	n.tcp.SetOnEstablished(n.onEstablished)

	// Recovery enumeration: rebuild a sender (and its retained suffix) for
	// every route with an on-disk output log, before any peer connects —
	// the establish hook above then replays each one through the normal
	// resync path as soon as its link comes up.
	if n.mgr != nil && n.haRoutes {
		keys, err := n.mgr.OutputLogKeys()
		if err != nil {
			log.Printf("output log enumeration: %v", err)
		}
		for _, key := range keys {
			if peer, remote, ok := strings.Cut(key, "/"); ok && peer != "" {
				n.getSender(peer, remote)
			}
		}
	}

	// Supervised peers: the transport dials with backoff, reconnects when
	// the connection dies, and buffers routed output across the gaps — a
	// peer that is down at startup is no longer fatal.
	for peer, addr := range cfg.Peers {
		if err := n.tcp.AddPeer(peer, addr); err != nil {
			n.Close()
			return nil, fmt.Errorf("peer %s=%s: %w", peer, addr, err)
		}
	}

	if n.plane != nil {
		n.every(cfg.Stats, n.sampler())
	}
	if n.haRoutes {
		n.every(ackPeriod, n.AckNow)
	}
	if n.mgr != nil {
		// Periodic checkpoint, journaled: covers the plane seq (which
		// advances without inbound traffic) and any watermark movement the
		// ack path already persisted quietly.
		n.every(checkpointPeriod, func() { n.saveCheckpoint(true) })
	}
	return n, nil
}

// openData opens the durable state directory and loads its checkpoint.
// The data directory survives the process: output logs and connection-
// point spill live there as segment files, and the small checkpoint
// carries each inbound link's dedup prefix and the stats plane's digest
// sequence. A restart rebuilds all of it before any traffic arrives.
func (n *Node) openData(dir string) error {
	mgr, err := storage.Open(dir)
	if err != nil {
		return fmt.Errorf("data dir: %w", err)
	}
	n.mgr = mgr
	ckpt, ok, err := mgr.LoadCheckpoint()
	if err != nil {
		log.Printf("checkpoint load: %v (starting cold)", err)
	}
	if !ok {
		return nil
	}
	n.ckpt = ckpt
	if !n.quiet {
		log.Printf("recovered checkpoint: %d inbound link watermarks, plane seq %d",
			len(ckpt.DedupRecv), ckpt.PlaneSeq)
	}
	n.journal.Append(events.Event{
		Time: time.Now().UnixNano(), Kind: events.KindRecovery,
		Subject: n.id, Detail: "checkpoint",
		V1: float64(len(ckpt.DedupRecv)), V2: float64(ckpt.PlaneSeq),
	})
	return nil
}

// engineConfig builds the engine's configuration, creating the stats
// plane on the way when -stats asks for one.
func (n *Node) engineConfig(cfg Config) engine.Config {
	ecfg := engine.Config{Tracer: n.tracer, Journal: n.journal}
	if n.mgr != nil {
		// Every marked arc's history spills to disk past the memory
		// budget instead of dropping, and a restarted node's ad hoc
		// attachments replay the prior incarnation's retained window.
		ecfg.CPSpill = func(p query.Port) stream.Spill {
			l, err := n.mgr.CPLog(fmt.Sprintf("%s:%d", p.Box, p.Port))
			if err != nil {
				log.Printf("cp spill %s:%d: %v (memory-only)", p.Box, p.Port, err)
				return nil
			}
			return storage.NewCPSpill(l, 0)
		}
	}
	if cfg.Stats > 0 {
		n.plane = stats.NewPlane(cfg.ID, cfg.Stats.Nanoseconds(), cfg.StatsWindows, 0)
		if n.ckpt.PlaneSeq > 0 {
			// Peers merge digests keep-max-seq; a reborn plane restarting
			// at zero would be ignored until it out-counted its past self.
			n.plane.ResumeSeq(n.ckpt.PlaneSeq)
		}
		ecfg.Stats = n.plane.Store()
		ecfg.StatsEvery = 64
	}
	if cfg.SLO {
		// Defaults throughout; the plane builds a private windowed store
		// when -stats is off.
		ecfg.SLO = &engine.SLOConfig{}
	}
	return ecfg
}

// onEstablished replays the unacknowledged output of every route to peer.
// A durable node resyncs on every establish, not just reconnects: a
// restarted process's first connection is brand new to this transport,
// but the suffix rebuilt from segment files still needs replaying (an
// empty log replays nothing, so fresh routes are unaffected).
func (n *Node) onEstablished(peer string, reconnected bool) {
	if !reconnected && n.mgr == nil {
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
		if !n.quiet {
			log.Printf("link %s established: replayed %d total, %d still outstanding",
				peer, s.Replayed(), left)
		}
	}
}

// sampler returns the stats ticker's body: on each stats period, fold the
// engine's sources into the windowed store, derive node-level gauges, and
// publish a fresh digest for the gossip to carry.
func (n *Node) sampler() func() {
	var lastBusy int64
	lastAt := time.Now().UnixNano()
	return func() {
		now := time.Now().UnixNano()
		n.mu.Lock()
		n.eng.SampleStats(now)
		queued := n.eng.QueuedTuples()
		busy := n.eng.BusyNs()
		n.mu.Unlock()
		st := n.plane.Store()
		if elapsed := now - lastAt; elapsed > 0 {
			st.Observe(stats.SeriesNodeUtil, stats.KindGauge, now,
				min(float64(busy-lastBusy)/float64(elapsed), 1))
		}
		lastBusy, lastAt = busy, now
		st.Observe(stats.SeriesNodeQueued, stats.KindGauge, now, float64(queued))
		// Windowed pressure, not the latched all-time Pressure(): a
		// transient burst shows for the windows it spans, then the reading
		// decays as the backlog drains.
		st.Observe(stats.SeriesNodePressure, stats.KindGauge, now,
			n.eng.Storage().PressureWindow())
		n.eng.Storage().ResetPressureWindow()
		n.plane.Publish(now)
	}
}

// every runs fn each period until Close.
func (n *Node) every(period time.Duration, fn func()) {
	n.tickers.Add(1)
	go func() {
		defer n.tickers.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
}

// Ingest feeds one train of locally born tuples to an input stream and
// runs the engine, sending whatever the run routes. The engine compacts
// shed tuples out of ts in place; the caller may reuse ts once Ingest
// returns.
func (n *Node) Ingest(input string, ts []stream.Tuple) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.eng.IngestTrain(input, ts)
	n.runEngine()
}

// Drain runs the engine dry, flushes its windows, and routes what the
// flush emitted.
func (n *Node) Drain() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.runEngine()
	n.eng.Drain()
	n.runEngine() // Drain's flushed windows are routed output too
}

// AckNow sends every inbound HA stream's complete prefix upstream now,
// whatever its ack cadence; the ack ticker calls it every ackPeriod.
func (n *Node) AckNow() {
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

// Outstanding returns how many routed tuples, over every route, are
// retained awaiting the downstream's ack.
func (n *Node) Outstanding() int {
	n.lmu.Lock()
	defer n.lmu.Unlock()
	total := 0
	for _, s := range n.senders {
		total += s.Outstanding()
	}
	return total
}

// Checkpoint persists the dedup watermarks and plane seq now (a no-op
// without a data directory or when nothing changed).
func (n *Node) Checkpoint() { n.saveCheckpoint(false) }

// Receiver returns the HA receiver of the inbound stream key
// ("peer/stream"), nil before its first HA-framed frame.
func (n *Node) Receiver(key string) *ha.LinkReceiver {
	n.lmu.Lock()
	defer n.lmu.Unlock()
	return n.receivers[key]
}

// TCP returns the node's transport.
func (n *Node) TCP() *transport.TCP { return n.tcp }

// Engine returns the node's engine.
func (n *Node) Engine() *engine.Engine { return n.eng }

// Plane returns the statistics plane, nil without -stats.
func (n *Node) Plane() *stats.Plane { return n.plane }

// Journal returns the event journal, nil with -events-buf 0.
func (n *Node) Journal() *events.Journal { return n.journal }

// Close stops the tickers, the transport and the data directory, and
// waits for every goroutine the node started. It is abrupt — nothing is
// drained or acknowledged first — so it is also how a test kills the
// process: by contract every SendTrain that returned was already fsynced,
// and the data directory is what survives. Close is idempotent.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.stop)
		n.tickers.Wait()
		if n.tcp != nil {
			n.tcp.Close()
		}
		if n.mgr != nil {
			err = n.mgr.Close()
		}
	})
	return err
}
