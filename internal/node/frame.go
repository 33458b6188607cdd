package node

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/ha"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transport"
)

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

// saveCheckpoint snapshots the cheap-to-save, expensive-to-lose state:
// each inbound link's complete received prefix and the plane's digest
// seq. Called before every outbound ack (so upstream truncation never
// outruns what this node has persisted) and from the periodic ticker.
// Unchanged state is skipped; journalIt marks the periodic saves that
// land in the event journal without flooding it at ack cadence.
func (n *Node) saveCheckpoint(journalIt bool) {
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
	if journalIt {
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
func (n *Node) routeMsg(remoteStream string, run []stream.Tuple, ctrl []byte) transport.Msg {
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
func (n *Node) getSender(peer, remoteStream string) *ha.LinkSender {
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
func (n *Node) recoverSender(key string, send func([]stream.Tuple) error) *ha.LinkSender {
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
			Subject: key, Detail: RecoveredOutputLog, Corr: corr,
			V1: float64(len(entries)),
		})
		// The corr chains this recovery to the resync that replays the
		// rebuilt suffix.
		s.SetCorr(corr)
	}
	return s
}

// RecoveredOutputLog is the Detail of the KindRecovery event a route
// journals when it rebuilds its output log from disk; V1 counts the
// entries rebuilt.
const RecoveredOutputLog = "output log from disk"

// resolve returns what frames of stream from peer `from` need: the trace
// hop label, the sender their acks truncate, and — when wantRecv, for an
// HA-framed data frame — the receiver that dedups them. The hit path is
// one map read with no lock and no allocation; a miss (the pair's first
// frame, its first HA-framed frame, an ack for a route not yet built)
// fills the entry in under lmu and publishes a new map.
func (n *Node) resolve(from, streamName string, wantRecv bool) *inbound {
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
func (n *Node) newReceiver(from, streamName, key string) *ha.LinkReceiver {
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

// onOutputTrain is the engine's output hook: show each run to the Output
// hook and collect each routed output's tuples for the run loop to send.
func (n *Node) onOutputTrain(name string, ts []stream.Tuple) {
	if n.output != nil {
		n.output(name, ts)
	}
	if r := n.routes[name]; r != nil {
		r.run = append(r.run, ts...)
	}
}

// runEngine is the run loop's one step, called with mu held: run the
// engine until idle, then send each routed output's collected run as
// one train — one log append, one frame. Nothing waits for more: a run
// is whatever the work already in hand produced.
func (n *Node) runEngine() {
	n.eng.Run()
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
func (n *Node) handle(from string, m transport.Msg) {
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
