package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/stream"
)

// helloStream is the reserved logical stream used for the connection
// handshake (peer identity exchange).
const helloStream = "\x00hello"

// pingStream is the reserved logical stream for keepalive frames; they
// refresh the peer's read-idle timer and are never delivered upward.
const pingStream = "\x00ping"

// pongCtrl marks a keepalive reply; requests carry no Ctrl. Only
// requests are answered, so two peers never ping-pong forever.
var pongCtrl = []byte{1}

// maxFrame bounds a single frame to keep a malformed peer from forcing
// huge allocations.
const maxFrame = 16 << 20

// ioBatchBytes sizes both ends of a connection's socket I/O: a write pass
// stops adding queued frames to its write once it holds this much, and
// the read loop reads through a buffer this large. Nothing waits to fill
// it — a write carries whatever was queued when the writer came back for
// more — so it bounds memory and WFQ reordering latency, not delay.
const ioBatchBytes = 64 << 10

// Handler receives messages delivered by the TCP transport, one call per
// inbound frame, on the connection's read loop.
//
// The Msg is the connection's scratch, decoded into again for the next
// frame: its Tuples slice and Ctrl buffer are valid only during the call,
// and a handler that keeps either must copy it. The tuples' Vals arrays
// are not scratch: each frame's arrays are drawn from the stream pool,
// marked pool-owned, and handed to the handler, which either ingests the
// tuples into an engine (engine.IngestTrain takes the ownership over, and
// recycles each array when its tuple dies) or keeps them and leaves the
// arrays to the garbage collector. A handler must never do both with one
// tuple, nor ingest it twice.
type Handler func(from string, m Msg)

// TCP multiplexes all logical message streams to each peer onto a single
// TCP connection with a WFQ scheduler — the design §4.3 argues for over
// one-connection-per-stream (prohibitive connection counts, adverse
// interaction in the network, no weighted sharing). Supervised links
// (AddPeer) add the resilience layer on top: deadlines on every
// handshake, read, and write; reconnect with exponential backoff; and
// bounded buffering across the gaps.
type TCP struct {
	id      string
	handler Handler
	ln      net.Listener
	cfg     LinkConfig

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	conns   map[string]*Conn
	links   map[string]*Link
	pending map[net.Conn]struct{}         // accepted/dialed, hello not yet done
	dropped map[string]int64              // per-peer messages lost with no link to requeue to
	weights map[string]map[string]float64 // peer → stream → WFQ weight, applied to every connection
	closed  bool
	wg      sync.WaitGroup

	onLinkState   func(peer string, from, to LinkState)
	onEstablished func(peer string, reconnected bool)

	// journal receives a KindLinkState event for every supervised link
	// transition, independent of the callback hooks. Atomic so the hot
	// paths read it without taking t.mu; nil disables.
	journal atomic.Pointer[events.Journal]
}

// Conn is one multiplexed connection to a peer.
type Conn struct {
	peer     string
	nc       net.Conn
	t        *TCP
	outbound bool // we dialed it (tie-break input)
	donec    chan struct{}

	lastWrite atomic.Int64 // unixnano of last frame write (keepalive idle check)

	mu     sync.Mutex
	cond   *sync.Cond
	sched  *WFQ
	closed bool
	// writing is the write turn: one goroutine at a time — the write loop,
	// or a sender that found the link idle — is between taking its batch
	// and accounting for its write. batch is that batch, and it outlives
	// the turn when a sender's attempt came up short: a non-empty batch
	// with writing clear is an unwritten remainder, which the write loop
	// sends before anything else. frames, written and try belong to the
	// holder of the turn.
	writing bool
	batch   []Msg
	frames  []byte     // batch, framed and encoded
	written int        // prefix of frames already on the socket
	try     *tryWriter // nil: this connection is written by the write loop only

	BytesSent int64
	MsgsSent  int64
	Writes    int64 // socket writes; MsgsSent/Writes is the coalescing factor
	// InlineWrites counts the writes that finished a batch on the sending
	// goroutine; InlineWrites/Writes is the share that skipped the hand-off
	// to the write loop.
	InlineWrites int64
}

// ListenTCP starts a transport listening on addr (e.g. "127.0.0.1:0").
// The returned transport accepts inbound connections and can Dial
// outbound ones; all deliveries go to handler. An optional LinkConfig
// tunes deadlines and the per-peer supervisors (see AddPeer); omitted,
// conservative defaults apply.
func ListenTCP(id, addr string, handler Handler, cfg ...LinkConfig) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	var c LinkConfig
	if len(cfg) > 0 {
		c = cfg[0]
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCP{
		id: id, handler: handler, ln: ln, cfg: c.withDefaults(),
		ctx: ctx, cancel: cancel,
		conns:   map[string]*Conn{},
		links:   map[string]*Link{},
		pending: map[net.Conn]struct{}{},
		dropped: map[string]int64{},
		weights: map[string]map[string]float64{},
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// ID returns the transport's node identity.
func (t *TCP) ID() string { return t.id }

// Addr returns the listening address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

func (t *TCP) callbacks() (func(string, LinkState, LinkState), func(string, bool)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.onLinkState, t.onEstablished
}

// trackPending registers a pre-handshake connection so Close can tear it
// down; it reports false when the transport is already closed.
func (t *TCP) trackPending(nc net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.pending[nc] = struct{}{}
	return true
}

func (t *TCP) untrackPending(nc net.Conn) {
	t.mu.Lock()
	delete(t.pending, nc)
	t.mu.Unlock()
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go func(nc net.Conn) {
			defer t.wg.Done()
			// Inbound handshake: peer speaks first, then we answer. The
			// deadline plus pending tracking is what keeps a peer that
			// connects and never says hello from leaking this goroutine
			// and hanging Close in wg.Wait.
			if !t.trackPending(nc) {
				nc.Close()
				return
			}
			nc.SetDeadline(time.Now().Add(t.cfg.HandshakeTimeout))
			peer, err := readHello(nc)
			if err == nil {
				err = writeHello(nc, t.id)
			}
			if err != nil {
				t.untrackPending(nc)
				nc.Close()
				return
			}
			nc.SetDeadline(time.Time{})
			t.untrackPending(nc)
			t.startConn(peer, nc, false)
		}(nc)
	}
}

// Dial connects to a peer transport once and returns its node id. For a
// connection that should survive breakage, use AddPeer instead.
func (t *TCP) Dial(addr string) (string, error) {
	return t.dialPeer(addr)
}

// dialPeer performs one deadline-bounded connect + hello exchange and
// installs the resulting connection. Both Dial and link supervisors come
// through here.
func (t *TCP) dialPeer(addr string) (string, error) {
	d := net.Dialer{Timeout: t.cfg.HandshakeTimeout}
	nc, err := d.DialContext(t.ctx, "tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: %w", err)
	}
	if !t.trackPending(nc) {
		nc.Close()
		return "", fmt.Errorf("transport: closed")
	}
	nc.SetDeadline(time.Now().Add(t.cfg.HandshakeTimeout))
	if err := writeHello(nc, t.id); err != nil {
		t.untrackPending(nc)
		nc.Close()
		return "", err
	}
	peer, err := readHello(nc)
	if err != nil {
		t.untrackPending(nc)
		nc.Close()
		return "", err
	}
	nc.SetDeadline(time.Time{})
	t.untrackPending(nc)
	t.startConn(peer, nc, true)
	return peer, nil
}

// startConn installs a handshaken connection, resolving the
// simultaneous-dial race deterministically: when both nodes dial each
// other at once, both ends keep the connection dialed by the lexically
// smaller node id, so neither side is left holding a socket its peer has
// abandoned. Duplicates in the same direction (peer restarted and
// redialed) are replaced newest-wins, with the loser's queued messages
// drained onto the survivor.
func (t *TCP) startConn(peer string, nc net.Conn, outbound bool) {
	c := &Conn{peer: peer, nc: nc, t: t, outbound: outbound, sched: NewWFQ(),
		donec: make(chan struct{}), try: newTryWriter(nc)}
	c.cond = sync.NewCond(&c.mu)
	c.lastWrite.Store(time.Now().UnixNano())

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		nc.Close()
		return
	}
	for stream, w := range t.weights[peer] {
		c.sched.SetWeight(stream, w) // validated when it was stored
	}
	var orphans []Msg
	if old, ok := t.conns[peer]; ok && !old.isClosed() {
		preferOutbound := t.id < peer
		newPreferred := outbound == preferOutbound
		oldPreferred := old.outbound == preferOutbound
		if !newPreferred && oldPreferred {
			// The existing connection is the tie-break winner on both
			// ends; drop the newcomer.
			t.mu.Unlock()
			nc.Close()
			return
		}
		orphans, _ = old.shutdown()
	}
	t.conns[peer] = c
	l := t.links[peer]
	stateCB, estCB := t.onLinkState, t.onEstablished
	var notifies []func()
	if l != nil {
		notifies = append(notifies, l.attach(c, stateCB, estCB))
		if len(orphans) > 0 {
			// The superseded connection's backlog rides the replacement.
			notifies = append(notifies, l.detach(nil, orphans, stateCB))
		}
	} else if n := len(orphans); n > 0 {
		t.dropped[peer] += int64(n)
	}
	loops := 2
	if t.cfg.PingPeriod > 0 {
		loops = 3
	}
	t.wg.Add(loops)
	t.mu.Unlock()

	go func() {
		defer t.wg.Done()
		c.writeLoop()
	}()
	go func() {
		defer t.wg.Done()
		c.readLoop()
	}()
	if t.cfg.PingPeriod > 0 {
		go func() {
			defer t.wg.Done()
			c.pingLoop(t.cfg.PingPeriod)
		}()
	}
	for _, fn := range notifies {
		fn()
	}
}

// connDied reconciles the transport's view after a connection shuts
// down: the map entry is removed, the undelivered backlog is requeued to
// the peer's link (or counted dropped when there is none), and the
// link's supervisor is kicked awake to redial.
func (t *TCP) connDied(c *Conn, orphans []Msg) {
	t.mu.Lock()
	if t.conns[c.peer] == c {
		delete(t.conns, c.peer)
	}
	l := t.links[c.peer]
	var notify func()
	if l != nil {
		notify = l.detach(c, orphans, t.onLinkState)
		l.kickNow()
	} else if n := len(orphans); n > 0 {
		t.dropped[c.peer] += int64(n)
	}
	t.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// Send enqueues a message to a peer; the per-connection WFQ decides when
// it gets the wire. For supervised peers (AddPeer) the message is
// buffered across reconnects instead of failing while the link is
// degraded.
func (t *TCP) Send(peer string, m Msg) error {
	t.mu.Lock()
	l := t.links[peer]
	c := t.conns[peer]
	t.mu.Unlock()
	if l != nil {
		return l.send(m)
	}
	if c == nil {
		return fmt.Errorf("transport: no connection to %q", peer)
	}
	return c.send(m)
}

// SetWeight sets the WFQ weight of one logical stream to a peer —
// prescribed by QoS specifications or contractual obligations (§4.3). The
// weight belongs to the peer, not to the connection that happens to carry
// its traffic: it is applied to the current connection's scheduler, to
// every later one, and is accepted for a supervised peer (AddPeer) whose
// link is still connecting or degraded.
func (t *TCP) SetWeight(peer, stream string, weight float64) error {
	if weight <= 0 {
		return fmt.Errorf("transport: weight must be positive, got %g", weight)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.conns[peer]
	if c == nil && t.links[peer] == nil {
		return fmt.Errorf("transport: no connection to %q", peer)
	}
	if t.weights[peer] == nil {
		t.weights[peer] = map[string]float64{}
	}
	t.weights[peer][stream] = weight
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sched.SetWeight(stream, weight)
}

// Peers lists connected peer ids.
func (t *TCP) Peers() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.conns))
	for p := range t.conns {
		out = append(out, p)
	}
	return out
}

// Close shuts the listener, every connection (handshaken or not), and
// every link supervisor down, then waits for the transport's goroutines
// to exit. Handshake deadlines and the cancellable dial context bound the
// wait.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*Conn, 0, len(t.conns))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	links := make([]*Link, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	pending := make([]net.Conn, 0, len(t.pending))
	for nc := range t.pending {
		pending = append(pending, nc)
	}
	t.mu.Unlock()

	t.cancel()
	t.ln.Close()
	for _, l := range links {
		l.shutdownLink()
	}
	for _, nc := range pending {
		nc.Close()
	}
	for _, c := range conns {
		c.close()
	}
	t.wg.Wait()
	return nil
}

// send queues a message for the wire and never blocks. On a busy link
// that is all it does: the scheduler orders the backlog and the write loop
// sends it. A message that finds the link idle is first offered to
// sendIdle, which writes it on the caller's goroutine; a sender that knows
// it is about to send again (m.More) skips that, so the two can share a
// write behind the write loop.
func (c *Conn) send(m Msg) error {
	if !m.More && c.try != nil {
		if took, err := c.sendIdle(m); took || err != nil {
			return err
		}
	}
	size := EncodedSize(m)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("transport: connection to %q closed", c.peer)
	}
	if err := c.sched.Enqueue(m.Stream, size, m); err != nil {
		return err
	}
	c.cond.Signal()
	return nil
}

// sendIdle is the idle link's path. When the message is all there is —
// nothing queued, nobody writing, no remainder pending — there is nothing
// to order and nothing to coalesce with, so the scheduler and the hand-off
// to the write loop would only add a wake-up: the message becomes the
// batch and the sender takes the write turn for one non-blocking attempt.
// (An idle stream carries no credit or debt in the WFQ, so passing it by
// leaves the schedule of whatever queues later unchanged.) took is false
// when the link is busy and the message still needs queueing.
func (c *Conn) sendIdle(m Msg) (took bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, fmt.Errorf("transport: connection to %q closed", c.peer)
	}
	if c.sched.Len() > 0 || c.writing || len(c.batch) > 0 {
		return false, nil
	}
	c.batch = append(c.batch, m)
	c.writePass(true)
	if len(c.batch) > 0 || c.sched.Len() > 0 || c.closed {
		// The write loop has work: a remainder, what other senders queued
		// during the attempt, or a shutdown to notice.
		c.cond.Signal()
	}
	return true, nil
}

func (c *Conn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// shutdown latches the connection closed exactly once, draining the
// scheduler's undelivered backlog so it can be requeued instead of lost
// (the WFQ-discard bug). first is true for the caller that performed the
// shutdown; only that caller owns the orphans.
func (c *Conn) shutdown() (orphans []Msg, first bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false
	}
	c.closed = true
	for c.sched.Len() > 0 {
		m, _, ok := c.sched.Next()
		if !ok {
			break
		}
		if m.Stream != pingStream {
			orphans = append(orphans, m)
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.donec)
	c.nc.Close()
	return orphans, true
}

// close is the failure path (read error, chaos kill): shut down and let
// the transport requeue whatever was still queued.
func (c *Conn) close() { c.closeWith(nil) }

// closeWith is close for the write loop, whose failed write strands the
// batch it had already dequeued: those messages go back ahead of the
// queued backlog (they are older), so a supervised link requeues them and
// an unsupervised one counts them dropped. Some of the batch may have
// reached the peer before the failure; requeueing is at-least-once, and
// the HA link protocol's dedup makes it exactly-once. When another
// goroutine already shut the connection down, the in-flight batch follows
// the backlog it reported.
func (c *Conn) closeWith(inflight []Msg) {
	var orphans []Msg
	for _, m := range inflight {
		if m.Stream != pingStream {
			orphans = append(orphans, m)
		}
	}
	queued, first := c.shutdown()
	if !first && len(orphans) == 0 {
		return
	}
	c.t.connDied(c, append(orphans, queued...))
}

// writeLoop puts queued messages on the wire whenever a sender did not do
// so itself: a backlog, a message whose sender said more is coming, and
// whatever a sender's non-blocking attempt left behind. It is the only
// place a write blocks, times out, or takes the connection down.
func (c *Conn) writeLoop() {
	for {
		c.mu.Lock()
		for c.writing || (c.sched.Len() == 0 && len(c.batch) == 0 && !c.closed) {
			c.cond.Wait()
		}
		var err error
		if !c.closed {
			err = c.writePass(false)
		}
		dead := c.closed || err != nil
		var inflight []Msg
		if dead {
			// A failed write strands its batch; so does a shutdown that
			// caught a sender's attempt short. Either is conserved.
			inflight, c.batch = c.batch, nil
		}
		c.mu.Unlock()
		if dead {
			if err != nil || len(inflight) > 0 {
				c.closeWith(inflight)
			}
			return
		}
	}
}

// writePass is one turn at the socket, the same for both writers: take
// what the scheduler holds right now, in scheduler order, up to
// ioBatchBytes — unless the batch is already there: the one message an
// idle link's sender brought, or the remainder a sender's attempt left,
// which goes first — frame it into one buffer, issue one write, account
// for it. An idle link writes each frame the moment it is sent, and a
// backlog that built up behind a slow write leaves in as few writes as its
// bytes allow.
//
// The write loop's turn (inline false) blocks until the buffer is written
// or the write fails, under the write timeout; its error means the
// connection is dead and c.batch is what was in flight. A sender's turn
// (inline true) never blocks and never fails: what the socket did not take
// at once stays in c.batch for the write loop. Called and returns with
// c.mu held; the lock is released around the encode and the write.
func (c *Conn) writePass(inline bool) error {
	c.writing = true
	if len(c.batch) == 0 {
		for queued := 0; queued < ioBatchBytes && c.sched.Len() > 0; {
			m, size, _ := c.sched.Next()
			c.batch = append(c.batch, m)
			queued += size
		}
	}
	c.mu.Unlock()

	if len(c.frames) == 0 { // a new batch, not a remainder
		c.written = 0
		for _, m := range c.batch {
			at := len(c.frames)
			c.frames = binary.BigEndian.AppendUint32(c.frames, 0) // length placeholder
			c.frames = Encode(c.frames, m)
			binary.BigEndian.PutUint32(c.frames[at:], uint32(len(c.frames)-at-4))
		}
	}
	var n int
	var err error
	if inline {
		n = c.try.try(c.frames[c.written:])
	} else {
		// The deadline is cleared again afterwards: an expired one would
		// fail every later non-blocking attempt before it reached the socket.
		c.nc.SetWriteDeadline(time.Now().Add(c.t.cfg.WriteTimeout))
		n, err = c.nc.Write(c.frames[c.written:])
		if err == nil {
			c.nc.SetWriteDeadline(time.Time{})
		}
	}
	c.written += n
	done := c.written == len(c.frames)
	if n > 0 {
		c.lastWrite.Store(time.Now().UnixNano())
	}

	c.mu.Lock()
	c.writing = false
	if n > 0 {
		c.BytesSent += int64(n)
		c.Writes++
	}
	if done {
		c.MsgsSent += int64(len(c.batch))
		if inline {
			c.InlineWrites++
		}
		clear(c.batch) // do not pin the written tuples until the next pass
		c.batch, c.frames = c.batch[:0], c.frames[:0]
	}
	return err
}

func (c *Conn) readLoop() {
	idle := c.t.cfg.ReadIdleTimeout
	// One frame buffer, one Msg and one draw slice per connection, reused
	// across frames: decodeFrame copies everything out of the body, so
	// nothing the handler retains can alias it, and draws each frame's Vals
	// arrays from the stream pool for the handler to take. The socket is
	// read through a buffer, so one read(2) brings in every frame the
	// peer's write carried.
	var (
		frame []byte
		m     Msg
		draw  [][]stream.Value
	)
	br := bufio.NewReaderSize(c.nc, ioBatchBytes)
	for {
		if idle > 0 {
			c.nc.SetReadDeadline(time.Now().Add(idle))
		}
		body, err := readFrame(br, &frame)
		if err == nil {
			_, err = decodeFrame(&m, body, &draw)
		}
		if err != nil {
			c.close()
			return
		}
		m.More = frameBuffered(br)
		if m.Stream == pingStream || m.Stream == helloStream {
			// A ping request (empty Ctrl) is answered with a pong so the
			// sender's read-idle timer sees traffic even when this side
			// pings on a slower period (or not at all) — otherwise two
			// peers with asymmetric ping configs flap a healthy idle link.
			// Pongs are never answered, so no storm.
			if m.Stream == pingStream && len(m.Ctrl) == 0 {
				c.send(Msg{Stream: pingStream, Kind: KindControl, Ctrl: pongCtrl})
			}
			continue // keepalive / stray handshake frames stay internal
		}
		if c.t.handler != nil {
			c.t.handler(c.peer, m)
		}
		m.Tuples = stream.PoisonScratch(m.Tuples) // the handler's loan ends here
	}
}

// frameBuffered reports whether the reader already holds a whole further
// frame — length prefix and body — so that delivering it will need no
// read. A partial frame is not more input in hand: its rest may be a
// round trip away.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4) // buffered, so it cannot fail or read
	return uint64(br.Buffered()) >= 4+uint64(binary.BigEndian.Uint32(hdr))
}

// pingLoop keeps a write-idle connection warm so the peer's read-idle
// timer only fires when the path is actually dead (blackhole detection).
func (c *Conn) pingLoop(period time.Duration) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-c.donec:
			return
		case <-tick.C:
			if time.Since(time.Unix(0, c.lastWrite.Load())) < period {
				continue
			}
			if c.send(Msg{Stream: pingStream, Kind: KindControl}) != nil {
				return
			}
		}
	}
}

// readFrame reads one length-prefixed frame and returns its body, held in
// *scratch, which it grows as needed and reuses across calls: the body is
// valid until the next call. The length prefix is read into the scratch
// too, since a local array would escape through the io.Reader.
func readFrame(r io.Reader, scratch *[]byte) ([]byte, error) {
	buf := *scratch
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
		*scratch = buf
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
		*scratch = buf
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

func writeHello(nc net.Conn, id string) error {
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, 0)
	buf = Encode(buf, Msg{Stream: helloStream, Kind: KindControl, Ctrl: []byte(id)})
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	_, err := nc.Write(buf)
	return err
}

func readHello(nc net.Conn) (string, error) {
	var scratch []byte
	body, err := readFrame(nc, &scratch)
	if err != nil {
		return "", err
	}
	m, _, err := Decode(body)
	if err != nil {
		return "", err
	}
	if m.Stream != helloStream || len(m.Ctrl) == 0 {
		return "", fmt.Errorf("transport: bad handshake")
	}
	return string(m.Ctrl), nil
}
