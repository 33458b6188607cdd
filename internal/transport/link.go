package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/events"
)

// LinkState is the supervised peer-link state machine. A configured peer
// (AddPeer) moves connecting → established on the first successful
// handshake, established → degraded when the connection dies, degraded →
// established when the redial lands, and → down only when the transport
// closes or the dial budget is exhausted. The overlay of §4.3 assumes
// long-lived multiplexed connections; this layer is what makes that
// assumption true on a network that breaks them.
type LinkState int32

const (
	// LinkConnecting means the first handshake has not completed yet.
	LinkConnecting LinkState = iota
	// LinkEstablished means a live multiplexed connection is attached.
	LinkEstablished
	// LinkDegraded means an established connection was lost: outbound
	// messages buffer while the supervisor redials with backoff.
	LinkDegraded
	// LinkDown means the link is permanently closed (transport shutdown
	// or MaxDialAttempts exhausted); sends fail immediately.
	LinkDown
)

// String names the state for logs and telemetry.
func (s LinkState) String() string {
	switch s {
	case LinkConnecting:
		return "connecting"
	case LinkEstablished:
		return "established"
	case LinkDegraded:
		return "degraded"
	case LinkDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// LinkConfig tunes the transport's deadlines and the per-peer supervisor.
// The zero value selects conservative defaults; ping-based dead-link
// detection is off unless PingPeriod is set.
type LinkConfig struct {
	// HandshakeTimeout bounds the hello exchange in both directions: an
	// accepted connection that never says hello is torn down after this
	// long, and an outbound dial (TCP connect + hello round trip) gives
	// up after it. Default 3s.
	HandshakeTimeout time.Duration
	// WriteTimeout bounds a single socket write (one or more frames); a
	// peer that stops draining its socket degrades the link instead of
	// wedging the write loop forever. Default 10s.
	WriteTimeout time.Duration
	// PingPeriod, when positive, sends a tiny keepalive frame on every
	// connection that has been write-idle for the period, so a silent
	// (blackholed) link is detected by the peer's read-idle timer.
	// Default 0 (off).
	PingPeriod time.Duration
	// ReadIdleTimeout, when positive, closes a connection that delivers
	// no frame for the duration. Only enable it when the peers ping
	// (both sides of a supervised overlay normally do); it defaults to
	// 4×PingPeriod when pings are on and stays off otherwise.
	ReadIdleTimeout time.Duration
	// BackoffMin/BackoffMax bound the supervisor's exponential redial
	// backoff; each sleep is jittered to ±50% so a restarted hub is not
	// hit by every peer in the same instant. Defaults 25ms / 2s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// MaxDialAttempts caps consecutive failed dials before the link goes
	// down. 0 (the default) retries forever.
	MaxDialAttempts int
	// BufferLimit bounds the messages a link buffers while no connection
	// is attached; beyond it Send fails and the drop is counted. Default
	// 1024.
	BufferLimit int
}

func (c LinkConfig) withDefaults() LinkConfig {
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 3 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.BufferLimit <= 0 {
		c.BufferLimit = 1024
	}
	if c.PingPeriod > 0 && c.ReadIdleTimeout <= 0 {
		c.ReadIdleTimeout = 4 * c.PingPeriod
	}
	return c
}

// LinkInfo is one peer link's observable state, served by the telemetry
// /links endpoint and rendered by dspstat.
type LinkInfo struct {
	Peer       string `json:"peer"`
	Addr       string `json:"addr,omitempty"`
	State      string `json:"state"`
	Supervised bool   `json:"supervised"`
	Dials      int64  `json:"dials"`
	Reconnects int64  `json:"reconnects"`
	Buffered   int    `json:"buffered"`
	Requeued   int64  `json:"requeued"`
	Dropped    int64  `json:"dropped"`
	MsgsSent   int64  `json:"msgs_sent"`
	BytesSent  int64  `json:"bytes_sent"`
	// Writes counts socket writes on the current connection; msgs_sent /
	// writes is how many frames each write carried.
	Writes int64 `json:"writes"`
	// InlineWrites counts the writes that finished on the sending
	// goroutine, with no hand-off to the write loop; inline_writes / writes
	// is the share of writes that found the link idle.
	InlineWrites int64 `json:"inline_writes"`
}

// Link supervises the transport's relationship with one configured peer:
// it owns the redial loop, the reconnect buffer, and the state machine.
// Locking order across the transport is t.mu → l.mu → c.mu; no method
// here ever takes them in another order.
type Link struct {
	t    *TCP
	peer string

	mu            sync.Mutex
	addr          string
	state         LinkState
	conn          *Conn
	buf           []Msg
	everConnected bool
	supervising   bool
	closed        bool

	dials      int64
	reconnects int64
	requeued   int64
	dropped    int64

	kick chan struct{}
}

// AddPeer registers addr as the supervised home of peer: the transport
// dials it with exponential backoff and jitter, re-dials whenever the
// connection dies, and buffers a bounded number of outbound messages
// across the gaps. Calling AddPeer again for the same peer just updates
// the address. The hello exchange still decides identity — a connection
// accepted from the peer satisfies the link exactly like a dialed one.
func (t *TCP) AddPeer(peer, addr string) error {
	if peer == t.id {
		return fmt.Errorf("transport: cannot peer with self %q", peer)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("transport: closed")
	}
	if l, ok := t.links[peer]; ok {
		l.mu.Lock()
		l.addr = addr
		l.mu.Unlock()
		t.mu.Unlock()
		return nil
	}
	l := &Link{t: t, peer: peer, addr: addr, kick: make(chan struct{}, 1)}
	if c, ok := t.conns[peer]; ok && !c.isClosed() {
		l.conn = c
		l.state = LinkEstablished
		l.everConnected = true
	}
	t.links[peer] = l
	l.ensureSupervisorLocked()
	t.mu.Unlock()
	return nil
}

// LinkInfos snapshots every peer relationship: supervised links plus bare
// (Dial-created) connections, sorted by peer id.
func (t *TCP) LinkInfos() []LinkInfo {
	t.mu.Lock()
	links := make([]*Link, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	bare := make([]*Conn, 0)
	for p, c := range t.conns {
		if _, ok := t.links[p]; !ok {
			bare = append(bare, c)
		}
	}
	dropped := make(map[string]int64, len(t.dropped))
	for p, n := range t.dropped {
		dropped[p] = n
	}
	t.mu.Unlock()

	out := make([]LinkInfo, 0, len(links)+len(bare))
	for _, l := range links {
		out = append(out, l.info(dropped[l.peer]))
	}
	for _, c := range bare {
		c.mu.Lock()
		out = append(out, LinkInfo{
			Peer: c.peer, State: LinkEstablished.String(),
			Dropped: dropped[c.peer], MsgsSent: c.MsgsSent, BytesSent: c.BytesSent,
			Writes: c.Writes, InlineWrites: c.InlineWrites,
		})
		c.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// LinkState reports the supervised link state for peer; ok is false when
// the peer has no supervised link.
func (t *TCP) LinkState(peer string) (LinkState, bool) {
	t.mu.Lock()
	l, ok := t.links[peer]
	t.mu.Unlock()
	if !ok {
		return LinkDown, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state, true
}

// Dropped returns how many outbound messages to peer were lost for good:
// drained from a dead unsupervised connection, or rejected by a full
// reconnect buffer.
func (t *TCP) Dropped(peer string) int64 {
	t.mu.Lock()
	n := t.dropped[peer]
	l := t.links[peer]
	t.mu.Unlock()
	if l != nil {
		l.mu.Lock()
		n += l.dropped
		l.mu.Unlock()
	}
	return n
}

// SetOnLinkState installs a callback fired on every supervised link state
// transition. The callback runs outside the transport's locks; under
// heavy churn transitions may be reported slightly out of order.
func (t *TCP) SetOnLinkState(fn func(peer string, from, to LinkState)) {
	t.mu.Lock()
	t.onLinkState = fn
	t.mu.Unlock()
}

// SetJournal directs a structured event into the given journal on every
// supervised link state transition (KindLinkState: Subject is the peer,
// Detail the new state, V1 the numeric prior state). Unlike the
// SetOnLinkState hook this is pure recording — no scheduling, no
// locks held — so the control plane's flight recorder sees link churn
// even when nothing subscribes to it. A nil journal disables.
func (t *TCP) SetJournal(j *events.Journal) { t.journal.Store(j) }

// journalLink records one link transition; callers have already
// established from != to.
func (t *TCP) journalLink(peer string, from, to LinkState) {
	if j := t.journal.Load(); j != nil {
		j.Append(events.Event{
			Time: time.Now().UnixNano(), Kind: events.KindLinkState,
			Subject: peer, Detail: to.String(), V1: float64(from),
		})
	}
}

// SetOnEstablished installs a callback fired after a connection to peer
// attaches and the reconnect buffer has been flushed onto it; reconnected
// is true when the link had been established before. The HA layer hooks
// this to replay unacknowledged output (ha.LinkSender.Resync).
func (t *TCP) SetOnEstablished(fn func(peer string, reconnected bool)) {
	t.mu.Lock()
	t.onEstablished = fn
	t.mu.Unlock()
}

// KillConn closes the current connection to peer without touching its
// supervised link — the chaos harness's conn-kill injector. The link (if
// any) degrades and reconnects; an unsupervised connection just dies. It
// reports whether a connection existed.
func (t *TCP) KillConn(peer string) bool {
	t.mu.Lock()
	c := t.conns[peer]
	t.mu.Unlock()
	if c == nil {
		return false
	}
	c.close()
	return true
}

// info renders the link's LinkInfo; extraDropped is the transport-level
// per-peer drop count accumulated outside the link.
func (l *Link) info(extraDropped int64) LinkInfo {
	l.mu.Lock()
	in := LinkInfo{
		Peer: l.peer, Addr: l.addr, State: l.state.String(), Supervised: true,
		Dials: l.dials, Reconnects: l.reconnects, Buffered: len(l.buf),
		Requeued: l.requeued, Dropped: l.dropped + extraDropped,
	}
	c := l.conn
	l.mu.Unlock()
	if c != nil {
		c.mu.Lock()
		in.MsgsSent, in.BytesSent, in.Writes, in.InlineWrites = c.MsgsSent, c.BytesSent, c.Writes, c.InlineWrites
		c.mu.Unlock()
	}
	return in
}

// send routes one message through the link: onto the live connection when
// one is attached, into the bounded reconnect buffer otherwise.
func (l *Link) send(m Msg) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("transport: link to %q is down", l.peer)
	}
	if l.conn != nil {
		if err := l.conn.send(m); err == nil {
			return nil
		}
		// The connection died between lookup and enqueue; fall through to
		// the buffer — detach will requeue whatever it had queued.
	}
	if len(l.buf) >= l.t.cfg.BufferLimit {
		l.dropped++
		return fmt.Errorf("transport: link to %q: reconnect buffer full (%d messages)",
			l.peer, len(l.buf))
	}
	l.buf = append(l.buf, m)
	return nil
}

// attach hands a fresh connection to the link and flushes the reconnect
// buffer onto it, in order, ahead of new sends. Caller holds t.mu and
// passes the callbacks it read under that lock; the returned notify
// fires them and must be called after all locks are released.
func (l *Link) attach(c *Conn, stateCB func(string, LinkState, LinkState), estCB func(string, bool)) (notify func()) {
	l.mu.Lock()
	from := l.state
	l.conn = c
	l.state = LinkEstablished
	reconnected := l.everConnected
	l.everConnected = true
	if reconnected {
		l.reconnects++
	}
	buffered := l.buf
	l.buf = nil
	for i, m := range buffered {
		m.More = i+1 < len(buffered) // one flush, not a write per message
		if err := c.send(m); err != nil {
			// Died mid-flush: keep the rest buffered for the next attach.
			l.buf = append(l.buf, buffered[i:]...)
			break
		}
	}
	l.mu.Unlock()

	peer := l.peer
	return func() {
		if from != LinkEstablished {
			l.t.journalLink(peer, from, LinkEstablished)
		}
		if stateCB != nil && from != LinkEstablished {
			stateCB(peer, from, LinkEstablished)
		}
		if estCB != nil {
			estCB(peer, reconnected)
		}
	}
}

// detach reacts to a connection death: the conn's undelivered scheduler
// backlog is requeued (to the replacement connection when a tie-break
// already installed one, else to the front of the reconnect buffer,
// oldest first) and the state degrades. Caller holds t.mu and passes the
// state callback it read under that lock.
func (l *Link) detach(c *Conn, orphans []Msg, stateCB func(string, LinkState, LinkState)) (notify func()) {
	l.mu.Lock()
	from := l.state
	if l.conn == c {
		l.conn = nil
		if l.state == LinkEstablished {
			l.state = LinkDegraded
		}
	}
	if l.conn != nil {
		// A replacement connection is already attached (simultaneous-dial
		// replacement): move the backlog straight onto it.
		for i, m := range orphans {
			m.More = i+1 < len(orphans)
			if l.conn.send(m) != nil {
				l.dropped++
			} else {
				l.requeued++
			}
		}
	} else if len(orphans) > 0 {
		room := l.t.cfg.BufferLimit - len(l.buf)
		if room < 0 {
			room = 0
		}
		kept := orphans
		if len(kept) > room {
			l.dropped += int64(len(kept) - room)
			kept = kept[:room]
		}
		l.requeued += int64(len(kept))
		l.buf = append(append([]Msg(nil), kept...), l.buf...)
	}
	to := l.state
	l.mu.Unlock()

	peer := l.peer
	return func() {
		if from != to {
			l.t.journalLink(peer, from, to)
		}
		if stateCB != nil && from != to {
			stateCB(peer, from, to)
		}
	}
}

// ensureSupervisorLocked spawns the redial supervisor if none is running.
// Caller holds t.mu (the closed check and wg.Add must be atomic with
// respect to Close).
func (l *Link) ensureSupervisorLocked() {
	if l.t.closed {
		return
	}
	l.mu.Lock()
	start := !l.supervising && !l.closed
	if start {
		l.supervising = true
	}
	l.mu.Unlock()
	if start {
		l.t.wg.Add(1)
		go l.supervise()
	}
}

// kickNow wakes the supervisor without blocking.
func (l *Link) kickNow() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// shutdownLink marks the link permanently down (transport Close).
func (l *Link) shutdownLink() {
	l.setState(LinkDown, true)
	l.kickNow()
}

// setState transitions the state machine and fires the callback; close
// additionally latches the link shut and discards the buffer.
func (l *Link) setState(to LinkState, close bool) {
	l.mu.Lock()
	from := l.state
	if close {
		l.closed = true
		l.dropped += int64(len(l.buf))
		l.buf = nil
	}
	if from == to {
		l.mu.Unlock()
		return
	}
	l.state = to
	l.mu.Unlock()
	l.t.journalLink(l.peer, from, to)
	if cb, _ := l.t.callbacks(); cb != nil {
		cb(l.peer, from, to)
	}
}

// supervise is the link's redial loop: while no connection is attached it
// dials with exponential backoff and ±50% jitter; while one is attached
// it sleeps until kicked by the connection's death.
func (l *Link) supervise() {
	defer func() {
		l.mu.Lock()
		l.supervising = false
		l.mu.Unlock()
		l.t.wg.Done()
	}()
	cfg := l.t.cfg
	backoff := cfg.BackoffMin
	attempts := 0
	for {
		select {
		case <-l.t.ctx.Done():
			l.setState(LinkDown, true)
			return
		default:
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		if l.conn != nil {
			l.mu.Unlock()
			backoff, attempts = cfg.BackoffMin, 0
			select {
			case <-l.kick:
			case <-l.t.ctx.Done():
			}
			continue
		}
		if l.state == LinkEstablished {
			// Raced a detach that hasn't transitioned yet; normalize.
			l.state = LinkDegraded
		}
		addr := l.addr
		l.dials++
		l.mu.Unlock()

		peer, err := l.t.dialPeer(addr)
		if err == nil && peer == l.peer {
			backoff, attempts = cfg.BackoffMin, 0
			continue // startConn attached the new connection
		}
		if err == nil {
			// A different node answered; the connection was installed under
			// its real identity, but this link is still unsatisfied.
			err = fmt.Errorf("transport: peer at %s identified as %q, want %q",
				addr, peer, l.peer)
		}
		_ = err
		attempts++
		if cfg.MaxDialAttempts > 0 && attempts >= cfg.MaxDialAttempts {
			l.setState(LinkDown, true)
			return
		}
		select {
		case <-time.After(jitter(backoff)):
		case <-l.kick:
		case <-l.t.ctx.Done():
		}
		backoff *= 2
		if backoff > cfg.BackoffMax {
			backoff = cfg.BackoffMax
		}
	}
}

// jitter spreads d to [0.5d, 1.5d) so reconnect storms decorrelate.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}
