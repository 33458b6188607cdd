package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stream"
)

// rawPeer is a peer the test drives by hand: it listens, accepts one
// connection, answers the hello as id, and from then on reads and writes
// only what the test tells it to — real loopback sockets, so the
// transport's non-blocking attempt has a descriptor to write to.
type rawPeer struct {
	ln   net.Listener
	conn chan net.Conn
}

func newRawPeer(t *testing.T, id string) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{ln: ln, conn: make(chan net.Conn, 1)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		if _, err := readHello(nc); err == nil {
			err = writeHello(nc, id)
		}
		if err != nil {
			nc.Close()
			return
		}
		p.conn <- nc
	}()
	return p
}

func (p *rawPeer) addr() string { return p.ln.Addr().String() }

func (p *rawPeer) accepted(t *testing.T) net.Conn {
	t.Helper()
	select {
	case nc := <-p.conn:
		t.Cleanup(func() { nc.Close() })
		return nc
	case <-time.After(5 * time.Second):
		t.Fatal("raw peer: no connection")
		return nil
	}
}

// dialRaw connects to a transport by hand and completes the hello as id.
func dialRaw(t *testing.T, tr *TCP, id string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := writeHello(nc, id); err != nil {
		t.Fatal(err)
	}
	if _, err := readHello(nc); err != nil {
		t.Fatal(err)
	}
	return nc
}

func frameOf(m Msg) []byte {
	b := binary.BigEndian.AppendUint32(nil, 0)
	b = Encode(b, m)
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

func connOf(t *testing.T, tr *TCP, peer string) *Conn {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr.mu.Lock()
		c := tr.conns[peer]
		tr.mu.Unlock()
		if c != nil {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("no connection to %s", peer)
		}
		time.Sleep(time.Millisecond)
	}
}

// counters reads a connection's write counters and whether anything is
// still on its way to the socket.
func counters(c *Conn) (writes, inline, msgs int64, pending bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Writes, c.InlineWrites, c.MsgsSent, c.writing || len(c.batch) > 0 || c.sched.Len() > 0
}

// TestInlineLoneSend: a Send that finds an established link idle has
// written its frame by the time it returns — on the caller's goroutine,
// with no hand-off — and the peer decodes exactly that frame.
func TestInlineLoneSend(t *testing.T) {
	leakGuard(t)
	a, _, _, sb := pair(t)
	m := dataMsg("s", 7, 8, 9)
	m.BaseSeq, m.Ctrl = 41, []byte("ctl")
	if err := a.Send("nodeB", m); err != nil {
		t.Fatal(err)
	}
	info := linkInfo(t, a, "nodeB")
	if info.Writes != 1 || info.InlineWrites != 1 || info.MsgsSent != 1 ||
		info.BytesSent != int64(4+EncodedSize(m)) {
		t.Fatalf("when Send returned: writes %d inline %d msgs %d bytes %d, want 1 / 1 / 1 / %d",
			info.Writes, info.InlineWrites, info.MsgsSent, info.BytesSent, 4+EncodedSize(m))
	}
	sb.waitFor(t, 1)
	sb.mu.Lock()
	got := sb.msgs[0]
	sb.mu.Unlock()
	if got.More {
		t.Error("a lone frame was delivered with More set")
	}
	if !bytes.Equal(frameOf(got), frameOf(m)) {
		t.Errorf("peer decoded %+v, sent %+v", got, m)
	}
}

// TestInlineAfterWriteDeadlinePassed: the write loop bounds its blocking
// write with a deadline; once that write is done the deadline must not
// linger, or every later non-blocking attempt would be refused as timed
// out and the link would quietly lose its idle path.
func TestInlineAfterWriteDeadlinePassed(t *testing.T) {
	leakGuard(t)
	sb := &sink{}
	a, err := ListenTCP("nodeA", "127.0.0.1:0", nil, LinkConfig{WriteTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := ListenTCP("nodeB", "127.0.0.1:0", sb.handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if _, err := a.Dial(b.Addr()); err != nil {
		t.Fatal(err)
	}
	queued := dataMsg("s", 1)
	queued.More = true // through the write loop, which sets the deadline
	if err := a.Send("nodeB", queued); err != nil {
		t.Fatal(err)
	}
	sb.waitFor(t, 1)
	time.Sleep(60 * time.Millisecond)
	if err := a.Send("nodeB", dataMsg("s", 2)); err != nil {
		t.Fatal(err)
	}
	if info := linkInfo(t, a, "nodeB"); info.InlineWrites != 1 || info.Writes != 2 {
		t.Fatalf("after the write timeout elapsed: writes %d inline %d, want 2 / 1", info.Writes, info.InlineWrites)
	}
	sb.waitFor(t, 2)
}

// TestInlineSkippedWhenMore: a message that says more is coming is never
// written by its sender; it takes the queue and the write loop.
func TestInlineSkippedWhenMore(t *testing.T) {
	leakGuard(t)
	a, _, _, sb := pair(t)
	for i := 0; i < 20; i++ {
		m := dataMsg("s", int64(i))
		m.More = true
		if err := a.Send("nodeB", m); err != nil {
			t.Fatal(err)
		}
	}
	sb.waitFor(t, 20)
	if info := linkInfo(t, a, "nodeB"); info.InlineWrites != 0 || info.MsgsSent != 20 {
		t.Fatalf("20 messages with More: inline writes %d msgs %d, want 0 / 20", info.InlineWrites, info.MsgsSent)
	}
}

// wedge connects a to a raw peer that does not read and sends on stream
// "fill" until a sender's non-blocking attempt comes up short, which
// leaves the write loop blocked on the remainder. It returns the peer's
// end of the socket and the frames sent, in send order.
func wedge(t *testing.T, a *TCP) (peer net.Conn, c *Conn, sent [][]byte) {
	t.Helper()
	rp := newRawPeer(t, "raw")
	if _, err := a.Dial(rp.addr()); err != nil {
		t.Fatal(err)
	}
	peer = rp.accepted(t)
	c = connOf(t, a, "raw")
	pad := string(bytes.Repeat([]byte{'x'}, 32<<10))
	for i := 0; ; i++ {
		if i > 4096 {
			t.Fatal("128 MiB into a peer that does not read and the socket still takes more")
		}
		m := Msg{Stream: "fill", Kind: KindData, BaseSeq: uint64(i),
			Tuples: []stream.Tuple{stream.NewTuple(stream.Int(int64(i)), stream.String(pad))}}
		start := time.Now()
		if err := a.Send("raw", m); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Send %d took %v against a peer that does not read", i, d)
		}
		sent = append(sent, frameOf(m))
		if _, _, _, pending := counters(c); !pending {
			continue
		}
		// The kernel may still be moving bytes from this socket's send
		// buffer to the peer's receive buffer, which would let the write
		// loop finish; the link is wedged once it stays pending.
		time.Sleep(20 * time.Millisecond)
		if _, _, _, pending := counters(c); pending {
			return peer, c, sent
		}
	}
}

// TestInlineNeverBlocksNeverReorders: against a peer that does not read,
// every Send returns promptly — the attempt that finds the socket full
// leaves its remainder to the write loop, later ones queue behind it —
// and once the peer reads, the byte stream is the frames in send order:
// the remainder first, then the backlog, nothing torn and nothing twice.
func TestInlineNeverBlocksNeverReorders(t *testing.T) {
	leakGuard(t)
	a, err := ListenTCP("nodeA", "127.0.0.1:0", nil, LinkConfig{WriteTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	peer, c, sent := wedge(t, a)
	_, inlineBefore, _, _ := counters(c)
	if inlineBefore == 0 {
		t.Fatal("no Send was written inline before the socket filled")
	}
	for i := 0; i < 50; i++ {
		m := dataMsg("fill", int64(-i))
		start := time.Now()
		if err := a.Send("raw", m); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("queued Send %d took %v", i, d)
		}
		sent = append(sent, frameOf(m))
	}
	if _, inline, _, _ := counters(c); inline != inlineBefore {
		t.Errorf("inline writes went %d -> %d while the write loop held the socket", inlineBefore, inline)
	}

	want := bytes.Join(sent, nil)
	got := make([]byte, len(want))
	peer.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatalf("reading %d B back: %v", len(want), err)
	}
	if !bytes.Equal(got, want) {
		at := 0
		for at < len(got) && got[at] == want[at] {
			at++
		}
		t.Fatalf("byte stream differs from the frames in send order at offset %d of %d", at, len(want))
	}
	_, _, msgs, pending := counters(c)
	for deadline := time.Now().Add(5 * time.Second); pending && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		_, _, msgs, pending = counters(c)
	}
	if pending || msgs != int64(len(sent)) {
		t.Errorf("after the drain: %d messages accounted, pending %v; want %d, false", msgs, pending, len(sent))
	}
}

// TestInlineBusyLinkKeepsSchedulerOrder is the write-coalescing order
// test on a real connection: behind a blocked write the scheduler decides,
// so a heavily weighted stream queued last still leaves first, and none of
// the queued sends is written by its sender.
func TestInlineBusyLinkKeepsSchedulerOrder(t *testing.T) {
	leakGuard(t)
	a, err := ListenTCP("nodeA", "127.0.0.1:0", nil, LinkConfig{WriteTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	peer, c, sent := wedge(t, a)
	if err := a.SetWeight("raw", "gold", 1e4); err != nil {
		t.Fatal(err)
	}
	_, inlineBefore, _, _ := counters(c)
	const nBase, nGold = 200, 100
	var want []string
	for i := 0; i < nBase+nGold; i++ {
		s := "base"
		if i >= nBase {
			s = "gold"
		}
		m := dataMsg(s, int64(i))
		if err := a.Send("raw", m); err != nil {
			t.Fatal(err)
		}
		want = append(want, tag(m))
	}
	want = append(want[nBase:], want[:nBase]...)
	if _, inline, _, _ := counters(c); inline != inlineBefore {
		t.Errorf("a Send that found the link busy was written inline (%d -> %d)", inlineBefore, inline)
	}

	peer.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.CopyN(io.Discard, peer, int64(len(bytes.Join(sent, nil)))); err != nil {
		t.Fatal(err)
	}
	var got []string
	var scratch []byte
	for len(got) < len(want) {
		m, err := readMsg(peer, &scratch)
		if err != nil {
			t.Fatalf("after %d of %d queued frames: %v", len(got), len(want), err)
		}
		got = append(got, tag(m))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wire order differs from scheduler order:\n got %v…\nwant %v…", got[:8], want[:8])
	}
}

// TestReadLoopMore: the read loop marks a delivered message More exactly
// when a complete further frame is already in its buffer — all but the
// last of the frames one write carried — and not when only part of the
// next frame has arrived, whether or not that part includes its length.
func TestReadLoopMore(t *testing.T) {
	leakGuard(t)
	type seen struct {
		tag  string
		more bool
	}
	got := make(chan seen, 16)
	hold := make(chan struct{})
	b, err := ListenTCP("nodeB", "127.0.0.1:0", func(_ string, m Msg) {
		got <- seen{tag(m), m.More}
		<-hold
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	t.Cleanup(func() { close(hold) }) // runs first: frees a handler a failed test left waiting
	nc := dialRaw(t, b, "raw")
	next := func() seen {
		t.Helper()
		select {
		case s := <-got:
			return s
		case <-time.After(5 * time.Second):
			t.Fatal("frame not delivered")
			return seen{}
		}
	}

	const k = 5
	var burst []byte
	for i := 0; i < k; i++ {
		burst = append(burst, frameOf(dataMsg("s", int64(i)))...)
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		want := seen{fmt.Sprintf("s:%d", i), i < k-1}
		if s := next(); s != want {
			t.Errorf("frame %d of one write: delivered %+v, want %+v", i, s, want)
		}
		hold <- struct{}{}
	}

	for i, split := range []int{3, 6} {
		first, second := frameOf(dataMsg("p", int64(2*i))), frameOf(dataMsg("p", int64(2*i+1)))
		if _, err := nc.Write(append(append([]byte(nil), first...), second[:split]...)); err != nil {
			t.Fatal(err)
		}
		if s := next(); s.more {
			t.Errorf("frame followed by %d bytes of the next one was delivered with More", split)
		}
		// The rest arrives only after the handler has returned.
		hold <- struct{}{}
		if _, err := nc.Write(second[split:]); err != nil {
			t.Fatal(err)
		}
		if s := next(); s.more || s.tag != fmt.Sprintf("p:%d", 2*i+1) {
			t.Errorf("completed frame delivered as %+v", s)
		}
		hold <- struct{}{}
	}
}

// TestInlineKillConnConservation races KillConn against senders that are
// writing inline on a supervised link. The peer reads to end of stream, so
// everything written before the kill is delivered; the link cannot redial,
// so everything else must be sitting in its reconnect buffer. Nothing
// vanishes: each accepted message is delivered or buffered (or counted
// dropped), a stream's delivered messages are in send order, and the
// write loop — which may find the connection shut under a sender's
// attempt — exits.
func TestInlineKillConnConservation(t *testing.T) {
	for round := 0; round < 8; round++ {
		t.Run(fmt.Sprint(round), func(t *testing.T) { killConnRound(t, int64(50+100*round)) })
	}
}

func killConnRound(t *testing.T, killAfter int64) {
	leakGuard(t)
	a, err := ListenTCP("nodeA", "127.0.0.1:0", nil,
		LinkConfig{BackoffMin: time.Hour, BackoffMax: time.Hour, BufferLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	rp := newRawPeer(t, "raw")
	if err := a.AddPeer("raw", rp.addr()); err != nil {
		t.Fatal(err)
	}
	peer := rp.accepted(t)
	rp.ln.Close() // one connection only: after the kill the link stays degraded
	waitState(t, a, "raw", LinkEstablished)

	// The peer decodes frames until the stream ends; a torn last frame is
	// a message that did not arrive.
	delivered := map[string][]int64{}
	var nDelivered atomic.Int64
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		var scratch []byte
		for {
			m, err := readMsg(peer, &scratch)
			if err != nil {
				return
			}
			delivered[m.Stream] = append(delivered[m.Stream], m.Tuples[0].Vals[0].AsInt())
			nDelivered.Add(1)
		}
	}()

	const senders, perSender = 4, 2000
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := a.Send("raw", dataMsg(name, int64(i))); err != nil {
					t.Errorf("send %s:%d: %v", name, i, err)
					return
				}
			}
		}(fmt.Sprintf("s%d", s))
	}
	for nDelivered.Load() < killAfter {
		time.Sleep(50 * time.Microsecond)
	}
	inlineSeen := linkInfo(t, a, "raw").InlineWrites
	a.KillConn("raw")
	wg.Wait()
	waitState(t, a, "raw", LinkDegraded)
	select {
	case <-readDone:
	case <-time.After(5 * time.Second):
		t.Fatal("peer never saw the end of the killed connection")
	}
	if inlineSeen == 0 {
		t.Error("no inline write before the kill: the race this test is for did not happen")
	}

	a.mu.Lock()
	l := a.links["raw"]
	a.mu.Unlock()
	l.mu.Lock()
	buffered := map[string][]int64{}
	for _, m := range l.buf {
		buffered[m.Stream] = append(buffered[m.Stream], m.Tuples[0].Vals[0].AsInt())
	}
	dropped, requeued, nBuffered := l.dropped, l.requeued, len(l.buf)
	l.mu.Unlock()

	lost, dup := 0, 0
	for s := 0; s < senders; s++ {
		name := fmt.Sprintf("s%d", s)
		count := make([]int, perSender)
		for i, v := range delivered[name] {
			if i > 0 && v <= delivered[name][i-1] {
				t.Errorf("%s delivered out of order: %d after %d", name, v, delivered[name][i-1])
			}
			count[v]++
		}
		for _, v := range buffered[name] {
			count[v]++
		}
		for _, n := range count {
			switch {
			case n == 0:
				lost++
			case n > 1:
				dup += n - 1
			}
		}
	}
	t.Logf("sent %d: delivered %d, buffered %d (requeued %d), dropped %d, duplicated %d",
		senders*perSender, nDelivered.Load(), nBuffered, requeued, dropped, dup)
	if int64(lost) != dropped {
		t.Errorf("%d messages neither delivered nor buffered, %d counted dropped", lost, dropped)
	}
	// Only a blocking multi-frame write cut short by the kill can deliver
	// part of a batch that is then requeued whole; an inline write carries
	// one frame, which arrives or does not.
	if int64(dup) > requeued {
		t.Errorf("%d duplicates from %d requeued messages", dup, requeued)
	}
}

// TestSetWeightSurvivesReconnect: a stream's weight belongs to the peer,
// not to the connection that carried it when it was set. It is accepted
// while a supervised link has no connection, and a connection established
// later — here the second one, after a kill — drains a backlog in the
// order the weights prescribe.
func TestSetWeightSurvivesReconnect(t *testing.T) {
	leakGuard(t)
	a, err := ListenTCP("nodeA", "127.0.0.1:0", nil,
		LinkConfig{BackoffMin: time.Hour, BackoffMax: time.Hour}) // one failed dial, then quiet
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if err := a.SetWeight("fake", "gold", 1e4); err == nil {
		t.Error("SetWeight for a peer that is neither connected nor configured should fail")
	}
	if err := a.AddPeer("fake", deadAddr(t)); err != nil {
		t.Fatal(err)
	}
	if err := a.SetWeight("fake", "gold", 1e4); err != nil {
		t.Fatalf("SetWeight on a link still connecting: %v", err)
	}
	if err := a.SetWeight("fake", "gold", -1); err == nil {
		t.Error("negative weight should fail")
	}

	first := newGateConn()
	a.startConn("fake", first, false)
	waitState(t, a, "fake", LinkEstablished)
	a.KillConn("fake")
	waitState(t, a, "fake", LinkDegraded)
	if err := a.SetWeight("fake", "silver", 1e2); err != nil {
		t.Fatalf("SetWeight on a degraded link: %v", err)
	}

	g := newGateConn()
	a.startConn("fake", g, false)
	waitState(t, a, "fake", LinkEstablished)
	send := func(s string, v int64) string {
		t.Helper()
		m := dataMsg(s, v)
		if err := a.Send("fake", m); err != nil {
			t.Fatal(err)
		}
		return tag(m)
	}
	send("base", -1)
	g.awaitWrite(t) // the write loop is held at the gate; the rest queues
	var base, silver, gold []string
	for i := int64(0); i < 20; i++ {
		base = append(base, send("base", i))
	}
	for i := int64(0); i < 20; i++ {
		silver = append(silver, send("silver", i))
	}
	for i := int64(0); i < 20; i++ {
		gold = append(gold, send("gold", i))
	}
	want := append(append(gold, silver...), base...)
	g.release <- nil
	g.pump(t, func() bool { return linkInfo(t, a, "fake").MsgsSent == 61 })
	var got []string
	for _, w := range g.frames(t)[1:] {
		for _, m := range w {
			got = append(got, tag(m))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drain order on the second connection ignores the weights:\n got %v\nwant %v", got, want)
	}
}

// TestWFQPopReleasesSlot: a popped message must not stay reachable from
// the queue's backing array, and a queue that drains to empty starts over
// at the front of the array it has.
func TestWFQPopReleasesSlot(t *testing.T) {
	w := NewWFQ()
	f := NewFIFO()
	for i := 0; i < 4; i++ {
		w.Enqueue("s", 10, dataMsg("s", int64(i)))
		f.Enqueue("s", 10, dataMsg("s", int64(i)))
	}
	wq, fq := w.streams["s"].q, f.q // the full windows, before any pop
	for i := 0; i < 4; i++ {
		if m, _, ok := w.Next(); !ok || tag(m) != fmt.Sprintf("s:%d", i) {
			t.Fatalf("WFQ pop %d: %v %v", i, m, ok)
		}
		if m, _, ok := f.Next(); !ok || tag(m) != fmt.Sprintf("s:%d", i) {
			t.Fatalf("FIFO pop %d: %v %v", i, m, ok)
		}
		for name, q := range map[string][]wfqItem{"WFQ": wq, "FIFO": fq} {
			for j, it := range q[:cap(q)] {
				if queued := j > i && j < 4; queued != (it.m.Tuples != nil) {
					t.Errorf("%s after %d pops: slot %d holds a message: %v", name, i+1, j, !queued)
				}
			}
		}
	}
	if q := w.streams["s"].q; len(q) != 0 || cap(q) == 0 {
		t.Errorf("drained WFQ stream queue: len %d cap %d, want an empty slice over its array", len(q), cap(q))
	}
	if len(f.q) != 0 || cap(f.q) == 0 {
		t.Errorf("drained FIFO: len %d cap %d, want an empty slice over its array", len(f.q), cap(f.q))
	}
}

// TestWFQSteadyStateZeroAlloc: the idle link's pattern — enqueue one, pop
// it — reuses the stream's one slot forever.
func TestWFQSteadyStateZeroAlloc(t *testing.T) {
	m := dataMsg("s", 1)
	w, f := NewWFQ(), NewFIFO()
	for name, s := range map[string]Scheduler{"WFQ": w, "FIFO": f} {
		s.Enqueue("s", 10, m) // warm: the stream and its array exist
		s.Next()
		if avg := testing.AllocsPerRun(1000, func() {
			s.Enqueue("s", 10, m)
			s.Next()
		}); avg != 0 {
			t.Errorf("%s enqueue→next allocates %.2f per message once warm", name, avg)
		}
	}
}

// readMsg reads and decodes one frame with the copying Decode, so the
// test may keep the message.
func readMsg(r io.Reader, scratch *[]byte) (Msg, error) {
	body, err := readFrame(r, scratch)
	if err != nil {
		return Msg{}, err
	}
	m, _, err := Decode(body)
	return m, err
}
