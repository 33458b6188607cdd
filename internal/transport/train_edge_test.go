package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// gateConn is a net.Conn whose writes the test holds and releases one at
// a time: each Write announces itself on entered, then waits for a verdict
// on release (nil: accept the bytes and record them; an error: fail the
// write). Reads block until Close, like an idle peer.
type gateConn struct {
	entered chan int   // len(b) of the write now blocked at the gate
	release chan error // the blocked write's outcome
	closed  chan struct{}
	once    sync.Once

	mu     sync.Mutex
	writes [][]byte
}

func newGateConn() *gateConn {
	return &gateConn{entered: make(chan int), release: make(chan error), closed: make(chan struct{})}
}

func (g *gateConn) Write(b []byte) (int, error) {
	select {
	case g.entered <- len(b):
	case <-g.closed:
		return 0, net.ErrClosed
	}
	select {
	case err := <-g.release:
		if err != nil {
			return 0, err
		}
	case <-g.closed:
		return 0, net.ErrClosed
	}
	g.mu.Lock()
	g.writes = append(g.writes, append([]byte(nil), b...))
	g.mu.Unlock()
	return len(b), nil
}

func (g *gateConn) Read([]byte) (int, error) {
	<-g.closed
	return 0, net.ErrClosed
}

func (g *gateConn) Close() error {
	g.once.Do(func() { close(g.closed) })
	return nil
}

func (g *gateConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (g *gateConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (g *gateConn) SetDeadline(time.Time) error      { return nil }
func (g *gateConn) SetReadDeadline(time.Time) error  { return nil }
func (g *gateConn) SetWriteDeadline(time.Time) error { return nil }

// awaitWrite waits for the write loop to reach the gate and returns the
// size of the write it is attempting.
func (g *gateConn) awaitWrite(t *testing.T) int {
	t.Helper()
	select {
	case n := <-g.entered:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("write loop never reached the socket")
		return 0
	}
}

// pump accepts writes as they reach the gate until done reports true.
func (g *gateConn) pump(t *testing.T, done func() bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for !done() {
		select {
		case <-g.entered:
			g.release <- nil
		case <-time.After(time.Millisecond):
		case <-deadline:
			t.Fatal("timed out pumping writes")
		}
	}
}

// frames decodes the messages of every accepted write, write by write.
func (g *gateConn) frames(t *testing.T) [][]Msg {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([][]Msg, len(g.writes))
	for i, w := range g.writes {
		for len(w) > 0 {
			n := int(binary.BigEndian.Uint32(w))
			m, _, err := Decode(w[4 : 4+n])
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			out[i] = append(out[i], m)
			w = w[4+n:]
		}
	}
	return out
}

func tag(m Msg) string { return fmt.Sprintf("%s:%d", m.Stream, m.Tuples[0].Vals[0].AsInt()) }

// TestTrainEdgeWriteCoalescing pins the write loop's batching rule. A lone
// message on an idle link goes to the socket by itself, at once — nothing
// waits for company. Messages that queue up behind a blocked write then
// leave in scheduler order in as few writes as their bytes allow: every
// write but the last carries at least ioBatchBytes.
func TestTrainEdgeWriteCoalescing(t *testing.T) {
	leakGuard(t)
	a, err := ListenTCP("nodeA", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	g := newGateConn()
	a.startConn("fake", g, true)
	// gold outweighs base so heavily that every gold message, though queued
	// after all the base ones, is scheduled before any of them (and no two
	// finish times tie): scheduler order is all of gold, then all of base.
	if err := a.SetWeight("fake", "gold", 1e4); err != nil {
		t.Fatal(err)
	}
	send := func(m Msg) int {
		t.Helper()
		if err := a.Send("fake", m); err != nil {
			t.Fatal(err)
		}
		return 4 + EncodedSize(m)
	}

	lone := dataMsg("base", -1)
	loneBytes := send(lone)
	if n := g.awaitWrite(t); n != loneBytes {
		t.Fatalf("idle link's first write is %d B, want the lone %d B frame", n, loneBytes)
	}

	// Behind the blocked write: 3000 small messages, about three buffers'
	// worth.
	const nBase, nGold = 2000, 1000
	queuedBytes := 0
	var want []string
	for i := 0; i < nBase+nGold; i++ {
		s := "base"
		if i >= nBase {
			s = "gold"
		}
		m := dataMsg(s, int64(i), int64(i), int64(i), int64(i), int64(i), int64(i), int64(i), int64(i))
		queuedBytes += send(m)
		want = append(want, tag(m))
	}
	want = append(want[nBase:], want[:nBase]...)

	g.release <- nil
	g.pump(t, func() bool { return linkInfo(t, a, "fake").MsgsSent == nBase+nGold+1 })
	maxWrites := (queuedBytes + ioBatchBytes - 1) / ioBatchBytes

	writes := g.frames(t)
	if len(writes[0]) != 1 {
		t.Errorf("first write carried %d frames, want the lone message", len(writes[0]))
	}
	backlog := writes[1:]
	if len(backlog) > maxWrites || len(backlog) < 2 {
		t.Errorf("%d B of backlog left in %d writes, want 2..%d", queuedBytes, len(backlog), maxWrites)
	}
	var got []string
	for _, w := range backlog {
		for _, m := range w {
			got = append(got, tag(m))
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("wire order differs from scheduler order:\n got %v…\nwant %v…", got[:12], want[:12])
	}
	if info := linkInfo(t, a, "fake"); info.Writes != int64(len(writes)) || info.BytesSent != int64(queuedBytes+loneBytes) {
		t.Errorf("link counters: writes %d bytes %d, want %d / %d",
			info.Writes, info.BytesSent, len(writes), queuedBytes+loneBytes)
	}
}

// TestTrainEdgeInflightRequeue is the regression for the in-flight loss:
// when a Write fails, the batch the write loop had already dequeued must
// be conserved like the rest of the dead connection's backlog — counted
// dropped without a link, requeued ahead of the backlog (it is older)
// with one. sent == delivered + requeued + dropped, nothing vanishes.
func TestTrainEdgeInflightRequeue(t *testing.T) {
	// wedge drives a connection to: message 0 written, messages 1..5 in a
	// failed write, messages 6..8 still queued.
	wedge := func(t *testing.T, a *TCP, g *gateConn) {
		t.Helper()
		send := func(from, to int) {
			for i := from; i <= to; i++ {
				if err := a.Send("fake", dataMsg("s", int64(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		send(0, 0)
		g.awaitWrite(t)
		send(1, 5)
		g.release <- nil
		g.awaitWrite(t) // the five, as one batch
		send(6, 8)
		g.release <- errors.New("connection reset by test")
	}

	t.Run("unsupervised", func(t *testing.T) {
		leakGuard(t)
		a, err := ListenTCP("nodeA", "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		g := newGateConn()
		a.startConn("fake", g, true)
		wedge(t, a, g)
		deadline := time.Now().Add(5 * time.Second)
		for a.Dropped("fake") != 8 {
			if time.Now().After(deadline) {
				t.Fatalf("9 sent, 1 written: dropped counter %d, want 8 (5 in flight + 3 queued)", a.Dropped("fake"))
			}
			time.Sleep(time.Millisecond)
		}
	})

	t.Run("supervised", func(t *testing.T) {
		leakGuard(t)
		a, err := ListenTCP("nodeA", "127.0.0.1:0", nil,
			LinkConfig{BackoffMin: time.Hour, BackoffMax: time.Hour}) // one failed dial, then quiet
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		if err := a.AddPeer("fake", deadAddr(t)); err != nil {
			t.Fatal(err)
		}
		g := newGateConn()
		a.startConn("fake", g, false)
		waitState(t, a, "fake", LinkEstablished)
		wedge(t, a, g)
		waitState(t, a, "fake", LinkDegraded)
		info := linkInfo(t, a, "fake")
		if info.Requeued != 8 || info.Buffered != 8 || info.Dropped != 0 {
			t.Fatalf("9 sent, 1 written: requeued %d buffered %d dropped %d, want 8 / 8 / 0",
				info.Requeued, info.Buffered, info.Dropped)
		}

		// The replacement connection gets everything, oldest first.
		g2 := newGateConn()
		a.startConn("fake", g2, false)
		g2.pump(t, func() bool { return linkInfo(t, a, "fake").MsgsSent == 8 })
		var got []string
		for _, w := range append(g.frames(t), g2.frames(t)...) {
			for _, m := range w {
				got = append(got, tag(m))
			}
		}
		want := "[s:0 s:1 s:2 s:3 s:4 s:5 s:6 s:7 s:8]"
		if fmt.Sprint(got) != want {
			t.Errorf("delivered %v, want %s", got, want)
		}
	})
}
