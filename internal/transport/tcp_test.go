package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
)

type sink struct {
	mu   sync.Mutex
	msgs []Msg
	from []string
}

// handler keeps every message. The Msg's Tuples and Ctrl are the read
// loop's scratch, valid only for the call, so it keeps copies of them; the
// tuples' Vals arrays were handed over and are kept as they are.
func (s *sink) handler(from string, m Msg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m.Tuples = append([]stream.Tuple(nil), m.Tuples...)
	m.Ctrl = append([]byte(nil), m.Ctrl...)
	s.msgs = append(s.msgs, m)
	s.from = append(s.from, from)
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *sink) waitFor(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages (have %d)", n, s.count())
		}
		time.Sleep(time.Millisecond)
	}
}

func pair(t *testing.T) (*TCP, *TCP, *sink, *sink) {
	t.Helper()
	sa, sb := &sink{}, &sink{}
	a, err := ListenTCP("nodeA", "127.0.0.1:0", sa.handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := ListenTCP("nodeB", "127.0.0.1:0", sb.handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	peer, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if peer != "nodeB" {
		t.Fatalf("handshake returned %q", peer)
	}
	return a, b, sa, sb
}

func TestTCPSendBothDirections(t *testing.T) {
	a, b, sa, sb := pair(t)
	m := Msg{Stream: "s1", Kind: KindData, BaseSeq: 9, Tuples: []stream.Tuple{
		{Seq: 9, Vals: []stream.Value{stream.Int(1)}},
	}}
	if err := a.Send("nodeB", m); err != nil {
		t.Fatal(err)
	}
	sb.waitFor(t, 1)
	if sb.msgs[0].BaseSeq != 9 || sb.from[0] != "nodeA" {
		t.Errorf("delivery = %+v from %q", sb.msgs[0], sb.from[0])
	}
	// Reverse direction over the same accepted connection.
	if err := b.Send("nodeA", Msg{Stream: "back", Kind: KindControl}); err != nil {
		t.Fatal(err)
	}
	sa.waitFor(t, 1)
	if sa.msgs[0].Stream != "back" {
		t.Errorf("reverse delivery = %+v", sa.msgs[0])
	}
}

func TestTCPOrderWithinStream(t *testing.T) {
	a, _, _, sb := pair(t)
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send("nodeB", Msg{Stream: "s", BaseSeq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sb.waitFor(t, n)
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for i, m := range sb.msgs {
		if m.BaseSeq != uint64(i) {
			t.Fatalf("reordered at %d: seq %d", i, m.BaseSeq)
		}
	}
}

func TestTCPSendToUnknownPeer(t *testing.T) {
	a, _, _, _ := pair(t)
	if err := a.Send("stranger", Msg{}); err == nil {
		t.Error("send to unknown peer should fail")
	}
}

func TestTCPSetWeight(t *testing.T) {
	a, _, _, _ := pair(t)
	if err := a.SetWeight("nodeB", "s", 4); err != nil {
		t.Error(err)
	}
	if err := a.SetWeight("ghost", "s", 4); err == nil {
		t.Error("SetWeight to unknown peer should fail")
	}
	if err := a.SetWeight("nodeB", "s", 0); err == nil {
		t.Error("zero weight should fail")
	}
}

func TestTCPPeersAndClose(t *testing.T) {
	a, b, _, sb := pair(t)
	if got := a.Peers(); len(got) != 1 || got[0] != "nodeB" {
		t.Errorf("peers = %v", got)
	}
	if err := a.Send("nodeB", Msg{Stream: "x"}); err != nil {
		t.Fatal(err)
	}
	sb.waitFor(t, 1)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("nodeB", Msg{}); err == nil {
		t.Error("send after close should fail")
	}
	// Peer b should survive a's departure and close cleanly.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPManyStreamsOneConnection(t *testing.T) {
	a, _, _, sb := pair(t)
	const streams = 32
	const per = 10
	for s := 0; s < streams; s++ {
		name := string(rune('a' + s%26))
		for i := 0; i < per; i++ {
			if err := a.Send("nodeB", Msg{Stream: name, BaseSeq: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sb.waitFor(t, streams*per)
	if got := a.Peers(); len(got) != 1 {
		t.Errorf("all streams must share one connection; peers = %v", got)
	}
}
