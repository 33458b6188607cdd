package transport

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stream"
)

// Work pins for the receive edge: a frame decoded by the read loop hands
// its pool-drawn Vals to the engine, whose boxes recycle them for the next
// frame to draw, so at steady state a frame costs no allocation between
// the socket's bytes and the output.

var kvtSchema = stream.MustSchema("in",
	stream.Field{Name: "K", Kind: stream.KindInt},
	stream.Field{Name: "V", Kind: stream.KindInt},
	stream.Field{Name: "T", Kind: stream.KindInt},
)

// computeSatEngine builds an engine over the benchmark's compute_sat node:
// filter -> map -> map -> filter -> tumble(max T by K), its output with no
// hook, so every tuple dies inside the engine.
func computeSatEngine(t testing.TB) *engine.Engine {
	t.Helper()
	n, err := query.NewBuilder("csat").
		AddBox("f1", filterBox("V < 95")).
		AddBox("m1", mapBox("K=K; V=(V * 3); T=T")).
		AddBox("m2", mapBox("K=K; V=(V - 6); T=T")).
		AddBox("f2", filterBox("(V > 0) && (K >= 0)")).
		AddBox("tb", op.Spec{Kind: "tumble", Params: map[string]string{"agg": "max", "on": "T", "groupby": "K"}}).
		Connect("f1", "m1").Connect("m1", "m2").Connect("m2", "f2").Connect("f2", "tb").
		BindInput("in", kvtSchema, "f1", 0).
		BindOutput("out", "tb", 0, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(n, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// kvtTrain is the round'th train of n tuples shaped like compute_sat's
// source: K = (seq+128)/256, V uniform in [0, 100) and T a unix-ns
// timestamp a microsecond or so after its predecessor.
func kvtTrain(n int, round uint64) []stream.Tuple {
	out := make([]stream.Tuple, n)
	s := round
	for i := range out {
		seq := round*uint64(n) + uint64(i) + 1
		s = s*6364136223846793005 + 1442695040888963407
		v := int64((s >> 33) % 100)
		ts := int64(1_760_000_000_000_000_000) + int64(seq*1000) + int64((s>>45)%1000)
		out[i] = stream.Tuple{Seq: seq, TS: ts, Vals: []stream.Value{
			stream.Int(int64((seq + 128) / 256)), stream.Int(v), stream.Int(ts)}}
	}
	return out
}

// TestRecvEdgeZeroAlloc: a 256-tuple frame of compute_sat's shape,
// decoded into the connection's Msg as the read loop does, then ingested
// and run through the node's five boxes. The decode draws the frame's
// arrays from the pool, the filters and maps return them (the first Map
// its inputs, the filters what they drop), the maps draw and return their
// own, and the window result dies at the output: a warm frame allocates
// nothing.
func TestRecvEdgeZeroAlloc(t *testing.T) {
	if stream.PoolCheck || raceEnabled {
		t.Skip("alloc counts are not meaningful under poolcheck or the race detector")
	}
	e := computeSatEngine(t)
	frames := make([][]byte, 16)
	for r := range frames {
		frames[r] = Encode(nil, Msg{Stream: "in", Kind: KindData, Tuples: kvtTrain(256, uint64(r))})
	}
	var (
		m    Msg
		draw [][]stream.Value
		next int
	)
	frame := func() {
		if _, err := decodeFrame(&m, frames[next%len(frames)], &draw); err != nil {
			t.Fatal(err)
		}
		next++
		e.IngestTrain(m.Stream, m.Tuples)
		e.Run()
		m.Tuples = stream.PoisonScratch(m.Tuples)
	}
	for range 2 * len(frames) { // grow the rings, fill the pool's classes
		frame()
	}
	delivered := e.Metrics().Counter("engine.delivered").Value()
	if avg := testing.AllocsPerRun(64, frame); avg != 0 {
		t.Fatalf("a warm 256-tuple frame allocates %.2f from decode to output, want 0", avg)
	}
	if e.Metrics().Counter("engine.delivered").Value() == delivered {
		t.Fatal("no window closed during the measured frames; the pin is vacuous")
	}
}

// recvEdgeTCPAllocs is TestRecvEdgeTCPAllocs's pin: allocations per
// 64-tuple frame, Send to handler return, on both sides of a loopback
// connection. The same test read 69 when the read loop decoded with the
// copying Decode and the engine disowned what it ingested: 64 Vals arrays,
// the tuple slice, the frame's length prefix escaping through the
// io.Reader, and the arrays the filters dropped and the window
// accumulators, which nothing recycled.
const recvEdgeTCPAllocs = 0

// TestRecvEdgeTCPAllocs: one 64-tuple frame at a time over a real loopback
// connection to a handler that ingests it into compute_sat's boxes, each
// frame awaited before the next is sent. The sender's inline write, the
// read loop, the decode, the engine and the handler allocate nothing.
func TestRecvEdgeTCPAllocs(t *testing.T) {
	if stream.PoolCheck || raceEnabled {
		t.Skip("alloc counts are not meaningful under poolcheck or the race detector")
	}
	leakGuard(t)
	e := computeSatEngine(t)
	done := make(chan struct{}, 1)
	rx, err := ListenTCP("rx", "127.0.0.1:0", func(_ string, m Msg) {
		e.IngestTrain(m.Stream, m.Tuples)
		e.Run()
		done <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rx.Close() })
	tx, err := ListenTCP("tx", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tx.Close() })
	if _, err := tx.Dial(rx.Addr()); err != nil {
		t.Fatal(err)
	}
	msgs := make([]Msg, 16)
	for r := range msgs {
		msgs[r] = Msg{Stream: "in", Kind: KindData, Tuples: kvtTrain(64, uint64(r))}
	}
	next := 0
	stuck := time.NewTimer(time.Minute) // one timer for the run: a frame's own would allocate
	defer stuck.Stop()
	frame := func() {
		if err := tx.Send("rx", msgs[next%len(msgs)]); err != nil {
			t.Fatal(err)
		}
		next++
		select {
		case <-done:
		case <-stuck.C:
			t.Fatal("frames not delivered")
		}
	}
	for range 4 * len(msgs) {
		frame()
	}
	if avg := testing.AllocsPerRun(200, frame); avg > recvEdgeTCPAllocs {
		t.Fatalf("a warm 64-tuple frame allocates %.2f across the loopback edge, want at most %d", avg, recvEdgeTCPAllocs)
	}
}
