package ha

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/stream"
)

// wireTap is a send function that records what crossed it.
type wireTap struct {
	calls  int
	tuples []stream.Tuple
}

func (w *wireTap) send(batch []stream.Tuple) error {
	w.calls++
	w.tuples = append(w.tuples, batch...)
	return nil
}

func sameTuples(t *testing.T, what string, a, b []stream.Tuple) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d tuples vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].TS != b[i].TS || !a[i].EqualValues(b[i]) {
			t.Fatalf("%s[%d]: %v (seq %d) vs %v (seq %d)", what, i, a[i], a[i].Seq, b[i], b[i].Seq)
		}
	}
}

// TestTrainEdgeSendEquivalence: SendTrain(ts) must be observably
// `for Send(t)` — the same link stamps, the same retained log and origin
// bookkeeping, the same tuples on the wire in the same order, and, when
// the log is durable, byte-identical segment files, including where they
// rotate (the tiny segment size forces rotations inside trains).
func TestTrainEdgeSendEquivalence(t *testing.T) {
	const n = 300
	in := make([]stream.Tuple, n)
	for i := range in {
		in[i] = stream.Tuple{Seq: uint64(1000 + 3*i), TS: int64(i + 1),
			Vals: []stream.Value{stream.Int(int64(i)), stream.Float(float64(i) / 4)}}
	}
	mk := func(dir string) (*LinkSender, *wireTap, *storage.Log) {
		l, err := storage.OpenLog(dir, storage.LogConfig{SegmentBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		w := &wireTap{}
		s := NewLinkSender(w.send)
		s.AttachDurable(storage.NewOutputSink(l))
		return s, w, l
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	perTuple, wireA, logA := mk(dirA)
	train, wireB, logB := mk(dirB)

	runs := 0
	for i, k := 0, 1; i < n; k = k%64*3 + 1 { // run lengths 1, 4, 13, 40, 121, …
		j := min(i+k, n)
		for _, tp := range in[i:j] {
			perTuple.Send(tp)
		}
		before := append([]stream.Tuple(nil), in[i:j]...)
		train.SendTrain(in[i:j])
		sameTuples(t, "SendTrain's input after the call", before, in[i:j])
		runs++
		if runs == 4 { // mid-stream truncation, memory and disk
			perTuple.Ack(uint64(j / 2))
			train.Ack(uint64(j / 2))
		}
		i = j
	}
	train.SendTrain(nil) // an empty run sends nothing

	if wireA.calls != n || wireB.calls != runs {
		t.Errorf("send calls: per-tuple %d (want %d), train %d (want %d)", wireA.calls, n, wireB.calls, runs)
	}
	sameTuples(t, "wire", wireA.tuples, wireB.tuples)
	for i, tp := range wireB.tuples {
		if tp.Seq != uint64(i+1) {
			t.Fatalf("wire[%d] stamped %d, want contiguous %d", i, tp.Seq, i+1)
		}
	}
	sameTuples(t, "retained log", perTuple.Log().Replay(), train.Log().Replay())
	oa, _ := perTuple.Log().EarliestOrigin()
	ob, _ := train.Log().EarliestOrigin()
	if oa != ob || perTuple.Log().NextSeq() != train.Log().NextSeq() || perTuple.Log().Sent() != train.Log().Sent() {
		t.Errorf("log state: origin %d/%d next %d/%d sent %d/%d", oa, ob,
			perTuple.Log().NextSeq(), train.Log().NextSeq(), perTuple.Log().Sent(), train.Log().Sent())
	}
	if e := perTuple.Log().DurableErrors() + train.Log().DurableErrors(); e != 0 {
		t.Errorf("%d durable sink errors", e)
	}

	if err := logA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := logB.Close(); err != nil {
		t.Fatal(err)
	}
	filesA, _ := filepath.Glob(filepath.Join(dirA, "*"))
	filesB, _ := filepath.Glob(filepath.Join(dirB, "*"))
	if logA.Evicted() == 0 {
		t.Error("the mid-stream ack unlinked no segment: truncation went untested")
	}
	if len(filesA) != len(filesB) || len(filesA) < 3 {
		t.Fatalf("segment files: %d vs %d (want equal, several)", len(filesA), len(filesB))
	}
	for i := range filesA {
		a, errA := os.ReadFile(filesA[i])
		b, errB := os.ReadFile(filesB[i])
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if filepath.Base(filesA[i]) != filepath.Base(filesB[i]) || !bytes.Equal(a, b) {
			t.Fatalf("segment %s (%d B) differs from %s (%d B)", filesA[i], len(a), filesB[i], len(b))
		}
	}
}

// TestTrainEdgeTornTrainRecovery: a crash inside a train's append leaves
// a prefix of its frames on disk. Reopening must recover exactly
// the intact prefix — whole earlier trains plus the leading frames of the
// torn one, origins intact — and the rebuilt sender must resume stamping
// above it, in a fresh segment.
func TestTrainEdgeTornTrainRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() (*storage.Log, *storage.OutputSink) {
		l, err := storage.OpenLog(dir, storage.LogConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return l, storage.NewOutputSink(l)
	}
	run := func(from, n int) []stream.Tuple {
		ts := make([]stream.Tuple, n)
		for i := range ts {
			ts[i] = dtup(uint64(100+from+i), 7) // origins 100.., one-byte varints throughout
		}
		return ts
	}

	l, sink := open()
	s := NewLinkSender(func([]stream.Tuple) error { return nil })
	s.AttachDurable(sink)
	s.SendTrain(run(0, 5))
	s.SendTrain(run(5, 8))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(segs) != 1 {
		t.Fatalf("want one segment file, have %v", segs)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	frame := info.Size() / 13 // 13 identical-size single-tuple frames
	if frame*13 != info.Size() {
		t.Fatalf("segment of %d B is not 13 equal frames", info.Size())
	}
	// Tear the second train's append after its fifth frame and 3 bytes of
	// the sixth.
	if err := os.Truncate(segs[0], 10*frame+3); err != nil {
		t.Fatal(err)
	}

	l2, sink2 := open()
	if !l2.Torn() {
		t.Error("reopen did not notice the torn tail")
	}
	origins, tuples, err := sink2.RecoveredEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 10 {
		t.Fatalf("recovered %d entries, want the 10 intact ones", len(tuples))
	}
	entries := make([]LogEntry, len(tuples))
	for i := range tuples {
		if tuples[i].Seq != uint64(i+1) || origins[i] != uint64(100+i) {
			t.Fatalf("entry %d: link seq %d origin %d, want %d / %d", i, tuples[i].Seq, origins[i], i+1, 100+i)
		}
		entries[i] = LogEntry{Origin: origins[i], Tuple: tuples[i]}
	}
	w := &wireTap{}
	s2 := RecoverLinkSender(entries, w.send)
	s2.AttachDurable(sink2)
	s2.SendTrain(run(10, 3))
	if len(w.tuples) != 3 {
		t.Fatalf("resumed sender put %d tuples on the wire, want 3", len(w.tuples))
	}
	for i, tp := range w.tuples {
		if tp.Seq != uint64(11+i) {
			t.Fatalf("resumed stamp %d, want %d", tp.Seq, 11+i)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	l3, sink3 := open()
	defer l3.Close()
	origins, tuples, err = sink3.RecoveredEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 13 || l3.Segments() != 2 {
		t.Fatalf("after resuming: %d entries in %d segments, want 13 in 2", len(tuples), l3.Segments())
	}
	for i := range tuples {
		if tuples[i].Seq != uint64(i+1) || origins[i] != uint64(100+i) {
			t.Fatalf("entry %d: link seq %d origin %d, want %d / %d", i, tuples[i].Seq, origins[i], i+1, 100+i)
		}
	}
}

// TestTrainEdgeReceiverRuns: OnBatch hands a frame's fresh tuples on as
// one run, with duplicates compacted out and the ack cadence counting
// admissions exactly as it did per tuple.
func TestTrainEdgeReceiverRuns(t *testing.T) {
	var runs [][]uint64
	var acks []uint64
	r := NewLinkReceiverTrain(func(ts []stream.Tuple) {
		var seqs []uint64
		for _, tp := range ts {
			seqs = append(seqs, tp.Seq)
		}
		runs = append(runs, seqs)
	}, func(recv uint64) { acks = append(acks, recv) }, 4)

	frame := func(seqs ...uint64) []stream.Tuple {
		ts := make([]stream.Tuple, len(seqs))
		for i, s := range seqs {
			ts[i] = dtup(s, int64(s))
		}
		return ts
	}
	r.OnBatch(frame(1, 2, 3))
	r.OnBatch(frame(2, 3, 4, 5, 3, 6)) // replay overlap inside a frame
	r.OnBatch(frame(5, 6))             // nothing fresh: no run, no ack
	want := [][]uint64{{1, 2, 3}, {4, 5, 6}}
	if fmt.Sprint(runs) != fmt.Sprint(want) {
		t.Errorf("runs %v, want %v", runs, want)
	}
	if fmt.Sprint(acks) != fmt.Sprint([]uint64{6}) {
		t.Errorf("acks %v, want [6] (3 admissions, then 3 more cross the cadence of 4)", acks)
	}
	if r.Suppressed() != 5 {
		t.Errorf("suppressed %d duplicates, want 5", r.Suppressed())
	}
}

// TestSendTrainZeroAlloc pins the warm HA send path on an in-memory log:
// stamping, retaining and handing a run to the wire allocates nothing,
// for a lone tuple (Send) and for a 64-tuple train.
func TestSendTrainZeroAlloc(t *testing.T) {
	for _, k := range []int{1, 64} {
		var last uint64
		s := NewLinkSender(func(batch []stream.Tuple) error {
			last = batch[len(batch)-1].Seq
			return nil
		})
		ts := make([]stream.Tuple, k)
		for i := range ts {
			ts[i] = dtup(uint64(i+1), int64(i))
		}
		op := func() {
			if k == 1 {
				s.Send(ts[0])
			} else {
				s.SendTrain(ts)
			}
			s.Ack(last)
		}
		for i := 0; i < 8192/k; i++ { // grow the rings past their compaction points
			op()
		}
		if avg := testing.AllocsPerRun(200, op); avg != 0 {
			t.Errorf("warm send of a %d-tuple run allocates %.2f, want 0", k, avg)
		}
	}
}
