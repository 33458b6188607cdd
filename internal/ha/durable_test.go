package ha

import (
	"testing"

	"repro/internal/events"
	"repro/internal/storage"
	"repro/internal/stream"
)

func dtup(seq uint64, v int64) stream.Tuple {
	t := stream.NewTuple(stream.Int(v))
	t.Seq = seq
	return t
}

// durableSender builds a LinkSender writing through to a segment log in
// dir, transmitting into got.
func durableSender(t *testing.T, dir string, got *[]uint64) (*LinkSender, *storage.Log) {
	t.Helper()
	l, err := storage.OpenLog(dir, storage.LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewLinkSender(func(ts []stream.Tuple) error {
		for _, tp := range ts {
			*got = append(*got, tp.Seq)
		}
		return nil
	})
	s.AttachDurable(storage.NewOutputSink(l))
	return s, l
}

// TestDurableSenderKillRestart is the sender-crash recovery unit: kill
// the process state after Send returns, rebuild from disk, resync, and
// the receiver-visible stream has no loss; replay overlap is suppressed
// by dedup exactly as a reconnect's would be.
func TestDurableSenderKillRestart(t *testing.T) {
	dir := t.TempDir()
	var wire []uint64
	s, l := durableSender(t, dir, &wire)
	for i := 1; i <= 10; i++ {
		s.Send(dtup(uint64(i*100), int64(i)))
	}
	// Receiver acknowledged the first 4; the log truncates below 5.
	s.Ack(4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// "Crash": s and l are dropped. Restart from the same directory.
	l2, err := storage.OpenLog(dir, storage.LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	sink := storage.NewOutputSink(l2)
	origins, tuples, err := sink.RecoveredEntries()
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]LogEntry, len(tuples))
	for i := range tuples {
		entries[i] = LogEntry{Origin: origins[i], Tuple: tuples[i]}
	}
	// Conservative disk truncation may retain acked entries, but never
	// fewer than the 6 unacked ones, and origins must survive intact.
	if len(entries) < 6 {
		t.Fatalf("recovered %d entries, want >= 6 unacked", len(entries))
	}
	var delivered []uint64
	dedup := &Dedup{}
	s2 := RecoverLinkSender(entries, func(ts []stream.Tuple) error {
		for _, tp := range ts {
			if dedup.Admit(tp.Seq) {
				delivered = append(delivered, tp.Seq)
			}
		}
		return nil
	})
	s2.AttachDurable(sink)
	// The live receiver had admitted link seqs 1..10 already; its dedup
	// must suppress the whole resync overlap.
	for i := uint64(1); i <= 10; i++ {
		dedup.Admit(i)
	}
	s2.Resync()
	if len(delivered) != 0 {
		t.Errorf("resync delivered %v past a live receiver's dedup, want none", delivered)
	}
	// Link sequencing resumes above the old space: a fresh Send must not
	// collide with a recovered stamp.
	s2.Send(dtup(9999, 11))
	if got := s2.Log().NextSeq(); got != 12 {
		t.Errorf("NextSeq = %d after recovery+send, want 12 (resume after old space)", got)
	}
	// The send closure runs the receiver dedup: the fresh stamp must have
	// been admitted (no collision with the recovered sequence space).
	if len(delivered) != 1 || delivered[0] != 11 {
		t.Errorf("delivered after new send = %v, want [11]", delivered)
	}
	// Origins survive the round-trip for dependency chaining.
	if o, ok := s2.Log().EarliestOrigin(); !ok || o > 500 {
		t.Errorf("EarliestOrigin = %d, %v; want an origin from the unacked suffix", o, ok)
	}
}

// TestDurableSenderSendIsCommitPoint: every tuple whose Send returned is
// on disk — killing at any point between sends loses nothing.
func TestDurableSenderSendIsCommitPoint(t *testing.T) {
	dir := t.TempDir()
	var wire []uint64
	for n := 1; n <= 5; n++ {
		s, l := durableSender(t, dir, &wire)
		_ = s
		origins, tuples, err := storage.NewOutputSink(l).RecoveredEntries()
		if err != nil {
			t.Fatal(err)
		}
		_ = origins
		// Everything sent in earlier incarnations is recovered.
		if len(tuples) != (n-1)*(n)/2 {
			t.Fatalf("incarnation %d recovered %d entries, want %d", n, len(tuples), (n-1)*n/2)
		}
		for i := 0; i < n; i++ {
			s.Send(dtup(uint64(n*1000+i), int64(i)))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResyncCorrStamp: a correlation id set before Resync lands on the
// journaled replay event and is consumed.
func TestResyncCorrStamp(t *testing.T) {
	j := events.NewJournal("n1", 64)
	s := NewLinkSender(func([]stream.Tuple) error { return nil })
	s.Name, s.Journal = "n2/mid", j
	s.Send(dtup(1, 1))
	corr := j.NewCorr()
	s.SetCorr(corr)
	s.Resync()
	s.Resync() // second resync: corr must not leak
	evs := j.Tail(10)
	if len(evs) != 2 {
		t.Fatalf("journaled %d events, want 2", len(evs))
	}
	if evs[0].Corr != corr {
		t.Errorf("first resync corr = %x, want %x", evs[0].Corr, corr)
	}
	if evs[1].Corr != 0 {
		t.Errorf("second resync corr = %x, want 0 (consumed)", evs[1].Corr)
	}
}

// TestDurableDoubleRestartKeepsLinkSeq: a durable route's link sequence
// survives two restarts with no output in between. Incarnation 1 sends
// ten tuples and is acked; incarnation 2 recovers them, resyncs, is acked
// and sends nothing; incarnation 3 must stamp its fresh tuples after
// sequence 10. Restarting the sequence at 1 would make the live receiver
// suppress every one of them as a duplicate.
func TestDurableDoubleRestartKeepsLinkSeq(t *testing.T) {
	dir := t.TempDir()
	var delivered []int64
	r := NewLinkReceiver(func(tp stream.Tuple) {
		delivered = append(delivered, tp.Field(0).AsInt())
	}, nil, 0)
	incarnation := func(payloads ...int64) {
		l, err := storage.OpenLog(dir, storage.LogConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sink := storage.NewOutputSink(l)
		origins, tuples, err := sink.RecoveredEntries()
		if err != nil {
			t.Fatal(err)
		}
		entries := make([]LogEntry, len(tuples))
		for i := range tuples {
			entries[i] = LogEntry{Origin: origins[i], Tuple: tuples[i]}
		}
		s := RecoverLinkSender(entries, func(ts []stream.Tuple) error {
			r.OnBatch(append([]stream.Tuple(nil), ts...))
			return nil
		})
		s.AttachDurable(sink)
		s.Resync()
		for _, p := range payloads {
			s.Send(stream.NewTuple(stream.Int(p)))
		}
		s.Ack(r.ContiguousRecv())
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	incarnation(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	incarnation()
	incarnation(11, 12, 13, 14, 15)
	if len(delivered) != 15 {
		t.Fatalf("delivered %d of 15 payloads (%v); %d suppressed as duplicates",
			len(delivered), delivered, r.Suppressed())
	}
	for i, p := range delivered {
		if p != int64(i+1) {
			t.Fatalf("delivered %v, want 1..15 in order", delivered)
		}
	}
}
