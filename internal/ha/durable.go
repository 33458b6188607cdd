package ha

import (
	"repro/internal/stream"
)

// This file makes the upstream-backup output queue survive the upstream
// process itself. §6 retains the output log in volatile memory: that
// covers downstream failures (the backup replays), but a crash of the
// sending node loses the retained suffix and with it every tuple the
// downstream had not yet recorded. A DurableSink writes the log through
// to stable storage (internal/storage's segment files) so a restarted
// sender can rebuild its output queue and resume the resync protocol as
// if the link had merely dropped.

// DurableSink is the stable-storage half of an output log. AppendTrain is
// called under the log's lock before the run is considered sent: when it
// returns, every entry must be on disk (the output sink fsyncs each),
// making SendTrain's return the durability commit point. Each tuple's Seq field carries the link sequence;
// origins[i] is ts[i]'s original node-local sequence, both of which
// recovery must return intact. Neither slice may be retained.
// TruncateBefore mirrors back-channel truncation; it may retain more
// than asked (whole-segment granularity) — recovery tolerates the
// excess, the receiver's dedup suppresses it.
type DurableSink interface {
	AppendTrain(origins []uint64, ts []stream.Tuple) error
	TruncateBefore(seq uint64) error
}

// SetDurable attaches a stable-storage sink: every subsequent Append is
// written through before it is reported sent, and every Truncate is
// forwarded. Attach before the link goes live. Sink errors do not block
// the stream — the in-memory protocol continues — but they are counted,
// because a log that silently stopped persisting is worse than one that
// never did.
func (l *OutputLog) SetDurable(d DurableSink) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.durable = d
}

// DurableErrors returns how many sink writes have failed.
func (l *OutputLog) DurableErrors() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableErrs
}

// LogEntry is one recovered output-log record: the stamped tuple (Seq is
// the link sequence) and its origin sequence.
type LogEntry struct {
	Origin uint64
	Tuple  stream.Tuple
}

// NewOutputLogFrom rebuilds an output log from recovered entries, in
// link-sequence order (disk replay order). Link sequencing resumes after
// the highest recovered stamp, so the new incarnation extends the old
// sequence space instead of colliding with it. The recovered entries may
// include tuples the receiver already acknowledged (disk truncation is
// whole-segment conservative); the resync replays them and the
// receiver's dedup drops them.
func NewOutputLogFrom(entries []LogEntry) *OutputLog {
	l := NewOutputLog()
	for _, e := range entries {
		l.q.Push(e.Tuple)
		l.origins = append(l.origins, e.Origin)
		if e.Tuple.Seq >= l.nextSeq {
			l.nextSeq = e.Tuple.Seq + 1
		}
	}
	l.sent = uint64(len(entries))
	return l
}

// RecoverLinkSender rebuilds a sender from its durable log's recovered
// entries. The caller wires the same DurableSink back with
// AttachDurable, then lets the transport's on-established callback run
// Resync: the retained suffix replays through the normal reconnect path
// and the restarted node has lost nothing.
func RecoverLinkSender(entries []LogEntry, send func([]stream.Tuple) error) *LinkSender {
	return &LinkSender{log: NewOutputLogFrom(entries), send: send}
}

// AttachDurable wires a stable-storage sink through to the sender's
// output log (see OutputLog.SetDurable).
func (s *LinkSender) AttachDurable(d DurableSink) { s.log.SetDurable(d) }

// SetCorr stamps the next Resync's journal event with a correlation id,
// chaining the replay to the recovery (or fault) that caused it. The id
// is consumed by the next Resync and then cleared.
func (s *LinkSender) SetCorr(corr uint64) {
	s.corrMu.Lock()
	s.corr = corr
	s.corrMu.Unlock()
}

// takeCorr returns and clears the pending correlation id.
func (s *LinkSender) takeCorr() uint64 {
	s.corrMu.Lock()
	c := s.corr
	s.corr = 0
	s.corrMu.Unlock()
	return c
}
