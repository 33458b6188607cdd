package ha

import (
	"encoding/binary"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/stream"
)

// This file glues the upstream-backup machinery (§6) to a real, breakable
// transport link. The netsim path exercises OutputLog/Dedup through the
// cluster's flow protocol; LinkSender and LinkReceiver give the TCP path
// the same guarantee with a far smaller protocol: every tuple is stamped
// with a link sequence and retained until the receiver acknowledges a
// complete prefix, the receiver admits each sequence at most once, and a
// reconnect replays the retained unacknowledged suffix. No loss, no
// duplicates, across any number of connection deaths.

// LinkSender drives one HA-protected outbound tuple stream: Send stamps
// and retains via an OutputLog, Ack truncates on the receiver's complete
// prefix, and Resync retransmits the unacknowledged retained suffix —
// the reconnect half of the guarantee, hooked to the transport's
// on-established callback.
type LinkSender struct {
	// Name labels this sender's stream in journal events, and Journal
	// receives a KindHAReplay summary per Resync. Both optional; set them
	// before the link goes live (they are read without s.mu).
	Name    string
	Journal *events.Journal

	mu       sync.Mutex
	log      *OutputLog
	send     func([]stream.Tuple) error
	replayed int64

	// corr is the pending correlation id for the next Resync's journal
	// event (SetCorr/takeCorr in durable.go), under its own lock so the
	// recovery path can stamp it without contending with Send.
	corrMu sync.Mutex
	corr   uint64
}

// NewLinkSender wraps an output log around send, which transmits one
// batch of already-stamped tuples (its error is advisory: a failed send
// leaves the tuples retained, so a later Resync retransmits them). The
// batch is the sender's scratch, valid for the call only: a send that
// queues the tuples instead of encoding them must copy the slice.
func NewLinkSender(send func([]stream.Tuple) error) *LinkSender {
	return &LinkSender{log: NewOutputLog(), send: send}
}

// SendTrain stamps the run with the link's next contiguous sequences,
// retains it (one log append, on disk before it returns when the log is
// durable), and transmits it as one batch. Transmission failure is not an error for the
// caller — the run is safe in the log and will be replayed. ts is only
// read.
func (s *LinkSender) SendTrain(ts []stream.Tuple) {
	if len(ts) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.send(s.log.AppendTrain(ts))
	if stream.PoolCheck {
		s.log.endLoan()
	}
}

// Send is SendTrain of one tuple.
func (s *LinkSender) Send(t stream.Tuple) {
	one := [1]stream.Tuple{t}
	s.SendTrain(one[:])
}

// Ack records the receiver's complete-prefix acknowledgement: everything
// at or below recv is received downstream, so the log truncates below
// recv+1. (This treats the receiver as the terminal consumer; a deeper
// pipeline would hold truncation until its own downstream effects are
// safe, as the netsim cluster protocol does.)
func (s *LinkSender) Ack(recv uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.SetReceived(recv)
	s.log.Truncate(recv + 1)
}

// Resync retransmits every retained tuple above the receiver's last
// acknowledged prefix, in chunks, and returns how many were replayed.
// Call it when the link re-establishes; duplicates from acks in flight
// are suppressed by the receiver's Dedup.
func (s *LinkSender) Resync() int {
	s.mu.Lock()
	pend := s.log.ReplayFrom(s.log.Received())
	const chunk = 128
	replayed := 0
	for len(pend) > 0 {
		n := min(chunk, len(pend))
		if err := s.send(pend[:n]); err != nil {
			break // link died again; the next re-establish retries
		}
		replayed += n
		pend = pend[n:]
	}
	s.replayed += int64(replayed)
	remaining := s.log.Len()
	s.mu.Unlock()
	if s.Journal != nil {
		// V1 = tuples replayed this resync, V2 = still retained unacked.
		// Corr chains the replay to the recovery or fault that caused it.
		s.Journal.Append(events.Event{
			Time: time.Now().UnixNano(), Kind: events.KindHAReplay,
			Subject: s.Name, Corr: s.takeCorr(),
			V1: float64(replayed), V2: float64(remaining),
		})
	}
	return remaining
}

// Outstanding returns how many tuples are retained awaiting ack.
func (s *LinkSender) Outstanding() int { return s.log.Len() }

// Replayed returns how many tuples Resync has retransmitted in total.
func (s *LinkSender) Replayed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayed
}

// Log exposes the underlying output log (telemetry, tests).
func (s *LinkSender) Log() *OutputLog { return s.log }

// LinkReceiver is the downstream half: it dedups by link sequence,
// delivers fresh tuples, and acknowledges the complete received prefix
// every ackEvery admissions (plus on demand via AckNow).
type LinkReceiver struct {
	dedup    Dedup
	deliver  func([]stream.Tuple)
	ack      func(recv uint64)
	ackEvery int

	mu       sync.Mutex
	sinceAck int
}

// NewLinkReceiverTrain delivers each batch's admitted tuples to deliver as
// one run (a sub-slice of the batch, valid for the call only) and reports
// the complete prefix through ack every ackEvery admissions (≤0 means
// every admission). ack may be nil for a receiver acknowledged out of
// band.
func NewLinkReceiverTrain(deliver func([]stream.Tuple), ack func(recv uint64), ackEvery int) *LinkReceiver {
	if ackEvery <= 0 {
		ackEvery = 1
	}
	return &LinkReceiver{deliver: deliver, ack: ack, ackEvery: ackEvery}
}

// NewLinkReceiver is NewLinkReceiverTrain with a per-tuple deliver looped
// over each run.
func NewLinkReceiver(deliver func(stream.Tuple), ack func(recv uint64), ackEvery int) *LinkReceiver {
	return NewLinkReceiverTrain(func(ts []stream.Tuple) {
		for _, t := range ts {
			deliver(t)
		}
	}, ack, ackEvery)
}

// OnBatch admits each tuple's link sequence at most once, delivering the
// fresh ones in order as one run. Duplicates (reconnect replay overlap)
// are dropped; the batch is compacted in place.
func (r *LinkReceiver) OnBatch(tuples []stream.Tuple) {
	fresh := r.dedup.AdmitTrain(tuples)
	if len(fresh) == 0 {
		return
	}
	r.deliver(fresh)
	if r.ack == nil {
		return
	}
	r.mu.Lock()
	r.sinceAck += len(fresh)
	due := r.sinceAck >= r.ackEvery
	if due {
		r.sinceAck = 0
	}
	r.mu.Unlock()
	if due {
		r.ack(r.dedup.ContiguousRecv())
	}
}

// AckNow sends the current complete prefix regardless of the cadence —
// call it periodically (or on quiesce) so the sender's log drains even
// when the tail of the stream doesn't land on an ackEvery boundary.
func (r *LinkReceiver) AckNow() {
	if r.ack == nil {
		return
	}
	r.mu.Lock()
	r.sinceAck = 0
	r.mu.Unlock()
	r.ack(r.dedup.ContiguousRecv())
}

// Suppressed returns how many duplicate deliveries were dropped.
func (r *LinkReceiver) Suppressed() uint64 { return r.dedup.Duplicates() }

// Holes returns how many link sequences are still missing below the
// high-water mark.
func (r *LinkReceiver) Holes() int { return r.dedup.Holes() }

// Last returns the highest admitted link sequence.
func (r *LinkReceiver) Last() uint64 { return r.dedup.Last() }

// ContiguousRecv returns the complete received prefix — the value a
// node checkpoint records for this inbound link.
func (r *LinkReceiver) ContiguousRecv() uint64 { return r.dedup.ContiguousRecv() }

// SeedDedup raises the dedup high-water mark without opening holes. A
// restarted node calls it with its checkpointed ContiguousRecv before
// any traffic: the prefix below it was already delivered (and acked) by
// the previous incarnation, so a resync replaying it must be suppressed,
// not re-ingested.
func (r *LinkReceiver) SeedDedup(seq uint64) { r.dedup.Seed(seq) }

// Wire tagging: the HA-framed TCP path marks its data batches so a node
// can serve both legacy (untagged, delivered inline) and HA-framed
// traffic on the same streams, and carries acks as a back-channel
// control payload.

// linkTagByte marks a transport control payload as belonging to the
// HA-framed link protocol.
const linkTagByte = 0x6C // 'l'

// LinkBatchCtrl returns the control payload that tags a data message as
// an HA-framed batch (tuple Seqs are link sequences; dedup applies).
func LinkBatchCtrl() []byte { return []byte{linkTagByte} }

// IsLinkBatch reports whether a data message's control payload carries
// the HA-framed tag.
func IsLinkBatch(ctrl []byte) bool {
	return len(ctrl) == 1 && ctrl[0] == linkTagByte
}

// AppendLinkAck encodes a complete-prefix acknowledgement for the back
// channel, appending to dst.
func AppendLinkAck(dst []byte, recv uint64) []byte {
	dst = append(dst, linkTagByte)
	return binary.AppendUvarint(dst, recv)
}

// ParseLinkAck decodes an acknowledgement produced by AppendLinkAck; ok
// is false for payloads that are not link acks.
func ParseLinkAck(ctrl []byte) (recv uint64, ok bool) {
	if len(ctrl) < 2 || ctrl[0] != linkTagByte {
		return 0, false
	}
	recv, n := binary.Uvarint(ctrl[1:])
	if n <= 0 || n != len(ctrl)-1 {
		return 0, false
	}
	return recv, true
}
