package storage

import (
	"repro/internal/stream"
	"repro/internal/transport"
)

// OutputSink adapts a segment Log to the HA output log's durable sink
// (ha.DurableSink, satisfied structurally so storage stays independent
// of the protocol package): each appended entry is one frame whose
// BaseSeq carries the origin sequence and whose single tuple carries the
// link sequence in Seq, and truncation maps to whole-segment unlinking.
// The log is opened with sync-on-every-append (Manager.OutputLog), so
// every entry of a run is on disk when AppendTrain returns, which is what
// makes LinkSender.SendTrain's return the durability commit point.
type OutputSink struct {
	log *Log
}

// NewOutputSink wraps log as a durable output-log sink.
func NewOutputSink(log *Log) *OutputSink { return &OutputSink{log: log} }

// AppendTrain persists a run of stamped output-log entries, one frame and
// one fsync each. Every entry is attempted; the first failure is returned.
func (s *OutputSink) AppendTrain(origins []uint64, ts []stream.Tuple) error {
	var first error
	for i := range ts {
		err := s.log.Append(transport.Msg{
			Kind:    transport.KindData,
			BaseSeq: origins[i],
			Tuples:  ts[i : i+1],
		})
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TruncateBefore drops sealed segments wholly below the link seq.
func (s *OutputSink) TruncateBefore(seq uint64) error {
	_, err := s.log.TruncateBefore(seq)
	return err
}

// Log exposes the backing segment log (telemetry, tests).
func (s *OutputSink) Log() *Log { return s.log }

// RecoveredEntries replays a durable output log into (origin, tuple)
// pairs in link-sequence order — the input ha.NewOutputLogFrom wants.
// The generic pair type keeps storage decoupled from ha; callers convert
// with a one-line loop or pass a closure to ReplayTuples directly.
func (s *OutputSink) RecoveredEntries() (origins []uint64, tuples []stream.Tuple, err error) {
	err = s.log.ReplayTuples(func(t stream.Tuple, base uint64) bool {
		origins = append(origins, base)
		tuples = append(tuples, t)
		return true
	})
	return origins, tuples, err
}
