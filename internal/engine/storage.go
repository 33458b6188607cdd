package engine

import (
	"sync/atomic"

	"repro/internal/stream"
)

// Storage is the Storage Manager of Fig 3: it accounts for queue memory —
// box input queues and connection-point history, the state §2.3 says
// dominates memory — against a budget, and tracks how much has gone (or
// would go) beyond it. The disk half lives in internal/storage: when a
// connection point carries a spill, bytes past the budget land in segment
// files; without one, the spill is modeled (counted) only.
//
// All accounting is atomic: ingest goroutines note their enqueues
// concurrently with the run loop's, and telemetry reads the marks.
type Storage struct {
	budget       int
	highWater    atomic.Int64 // all-time high-water mark
	winHigh      atomic.Int64 // high-water mark since the last window reset
	lastTotal    atomic.Int64 // most recent total seen by NoteEnqueue
	spilledBytes atomic.Int64
	spillEvents  atomic.Int64
}

// NewStorage returns a storage manager with the given memory budget in
// bytes (0 means 64 MiB).
func NewStorage(budget int) *Storage {
	if budget <= 0 {
		budget = 64 << 20
	}
	return &Storage{budget: budget}
}

// NoteEnqueue records an enqueue of size bytes with the queues at
// totalBytes afterwards, updating spill accounting.
func (s *Storage) NoteEnqueue(size, totalBytes int) {
	s.lastTotal.Store(int64(totalBytes))
	noteMax(&s.highWater, int64(totalBytes))
	noteMax(&s.winHigh, int64(totalBytes))
	if totalBytes > s.budget {
		s.spilledBytes.Add(int64(size))
		s.spillEvents.Add(1)
	}
}

// noteEnqueueTrain is NoteEnqueue for a run of tuples enqueued together:
// size bytes in all, the queues at totalBytes after the last. It counts
// exactly what one NoteEnqueue per tuple would — the footprint only grows
// within a run, so the last total is the run's high-water mark, and every
// tuple that landed beyond the budget is its own spill event — but walks
// the run only when it ends over budget.
func (s *Storage) noteEnqueueTrain(ts []stream.Tuple, size, totalBytes int) {
	if totalBytes <= s.budget {
		s.NoteEnqueue(size, totalBytes)
		return
	}
	running := totalBytes - size
	for i := range ts {
		sz := ts[i].MemSize()
		running += sz
		s.NoteEnqueue(sz, running)
	}
}

func noteMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Budget returns the memory budget in bytes.
func (s *Storage) Budget() int { return s.budget }

// HighWater returns the largest total queue footprint ever observed.
func (s *Storage) HighWater() int { return int(s.highWater.Load()) }

// SpilledBytes returns the cumulative bytes enqueued beyond the budget —
// bytes that a disk-backed store writes (or, without one, would write).
func (s *Storage) SpilledBytes() int64 { return s.spilledBytes.Load() }

// SpillEvents returns how many enqueues landed beyond the budget.
func (s *Storage) SpillEvents() int64 { return s.spillEvents.Load() }

// Pressure returns the ratio of the all-time high-water mark to the
// budget. It latches: one transient burst reports "paging" forever, which
// is the right summary for a whole experiment run but the wrong signal
// for runtime control — load management and telemetry read
// PressureWindow instead.
func (s *Storage) Pressure() float64 {
	return float64(s.highWater.Load()) / float64(s.budget)
}

// PressureWindow returns the ratio of the high-water mark since the last
// ResetPressureWindow to the budget — a burst shows for the windows it
// spans and then decays, unlike the latched all-time Pressure.
func (s *Storage) PressureWindow() float64 {
	return float64(s.winHigh.Load()) / float64(s.budget)
}

// ResetPressureWindow starts a new pressure window, seeded with the most
// recent observed total (not zero: a standing backlog keeps reporting
// until it actually drains). The stats sampler calls this once per
// window after reading PressureWindow.
func (s *Storage) ResetPressureWindow() {
	s.winHigh.Store(s.lastTotal.Load())
}
