package engine

import (
	"testing"

	"repro/internal/events"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/stream"
)

// TestCPHistoryChargedToStorage is the accounting-bugfix regression:
// connection-point history bytes — the state §2.3 says dominates memory —
// must be visible to qBytes and the storage manager, not just box input
// queues. Before the fix, a fully-drained network with a fat history
// reported zero queued bytes and no spill pressure.
func TestCPHistoryChargedToStorage(t *testing.T) {
	e, _ := newVirtualEngine(t, cpNet(t), Config{MemoryBudget: 4096})
	e.OnOutput(func(string, stream.Tuple) {})
	for i := 0; i < 50; i++ {
		e.Ingest("in", tuple(int64(i), int64(i)))
	}
	e.RunUntilIdle(0)
	if e.QueuedTuples() != 0 {
		t.Fatalf("network should be drained, %d queued", e.QueuedTuples())
	}
	cps := e.ConnectionPoints()
	if len(cps) != 1 {
		t.Fatalf("connection points = %v", cps)
	}
	hist := e.cpHist[cps[0]]
	if hist.Bytes() == 0 {
		t.Fatal("history retained nothing; test needs retained tuples")
	}
	// The drained network's only retained state is the history window, and
	// the byte accounting must say exactly that.
	if got := e.QueuedBytes(); got != hist.Bytes() {
		t.Errorf("QueuedBytes = %d, want history's %d (CP bytes must be charged)", got, hist.Bytes())
	}
	if e.Storage().HighWater() < hist.Bytes() {
		t.Errorf("HighWater = %d below history footprint %d", e.Storage().HighWater(), hist.Bytes())
	}
}

// TestCPEvictionRefundsBytes: when the history window evicts, the freed
// bytes must come back off qBytes — charging adds without refunding
// evictions would count the same window twice.
func TestCPEvictionRefundsBytes(t *testing.T) {
	// Budget 256 -> history window of 32 bytes: constant turnover.
	e, _ := newVirtualEngine(t, cpNet(t), Config{MemoryBudget: 256})
	e.OnOutput(func(string, stream.Tuple) {})
	for i := 0; i < 200; i++ {
		e.Ingest("in", tuple(int64(i), int64(i)))
		e.RunUntilIdle(0)
	}
	hist := e.cpHist[e.ConnectionPoints()[0]]
	if got := e.QueuedBytes(); got != hist.Bytes() {
		t.Errorf("QueuedBytes = %d after turnover, want history's %d", got, hist.Bytes())
	}
	if e.CPEvicted() == 0 {
		t.Error("32-byte window over 200 tuples must evict")
	}
	snap := e.Metrics().Snapshot()
	if snap.Counters["cp.evicted"] != e.CPEvicted() {
		t.Errorf("cp.evicted metric = %d, want %d", snap.Counters["cp.evicted"], e.CPEvicted())
	}
}

// TestPressureWindowDecays is the latched-pressure bugfix regression: one
// transient burst must not report "paging" forever. The all-time
// Pressure() latches by design; the windowed reading decays once the
// backlog drains and a reset starts a new window.
func TestPressureWindowDecays(t *testing.T) {
	e, _ := newVirtualEngine(t, chainNet(t, nil), Config{MemoryBudget: 256})
	e.OnOutput(func(string, stream.Tuple) {})
	for i := 0; i < 100; i++ {
		e.Ingest("in", tuple(1, int64(i)))
	}
	st := e.Storage()
	if st.Pressure() <= 1 || st.PressureWindow() <= 1 {
		t.Fatalf("burst should show in both readings: all-time %g, window %g",
			st.Pressure(), st.PressureWindow())
	}
	e.Drain()
	// One small enqueue after the drain gives the window a current total.
	e.Ingest("in", tuple(1, 1))
	e.RunUntilIdle(0)
	st.ResetPressureWindow()
	if st.PressureWindow() > 1 {
		t.Errorf("window pressure = %g after drain+reset, want decayed below 1", st.PressureWindow())
	}
	if st.Pressure() <= 1 {
		t.Errorf("all-time pressure = %g, must stay latched above 1", st.Pressure())
	}
}

// TestCPEvictDuringResyncJournaled: history evicted while an HA resync is
// replaying silently truncates what the replay can reproduce — the fix
// makes it an attributable, corr-chained journal event.
func TestCPEvictDuringResyncJournaled(t *testing.T) {
	j := events.NewJournal("n1", 64)
	e, _ := newVirtualEngine(t, cpNet(t), Config{MemoryBudget: 256, Journal: j})
	e.OnOutput(func(string, stream.Tuple) {})

	// Quiet evictions (no resync in flight) must not journal.
	for i := 0; i < 50; i++ {
		e.Ingest("in", tuple(int64(i), int64(i)))
	}
	e.RunUntilIdle(0)
	if e.CPEvicted() == 0 {
		t.Fatal("tiny history window must evict")
	}
	if got := j.Len(); got != 0 {
		t.Fatalf("quiet evictions journaled %d events, want 0", got)
	}

	corr := j.NewCorr()
	e.BeginResync(corr)
	for i := 50; i < 100; i++ {
		e.Ingest("in", tuple(int64(i), int64(i)))
	}
	e.RunUntilIdle(0)
	e.EndResync()

	evs := j.Tail(64)
	var found bool
	for _, ev := range evs {
		if ev.Kind == events.KindCPEvict {
			found = true
			if ev.Corr != corr {
				t.Errorf("cp-evict corr = %x, want the resync's %x", ev.Corr, corr)
			}
			if ev.V1 <= 0 {
				t.Errorf("cp-evict V1 (dropped) = %g, want > 0", ev.V1)
			}
		}
	}
	if !found {
		t.Fatal("eviction during active resync did not journal a cp-evict event")
	}
}

// TestCPSpillAbsorbsEviction wires the disk spill through Config.CPSpill:
// under memory pressure the history pages to segment files instead of
// dropping, replay returns the full history, and a fresh engine over the
// same data dir recovers the spilled prefix.
func TestCPSpillAbsorbsEviction(t *testing.T) {
	dir := t.TempDir()
	mgr, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spill := func(p query.Port) stream.Spill {
		l, err := mgr.CPLog(p.Box)
		if err != nil {
			t.Fatal(err)
		}
		return storage.NewCPSpill(l, 0)
	}
	e, _ := newVirtualEngine(t, cpNet(t), Config{MemoryBudget: 256, CPSpill: spill})
	e.OnOutput(func(string, stream.Tuple) {})
	for i := 0; i < 100; i++ {
		e.Ingest("in", tuple(int64(i), int64(i)))
		e.RunUntilIdle(0)
	}
	if e.CPEvicted() != 0 {
		t.Errorf("CPEvicted = %d with an unbounded spill, want 0", e.CPEvicted())
	}
	cp := e.ConnectionPoints()[0]
	hist := e.cpHist[cp]
	if hist.SpillBytes() == 0 {
		t.Fatal("32-byte memory window over 100 tuples must have spilled to disk")
	}
	// Ad hoc attachment sees the whole history: disk prefix + memory window.
	var got []int64
	replayed, err := e.AttachAdHoc(cp, func(tp stream.Tuple) {
		got = append(got, tp.Field(0).AsInt())
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 100 {
		t.Fatalf("ad hoc replayed %d tuples, want all 100 (spill included)", replayed)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("replay[%d] = %d, want %d (oldest-first across disk+memory)", i, v, i)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh engine over the reopened dir starts with the
	// spilled history already attached.
	mgr2, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	spill2 := func(p query.Port) stream.Spill {
		l, err := mgr2.CPLog(p.Box)
		if err != nil {
			t.Fatal(err)
		}
		return storage.NewCPSpill(l, 0)
	}
	e2, _ := newVirtualEngine(t, cpNet(t), Config{MemoryBudget: 256, CPSpill: spill2})
	e2.OnOutput(func(string, stream.Tuple) {})
	var rec []int64
	replayed2, err := e2.AttachAdHoc(cp, func(tp stream.Tuple) {
		rec = append(rec, tp.Field(0).AsInt())
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed2 == 0 || int(rec[0]) != 0 {
		t.Fatalf("recovered engine replayed %d tuples starting at %v, want the spilled prefix from tuple 0", replayed2, rec)
	}
}

// benchCPNet is cpNet for benchmarks (testing.B is not a *testing.T).
func benchCPNet(b *testing.B) *query.Network {
	b.Helper()
	n, err := query.NewBuilder("cp").
		AddBox("f1", filterSpec("B < 100")).
		AddBox("f2", filterSpec("B < 50")).
		ConnectPorts(query.Port{Box: "f1"}, query.Port{Box: "f2"}, true).
		BindInput("in", tSchema, "f1", 0).
		BindOutput("out", "f2", 0, nil).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// benchIngestStepDurable drives the CP network with the memory budget
// comfortably above the working set, with or without a disk spill
// configured, one Ingest and one Step per tuple. It prices the two
// configurations by hand; TestDurabilityUnderBudgetPin pins their work.
func benchIngestStepDurable(b *testing.B, durable bool) {
	// Size the budget so the history window (budget/8) holds every tuple
	// the loop will retain, with 2x slack: "under budget" must hold for
	// the whole run or the spill path would measure eviction I/O instead
	// of the attached-but-idle overhead.
	t := tuple(1, 5)
	cfg := Config{MemoryBudget: (b.N + 4096) * t.MemSize() * 8 * 2}
	if durable {
		cfg.CPSpill, _ = spillFactory(b)
	}
	e, err := New(benchCPNet(b), cfg)
	if err != nil {
		b.Fatal(err)
	}
	e.OnOutput(func(string, stream.Tuple) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Ingest("in", t)
		e.Step()
	}
}

func BenchmarkEngineCPMemoryOnly(b *testing.B) { benchIngestStepDurable(b, false) }
func BenchmarkEngineCPDiskBacked(b *testing.B) { benchIngestStepDurable(b, true) }

// spillFactory returns an engine CPSpill factory over a fresh data
// directory, and the segment logs it opens, one per connection point.
func spillFactory(tb testing.TB) (func(query.Port) stream.Spill, *[]*storage.Log) {
	mgr, err := storage.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { mgr.Close() })
	var logs []*storage.Log
	return func(p query.Port) stream.Spill {
		l, err := mgr.CPLog(p.Box)
		if err != nil {
			tb.Fatal(err)
		}
		logs = append(logs, l)
		return storage.NewCPSpill(l, 0)
	}, &logs
}

// TestDurabilityUnderBudgetPin is the spill-on-evict bargain as exact
// work: with a disk spill attached to the connection point but its
// history under the memory budget, trains ingested and run as a node runs
// them (IngestTrain, then Run to idle) append nothing to the spill, write
// it no bytes, and allocate exactly what the memory-only configuration
// allocates per train. Durability costs only when the alternative was
// dropping history.
func TestDurabilityUnderBudgetPin(t *testing.T) {
	const trains, trainLen = 64, 64
	train := make([]stream.Tuple, trainLen)
	for i := range train {
		train[i] = stream.Tuple{Seq: uint64(i + 1), TS: int64(i + 1),
			Vals: []stream.Value{stream.Int(int64(i)), stream.Int(int64(i % 100))}}
	}
	// The history window (budget/8) holds every tuple both runs feed, with
	// 2x slack, so nothing is ever evicted.
	budget := (trains + 2) * trainLen * train[0].MemSize() * 8 * 2
	run := func(durable bool) (allocs float64, logs []*storage.Log, e *Engine) {
		cfg := Config{MemoryBudget: budget}
		var opened *[]*storage.Log
		if durable {
			cfg.CPSpill, opened = spillFactory(t)
		}
		e = newWallEngine(t, cpNet(t), cfg)
		e.OnOutput(func(string, stream.Tuple) {})
		feed := func() {
			e.IngestTrain("in", train)
			e.Run()
		}
		allocs = testing.AllocsPerRun(trains, feed) // one warm-up call, then trains
		if opened != nil {
			logs = *opened
		}
		return allocs, logs, e
	}
	memAllocs, _, mem := run(false)
	diskAllocs, logs, disk := run(true)
	if len(logs) != 1 {
		t.Fatalf("disk-backed run opened %d spill logs, want 1 (one connection point)", len(logs))
	}
	if got := logs[0].Appended(); got != 0 {
		t.Errorf("an under-budget history appended %d tuples to its spill, want 0", got)
	}
	if got := logs[0].Bytes(); got != 0 {
		t.Errorf("an under-budget history wrote %d spill bytes, want 0", got)
	}
	if mem.CPEvicted() != 0 || disk.CPEvicted() != 0 {
		t.Fatalf("histories evicted %d / %d tuples; the pin needs both under budget", mem.CPEvicted(), disk.CPEvicted())
	}
	if raceDetectorEnabled || stream.PoolCheck {
		t.Skip("alloc counts are not meaningful under the race detector or poolcheck")
	}
	if diskAllocs != memAllocs {
		t.Errorf("disk-backed run allocates %.2f per %d-tuple train, memory-only %.2f: attaching a spill must add none",
			diskAllocs, trainLen, memAllocs)
	}
}
