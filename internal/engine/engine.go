package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Config tunes one engine instance.
type Config struct {
	// Clock supplies time; nil means WallClock. Pass a *VirtualClock for
	// deterministic experiments: the engine then advances it by the
	// modeled cost of every box execution.
	Clock Clock
	// Scheduler decides which box to run and the train size; nil means
	// NewTrainScheduler(DefaultMaxTrain).
	Scheduler Scheduler
	// MemoryBudget bounds total queue memory in bytes before the storage
	// manager counts spill (0 means 64 MiB).
	MemoryBudget int
	// DefaultBoxCost is the modeled per-tuple processing cost in ns under
	// a virtual clock (0 means 1000 ns).
	DefaultBoxCost int64
	// BoxCosts overrides the modeled cost for specific boxes.
	BoxCosts map[string]int64
	// Shed configures the load shedder; nil disables shedding.
	Shed *ShedConfig
	// Tracer samples ingested tuples for causal latency tracing; nil
	// disables tracing (the hot path then pays only nil checks).
	Tracer *trace.Tracer
	// Stats receives windowed samples of the monitored statistics of §7.1
	// (per-box cost, selectivity, queue depth, cumulative work, drops);
	// nil disables sampling and the hot path pays only a nil check.
	Stats *stats.Store
	// StatsEvery samples Stats every N scheduling steps (0 means 64).
	StatsEvery int
	// Journal receives structured control-plane events: split/unsplit
	// transitions, shedder engage/disengage with drop counts. Nil disables
	// journaling; the hot path then pays nothing (events are only emitted
	// from control decisions, never per tuple).
	Journal *events.Journal
	// SLO enables the latency-SLO plane: per-output delivered-latency
	// sketches recorded per delivery and published to the stats plane,
	// tail attribution over traced spans, and the QoS-headroom forecaster
	// that journals an early warning before an output's p99 crosses its
	// latency cliff. When SLO is set and Stats is nil, the engine creates
	// a private store. Nil disables the whole plane; delivery then pays
	// only a nil check.
	SLO *SLOConfig
	// CPSpill supplies a disk spill for each connection-point history (the
	// Storage Manager's paging of §2.3): called once per marked arc source
	// port at construction, it may return nil to leave that point
	// memory-only. Nil disables spilling entirely — history past the
	// memory budget is then dropped (and counted) as before.
	CPSpill func(p query.Port) stream.Spill
}

// OutputFn receives tuples delivered to a named application output.
type OutputFn func(name string, t stream.Tuple)

// OutputTrainFn receives a run of tuples delivered to a named application
// output. The slice is the engine's emission buffer: valid for the call
// only (copy it to retain it), and read-only — a fan-out delivers the
// same run to its other targets afterwards. The tuples themselves are
// disowned and may be kept.
type OutputTrainFn func(name string, ts []stream.Tuple)

// Engine executes one node's piece of an Aurora query network with one
// run loop: Step executes one scheduler decision at a time through the
// train body, trainBody, per the paper's run-time model, so operators are
// single-threaded; on the wall clock a train runs on through every plain
// box it reaches (deliverTrain). A node scales by adding nodes (§5), not
// threads.
// Ingest is safe to call concurrently with a running loop; the control
// methods (Step, Run, Drain, SplitBox) must not themselves be called from
// multiple goroutines at once.
type Engine struct {
	net    *query.Network
	clock  Clock
	vclock *VirtualClock
	sched  Scheduler

	// snapPtr is the atomically swapped topology snapshot: every
	// iteration over the engine's boxes (schedulers, stats sampling,
	// drains, queue accounting) loads it once and walks an immutable
	// slice, so runtime split/merge transitions can grow and shrink the
	// box set without racing readers. topoMu serializes the swaps and
	// the split/unsplit transitions themselves.
	snapPtr atomic.Pointer[topoSnap]
	topoMu  sync.Mutex
	outputs map[string]*outputState
	inputs  map[string][]route
	defCost int64

	storage *Storage
	monitor *Monitor
	shedder *Shedder
	reg     *metrics.Registry

	tracer  *trace.Tracer
	journal *events.Journal // nil-safe: a nil journal drops appends
	// Component histograms for completed traces, cached off the registry
	// so the delivery path pays no map lookups. Nil when tracing is off.
	traceQ, traceP, traceN  *metrics.Histogram
	ingCtr, shedCtr, delCtr *metrics.Counter

	// Statistics plane (nil when disabled): the windowed store sampled
	// every statsEvery steps, and the cumulative busy-time counter that
	// wall-clock utilization is differenced from.
	stats      *stats.Store
	statsEvery uint64
	steps      atomic.Uint64
	busyCtr    *metrics.Counter
	// Per-input shed-drop counters, one per destination box, so shedding
	// is attributable: dropping at ingest starves exactly these boxes.
	shedByInput map[string][]*metrics.Counter

	// Connection points (§2.2): predetermined arcs where recent history
	// is retained so ad hoc queries can attach later. The cpHist map is
	// immutable after New (box states cache their ports' histories, so
	// the emit hot path never touches the map); cpMu guards each
	// History's contents and serializes tap registration. Tap lists live
	// per box port (boxState.taps) behind atomic pointers, published with
	// amortized-doubling growth; tapCopies counts elements copied during
	// those growths — the regression test's evidence that registration
	// is no longer quadratic.
	cpHist    map[query.Port]*stream.History
	cpMu      sync.Mutex
	tapCopies atomic.Uint64
	// cpEvictCtr counts tuples permanently evicted from connection-point
	// histories ("cp.evicted" in /metrics). resyncDepth/resyncCorr track
	// active HA resyncs (BeginResync/EndResync): an eviction while a
	// resync replays is journaled with the resync's correlation id,
	// because the replay may now have a hole the receiver cannot see.
	cpEvictCtr  *metrics.Counter
	resyncDepth atomic.Int32
	resyncCorr  atomic.Uint64

	// lastAdvance is the clock reading of the last time-driven advance,
	// so advanceTimeSensitive skips a sweep when time has not moved.
	lastAdvance int64

	// Runtime split/merge state: the pending transition request slot
	// (set from any goroutine, consumed at a step boundary), transition
	// counters, and the drain latch that parks transitions while Drain
	// stabilizes the network.
	pendTrans            atomic.Pointer[transRequest]
	splitCtr, unsplitCtr atomic.Uint64
	draining             atomic.Bool

	// Latency-SLO plane (nil when disabled): resolved config and the
	// scratch sketch SampleStats copies each output's cumulative sketch
	// into before handing it to the store, so sampling allocates nothing.
	slo       *SLOConfig
	skScratch *sketch.Sketch
	lastSkWin int64 // last stats window the sketches were published in

	// qBytes is the total bytes across all box input queues, maintained at
	// push/pop so storage accounting never walks every queue.
	qBytes atomic.Int64

	// chainNs is the inclusive time of the train bodies chained inside
	// the current train body so far; trainBody subtracts it to charge
	// each box its exclusive time. Only the run loop touches it.
	chainNs int64

	onOutput OutputTrainFn
	ingested atomic.Uint64
	seq      atomic.Uint64
	relayIn  map[string]bool
}

// route is a delivery target for an input stream or a box output port.
type route struct {
	box  *boxState // nil when out != nil
	port int
	out  *outputState
}

type boxState struct {
	id         string
	inst       op.Operator
	inQ        []*entryQueue
	downstream [][]route // per output port

	// kernel is the operator's batch entry point when it implements
	// op.TrainProcessor (nil otherwise); consumes and timed cache the
	// op.Consumer and op.TimeDriven assertions — all resolved once at
	// construction so the train loop pays no per-train type assertions.
	// refreshInst must be called whenever inst is swapped.
	kernel   op.TrainProcessor
	consumes bool
	timed    bool

	// cpH and taps are the per-output-port connection-point caches: the
	// retained history (nil for non-CP ports) and the ad hoc tap list
	// behind an atomic pointer, so the emit hot path pays a bounds check
	// and a nil load instead of two map lookups. Both are nil-slice on
	// runtime-built replica and merge boxes, which have no CP ports.
	cpH  []*stream.History
	taps []atomic.Pointer[[]op.Emit]

	virtCost int64
	// cost is the box's exclusive ns per tuple over its train body:
	// operator, routing, downstream pushes and storage accounting, with
	// the time of any train body chained inside it subtracted (a chained
	// box charges its own). A popped train also pays its queue pop.
	cost     *metrics.EWMA
	wait     *metrics.EWMA // ns queueing delay; a chained run waited 0
	inCount  atomic.Int64
	outCount atomic.Int64
	workNs   atomic.Int64 // cumulative exclusive processing time (ns)

	// plain marks a box a delivery may run at once (see deliverTrain): no
	// split, one input port fed by one upstream arc and bound to no
	// external input, so only the run loop ever pushes into its queue.
	// Set at construction and recomputed by split/unsplit; only the run
	// loop reads or writes it.
	plain bool

	// replica is the 1-based ordinal of a key-partition replica box
	// (0 for ordinary boxes), parentID names the split box a replica or
	// merge box belongs to, part points at the attached partition when
	// this box is split (loaded lock-free on the delivery hot path), and
	// cached retains a built partition across split/unsplit cycles so
	// repeated oscillation neither regrows the topology nor resets the
	// replicas' monotonic stats counters. cached is guarded by topoMu.
	replica  int
	parentID string
	part     atomic.Pointer[partition]
	cached   *partition

	// cur is the span of the tuple currently being processed: emitted
	// tuples inherit it so the trace follows derivation through the box.
	// Only the run loop touches it.
	cur *trace.Span

	// eb and collect are the box's emission buffer: collect is the one
	// op.Emit the operator is ever handed, a fixed closure that appends
	// (port, tuple) to eb, and eb points at a pooled emitBuf between
	// openEmit and closeEmit. The buffered emissions are routed in
	// same-port runs by flushEmits — one clock read, one downstream lock,
	// one accounting update per run. Only the run loop touches either
	// field.
	eb      *emitBuf
	collect op.Emit
}

// refreshInst re-resolves the cached interface assertions after inst is
// installed or replaced (construction, partition refresh).
func (b *boxState) refreshInst() {
	b.kernel, _ = b.inst.(op.TrainProcessor)
	_, b.consumes = b.inst.(op.Consumer)
	_, b.timed = b.inst.(op.TimeDriven)
	if b.collect == nil {
		// Built once, not per train: a method-value conversion per train
		// would allocate.
		b.collect = func(port int, t stream.Tuple) {
			if t.Span == nil {
				// Derived tuples (window aggregates, joins) inherit the
				// span of the tuple being processed; nil outside a traced
				// chunk.
				t.Span = b.cur
			}
			b.eb.add(port, t)
		}
	}
}

// topoSnap is one immutable snapshot of the engine's executable box set:
// the scheduling order (replicas and merge boxes sit directly after
// their parent, preserving topological order), the time-driven subset,
// and the id index. Split/unsplit transitions build a fresh snapshot and
// swap the pointer; readers hold a loaded snapshot for at most one pass.
type topoSnap struct {
	boxes []*boxState
	timed []*boxState // operators whose Advance does time-triggered work
	byID  map[string]*boxState
}

// snap returns the current topology snapshot.
func (e *Engine) snap() *topoSnap { return e.snapPtr.Load() }

// New builds an engine for the network with live operator instances.
func New(net *query.Network, cfg Config) (*Engine, error) {
	e := &Engine{
		net:     net,
		outputs: map[string]*outputState{},
		inputs:  map[string][]route{},
		cpHist:  map[query.Port]*stream.History{},
		reg:     metrics.NewRegistry(),
	}
	boxes := map[string]*boxState{}
	var topo, timed []*boxState
	e.clock = cfg.Clock
	if e.clock == nil {
		e.clock = WallClock{}
	}
	if vc, ok := e.clock.(*VirtualClock); ok {
		e.vclock = vc
	}
	e.sched = cfg.Scheduler
	if e.sched == nil {
		e.sched = NewTrainScheduler(DefaultMaxTrain)
	}
	e.storage = NewStorage(cfg.MemoryBudget)
	e.monitor = NewMonitor(e.clock)
	e.ingCtr = e.reg.Counter("engine.ingested")
	e.shedCtr = e.reg.Counter("engine.shed")
	e.delCtr = e.reg.Counter("engine.delivered")
	e.cpEvictCtr = e.reg.Counter("cp.evicted")
	if cfg.Tracer != nil {
		e.tracer = cfg.Tracer
		e.traceQ = e.reg.Histogram("trace.queue_ns")
		e.traceP = e.reg.Histogram("trace.proc_ns")
		e.traceN = e.reg.Histogram("trace.net_ns")
	}
	e.journal = cfg.Journal
	e.busyCtr = e.reg.Counter("engine.busy_ns")
	if cfg.Stats != nil {
		e.stats = cfg.Stats
		e.statsEvery = uint64(cfg.StatsEvery)
		if e.statsEvery == 0 {
			e.statsEvery = 64
		}
	}

	e.defCost = cfg.DefaultBoxCost
	if e.defCost <= 0 {
		e.defCost = 1000
	}

	// Instantiate boxes.
	for _, id := range net.Boxes() {
		inst, err := op.Build(net.Box(id).Spec)
		if err != nil {
			return nil, fmt.Errorf("engine: box %q: %w", id, err)
		}
		if _, err := inst.Bind(net.InputSchemas(id)); err != nil {
			return nil, fmt.Errorf("engine: box %q: %w", id, err)
		}
		b := &boxState{
			id:       id,
			inst:     inst,
			inQ:      make([]*entryQueue, inst.NumIn()),
			virtCost: e.defCost,
			cost:     metrics.NewEWMA(0.2),
			wait:     metrics.NewEWMA(0.2),
		}
		if c, ok := cfg.BoxCosts[id]; ok && c > 0 {
			b.virtCost = c
		}
		b.refreshInst()
		for i := range b.inQ {
			b.inQ[i] = newEntryQueue()
		}
		b.downstream = make([][]route, inst.NumOut())
		b.cpH = make([]*stream.History, inst.NumOut())
		b.taps = make([]atomic.Pointer[[]op.Emit], inst.NumOut())
		boxes[id] = b
		topo = append(topo, b)
		if b.timed {
			// Only time-driven operators (WSort timeouts) do work in
			// Advance; sweeping every box after every train was O(boxes)
			// of no-op virtual calls.
			timed = append(timed, b)
		}
	}

	// Outputs.
	for name, o := range net.Outputs() {
		os, err := newOutputState(o, net.OutputSchema(o.Src), e.reg)
		if err != nil {
			return nil, fmt.Errorf("engine: output %q: %w", name, err)
		}
		e.outputs[name] = os
	}

	// Wire arcs and bindings into routes.
	for _, a := range net.Arcs() {
		from := boxes[a.From.Box]
		from.downstream[a.From.Port] = append(from.downstream[a.From.Port],
			route{box: boxes[a.To.Box], port: a.To.Port})
	}
	for name, o := range net.Outputs() {
		from := boxes[o.Src.Box]
		from.downstream[o.Src.Port] = append(from.downstream[o.Src.Port],
			route{out: e.outputs[name]})
	}
	for name, in := range net.Inputs() {
		for _, d := range in.Dests {
			e.inputs[name] = append(e.inputs[name], route{box: boxes[d.Box], port: d.Port})
		}
	}

	// Connection-point history buffers (§2.2): one per marked arc source
	// port, bounded by a slice of the memory budget, cached on the source
	// box so the emit path indexes instead of hashing a Port key.
	for _, a := range net.Arcs() {
		if a.ConnectionPoint && e.cpHist[a.From] == nil {
			h := stream.NewHistory(e.storage.Budget() / 8)
			if cfg.CPSpill != nil {
				if sp := cfg.CPSpill(a.From); sp != nil {
					h.SetSpill(sp)
				}
			}
			e.cpHist[a.From] = h
			boxes[a.From.Box].cpH[a.From.Port] = h
		}
	}

	for _, b := range topo {
		b.plain = e.plainBox(b)
	}
	e.snapPtr.Store(&topoSnap{boxes: topo, timed: timed, byID: boxes})

	// Shedder, with per-box drop attribution: one counter per destination
	// box of each input, so the stats plane can see which boxes shedding
	// starves (drops happen at ingest, before any box runs).
	if cfg.Shed != nil {
		sh, err := NewShedder(*cfg.Shed, net)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		e.shedder = sh
		e.shedByInput = map[string][]*metrics.Counter{}
		for name, in := range net.Inputs() {
			for _, d := range in.Dests {
				e.shedByInput[name] = append(e.shedByInput[name],
					e.reg.Counter("shed.drop."+d.Box))
			}
		}
	}
	if cfg.SLO != nil {
		s := *cfg.SLO
		s.applyDefaults()
		e.slo = &s
		if e.stats == nil {
			win := s.WindowNs
			if win <= 0 {
				win = 25e6
			}
			e.stats = stats.NewStore(win, 16)
			e.statsEvery = uint64(cfg.StatsEvery)
			if e.statsEvery == 0 {
				e.statsEvery = 64
			}
		}
		// The plane's switch: every output grows a cumulative latency
		// sketch (recorded per delivery, published per stats window) so
		// digests can gossip whole distributions. Without SLO, delivery
		// pays only the nil check.
		for _, os := range e.outputs {
			os.enableLatencySketch()
		}
		e.skScratch = sketch.New(sketch.DefaultAlpha)
		e.lastSkWin = -1
	}
	return e, nil
}

// plainBox reports whether deliveries may chain into b: b is not split
// and not part of a split, and has one input port, fed by exactly one
// upstream arc and bound to no external input — so IngestTrain, which runs
// on its caller's goroutine, never pushes into it.
func (e *Engine) plainBox(b *boxState) bool {
	return b.parentID == "" && b.part.Load() == nil && len(b.inQ) == 1 &&
		len(e.net.Upstream(b.id)) == 1 && len(e.net.InputsOf(b.id)) == 0
}

// noteCPAdd charges a connection-point retention to storage accounting —
// the fix for history bytes being invisible to spill pressure: added is
// the retained tuples' footprint, delta the net in-memory change after
// eviction, dropped the tuples permanently gone (evicted with no spill,
// or pushed off the spill's disk budget). Permanent drops during an
// active HA resync are journaled with the resync's correlation id: the
// replay the receiver is counting on may now have a hole.
func (e *Engine) noteCPAdd(b *boxState, port, added, delta, dropped int) {
	e.storage.NoteEnqueue(added, int(e.qBytes.Add(int64(delta))))
	if dropped == 0 {
		return
	}
	e.cpEvictCtr.Add(int64(dropped))
	if e.resyncDepth.Load() > 0 {
		e.journal.Append(events.Event{
			Time:    e.clock.Now(),
			Kind:    events.KindCPEvict,
			Subject: b.id,
			Detail:  fmt.Sprintf("port %d during resync", port),
			Corr:    e.resyncCorr.Load(),
			V1:      float64(dropped),
			V2:      float64(e.cpEvictCtr.Value()),
		})
	}
}

// BeginResync marks an HA resync as in flight, carrying the correlation
// id its journal chain uses; connection-point evictions while any resync
// is active are journaled against it (satellite of the durable-state
// work: silent replay truncation becomes an attributable event). Calls
// nest; each BeginResync pairs with one EndResync.
func (e *Engine) BeginResync(corr uint64) {
	e.resyncCorr.Store(corr)
	e.resyncDepth.Add(1)
}

// EndResync marks the resync complete.
func (e *Engine) EndResync() { e.resyncDepth.Add(-1) }

// CPEvicted returns the total tuples permanently evicted from
// connection-point histories (also "cp.evicted" in the metrics registry).
func (e *Engine) CPEvicted() int64 { return e.cpEvictCtr.Value() }

// openEmit points the box's collecting emit at a pooled buffer; closeEmit
// routes whatever is still buffered and returns the buffer, which every
// flush leaves empty. Every operator entry point that can emit —
// Process/ProcessTrain, Advance, Flush — runs between the two, so there is
// one emission path.
func (e *Engine) openEmit(b *boxState) { b.eb = emitBufPool.Get().(*emitBuf) }

func (e *Engine) closeEmit(b *boxState) {
	e.flushEmits(b)
	emitBufPool.Put(b.eb)
	b.eb = nil
}

// flushEmits routes the box's buffered emissions and empties the buffer.
// Consecutive same-port emissions — the common case: most operators have
// one output port — travel as a single run through routeEmitTrain, so the
// per-tuple costs of the emit path (output-count increment, clock read,
// downstream queue lock, byte accounting, monitor lock) are paid once per
// run. Ordering is preserved: runs flush in emission order, so
// per-(box,port) FIFO holds exactly as it would with immediate
// per-emission routing.
func (e *Engine) flushEmits(b *boxState) {
	eb := b.eb
	n := len(eb.ts)
	if n == 0 {
		return
	}
	now := e.clock.Now()
	b.outCount.Add(int64(n))
	for i := 0; i < n; {
		port := eb.ports[i]
		j := i + 1
		for j < n && eb.ports[j] == port {
			j++
		}
		e.routeEmitTrain(b, port, eb.ts[i:j], now)
		i = j
	}
	eb.reset()
}

// routeEmitTrain is the Router of Fig 3 over a same-port emission run:
// connection-point history, ad hoc taps, the spans' processing mark, then
// delivery to the downstream routes. The span check is per tuple, because
// untraced trains can still re-emit span-carrying tuples (WSort flushes
// buffered tuples admitted in earlier, traced trains); a run with a span
// aboard, or any run under a virtual clock, is never chained.
func (e *Engine) routeEmitTrain(b *boxState, port int, ts []stream.Tuple, now int64) {
	if port < len(b.cpH) {
		if h := b.cpH[port]; h != nil {
			e.cpMu.Lock()
			for i := range ts {
				// The history retains the tuple beyond its delivery
				// lifetime, so a pool-owned Vals must be surrendered to
				// the GC. Accounting stays per tuple: eviction makes the
				// running footprint non-monotone within a run, and the
				// storage manager's high-water mark is taken over it.
				ts[i].Disown()
				delta, dropped := h.Add(ts[i])
				e.noteCPAdd(b, port, ts[i].MemSize(), delta, dropped)
			}
			e.cpMu.Unlock()
		}
		if tl := b.taps[port].Load(); tl != nil {
			// Taps are arbitrary consumers (often another engine's
			// Ingest); they may retain, so ownership cannot cross here.
			for i := range ts {
				ts[i].Disown()
				for _, tap := range *tl {
					tap(0, ts[i])
				}
			}
		}
	}
	traced := false
	for i := range ts {
		if sp := ts[i].Span; sp != nil {
			sp.MarkReplica(trace.KindProc, b.id, b.replica, now)
			traced = true
		}
	}
	e.deliverTrain(b.downstream[port], ts, now, !traced && e.vclock == nil)
}

// deliverTrain delivers a run of tuples to a set of targets, one target
// at a time: a box queue takes the run under one lock, an output under one
// monitor update. The caller owns ts (an emission buffer, or Ingest's
// one-tuple array) and supplies now, so that a traced tuple's final Proc
// mark and the monitor's latency observation share one timestamp — the
// decomposition then sums to the monitored latency exactly, not merely
// approximately.
//
// When chain is set (a span-free run emitted on the run loop under the
// wall clock) and the run's only target is a plain box whose queue is
// empty, the box's train body runs on the run at once, depth-first, in
// place of the queue hop: run to completion across boxes, Nephele's task
// chaining. The empty queue keeps per-(box, port) FIFO, and only the run
// loop ever fills a plain box's queue, so the unlocked check is exact.
func (e *Engine) deliverTrain(targets []route, ts []stream.Tuple, now int64, chain bool) {
	if chain && len(targets) == 1 {
		if r := targets[0]; r.box != nil && r.box.plain && r.box.inQ[0].idle() {
			e.chainNs += e.trainBody(r.box, 0, ts, nil, e.clock.Now())
			return
		}
	}
	if len(targets) > 1 {
		// Fan-out: every copy shares the Vals backing array, so no single
		// death point can prove the buffer dead — surrender it to the GC.
		for i := range ts {
			ts[i].Disown()
		}
	}
	for k, r := range targets {
		if k == 1 {
			// A span follows exactly one path, the first: fan-out copies
			// would all mark the same shared span and corrupt its
			// accounting.
			for i := range ts {
				ts[i].Span = nil
			}
		}
		if r.out != nil {
			e.deliverOutput(r.out, ts, now)
			continue
		}
		if p := r.box.part.Load(); p != nil {
			// The box is split: each tuple goes to its key-owning replica
			// (the hash-partitioning route step of §5.1) — or to the
			// parent queue when an un-split's flip got there first.
			for i := range ts {
				size := ts[i].MemSize()
				if !p.admit(ts[i], now, size) {
					r.box.inQ[r.port].PushSized(ts[i], now, size)
				}
				e.storage.NoteEnqueue(size, int(e.qBytes.Add(int64(size))))
			}
			continue
		}
		total := r.box.inQ[r.port].PushTrain(ts, now)
		e.storage.noteEnqueueTrain(ts, total, int(e.qBytes.Add(int64(total))))
	}
}

// deliverOutput hands a run to an application output: the QoS monitor
// observes it, traced spans complete, and the run reaches the output
// callback in one call or dies.
func (e *Engine) deliverOutput(os *outputState, ts []stream.Tuple, now int64) {
	os.observeTrain(ts, now)
	e.delCtr.Add(int64(len(ts)))
	for i := range ts {
		if sp := ts[i].Span; sp != nil && !sp.Done() && !os.relay {
			if e.tracer != nil {
				e.tracer.Complete(sp, os.name, now)
			} else {
				// Traced upstream, delivered on an untraced node: still
				// close the span so the decomposition is whole.
				sp.Finish(os.name, now)
			}
			if e.traceQ != nil {
				q, p, nn := sp.Components()
				e.traceQ.Observe(float64(q))
				e.traceP.Observe(float64(p))
				e.traceN.Observe(float64(nn))
			}
			if os.lat != nil {
				// Tail attribution evidence: the finished span's
				// queue/proc/net stages, kept only when the latency
				// clears the output's tail cut.
				os.noteTail(sp)
			}
		}
		if e.onOutput != nil {
			// The callback (often the distributed layer's forwarder) may
			// retain the tuple; ownership ends here.
			ts[i].Disown()
		} else {
			// Terminal delivery with no retaining consumer: the tuple is
			// dead, and a pool-owned Vals goes back to the freelist.
			ts[i].Recycle()
		}
	}
	if e.onOutput != nil {
		e.onOutput(os.name, ts)
	}
}

// OnOutputTrain installs the output hook: it is called once per run of
// tuples delivered to an application output (a lone tuple is a run of
// one). The distributed layer uses it to forward a run to a downstream
// node as one message.
func (e *Engine) OnOutputTrain(fn OutputTrainFn) { e.onOutput = fn }

// OnOutput installs fn as a per-tuple loop over OnOutputTrain's runs.
func (e *Engine) OnOutput(fn OutputFn) {
	if fn == nil {
		e.onOutput = nil
		return
	}
	e.OnOutputTrain(func(name string, ts []stream.Tuple) {
		for _, t := range ts {
			fn(name, t)
		}
	})
}

// SetRelayOutput marks a named output as an intermediate hop: the
// distributed layer forwards its tuples to another node rather than to an
// application, so traced spans stay open there and keep accumulating
// components downstream instead of being finalized mid-path.
func (e *Engine) SetRelayOutput(name string) {
	if os, ok := e.outputs[name]; ok {
		os.relay = true
	}
}

// SetRelayInput marks a named input as a mid-path arrival point: tuples
// entering there came from another node, so the sampling decision was
// already made upstream and untraced tuples stay untraced (re-sampling
// mid-path would inflate the traced fraction and misattribute the
// already-elapsed upstream time).
func (e *Engine) SetRelayInput(name string) {
	if e.relayIn == nil {
		e.relayIn = map[string]bool{}
	}
	e.relayIn[name] = true
}

// IngestTrain pushes a run of tuples onto a named input stream: one route
// lookup, one clock read and one queue push for the run, with stamping,
// shedding and trace sampling decided per tuple. Tuples with zero TS are
// stamped with the current clock (their birth time for latency QoS);
// tuples with zero Seq are assigned the node-local sequence (§6.2). The
// engine consumes ts — it stamps the tuples and compacts the admitted ones
// in place — and returns how many were accepted (the rest were shed).
// IngestTrain is safe to call concurrently with a running Step loop.
func (e *Engine) IngestTrain(input string, ts []stream.Tuple) int {
	routes, ok := e.inputs[input]
	if !ok || len(ts) == 0 {
		return 0
	}
	now := e.clock.Now()
	relay := e.relayIn[input]
	kept := ts[:0]
	for _, t := range ts {
		// Ownership never crosses an engine boundary: whatever the caller
		// hands in, the caller may still hold — the pool takes over only
		// for buffers the engine's own operators draw from it.
		t.Disown()
		if t.TS == 0 {
			t.TS = now
		}
		if t.Seq == 0 {
			t.Seq = e.seq.Add(1)
		}
		if e.shedder != nil && e.shedder.ShouldDrop(e, input, t) {
			e.noteDrop()
			e.shedCtr.Inc()
			for _, c := range e.shedByInput[input] {
				c.Inc()
			}
			continue
		}
		if t.Span == nil && !relay {
			// Admitted and locally born: decide here whether to trace it. A
			// tuple arriving with a span keeps it — its trace began upstream.
			t.Span = e.tracer.Sample(t.TS)
		}
		kept = append(kept, t)
	}
	e.ingested.Add(uint64(len(ts)))
	e.ingCtr.Add(int64(len(ts)))
	if len(kept) == 0 {
		return 0
	}
	// Never chained: this runs on the caller's goroutine, not the loop.
	e.deliverTrain(routes, kept, now, false)
	return len(kept)
}

// Ingest pushes one tuple onto a named input stream — a train of one. It
// reports whether the tuple was accepted (false when shed). The one-slot
// train comes from the train pool, not the stack: a run can reach the
// output hook, so the slice escapes.
func (e *Engine) Ingest(input string, t stream.Tuple) bool {
	tb := getTrainBuf()
	tb.ts = append(tb.ts, t)
	n := e.IngestTrain(input, tb.ts)
	putTrainBuf(tb)
	return n == 1
}

func (e *Engine) noteDrop() {
	for _, os := range e.outputs {
		os.noteDrop()
	}
}

// Step runs one scheduling decision: the scheduler picks a box and a
// train, and the engine pushes that many waiting tuples through it
// (train scheduling, §2.3) — on the wall clock, on through every plain box
// downstream that the train's runs reach (deliverTrain). It reports
// whether any work was done.
func (e *Engine) Step() bool {
	b, port, n := e.sched.Next(e)
	if b == nil || e.runTrain(b, port, n) == 0 {
		return false
	}
	e.advanceTimeSensitive(e.clock.Now())
	e.noteStep()
	// No box is mid-train at a step boundary: apply any requested
	// split/unsplit transition here.
	e.applyPending()
	return true
}

// runTrain pops up to n tuples from the box's port under one queue lock
// and runs them through the box's train body. It returns the number of
// tuples processed.
func (e *Engine) runTrain(b *boxState, port, n int) int {
	start := e.clock.Now()
	tb := getTrainBuf()
	b.inQ[port].PopTrain(tb, n)
	processed := len(tb.ts)
	if processed > 0 {
		e.trainBody(b, port, tb.ts, tb, start)
	}
	putTrainBuf(tb)
	return processed
}

// trainBody is the one train body: it pushes ts through the box's operator
// and routes the emissions. A popped train comes with its queue entries in
// tb (enqueue times and sizes parallel to ts); a chained run (tb == nil)
// never entered a queue, so it waited 0 and releases no queue bytes. start
// is the body's service start. trainBody returns its inclusive elapsed
// time, chained bodies included, and charges the box its exclusive time.
//
// The train executes in chunks. On a wall clock a chunk is a maximal run
// of untraced tuples — one kernel dispatch, one emission flush — and a
// traced tuple is a chunk of its own, because it threads its span to
// derived emissions through b.cur and closes its queue stage at its own
// service start. Under a VirtualClock every chunk is a single tuple: the
// deterministic experiments depend on every tuple's marks and deliveries
// landing at its own modeled completion time. All accounting is per chunk
// — queue bytes released, queueing delay observed, queue stage closed at
// the chunk's service start, clock advanced, emissions routed at the
// chunk's completion — so chunk-of-one reproduces a per-tuple engine
// exactly, and a chunk of many pays every one of those costs once.
func (e *Engine) trainBody(b *boxState, port int, ts []stream.Tuple, tb *trainBuf, start int64) int64 {
	outer := e.chainNs
	e.chainNs = 0
	e.openEmit(b)
	for lo := 0; lo < len(ts); {
		hi := lo + 1
		if e.vclock == nil && ts[lo].Span == nil {
			for hi < len(ts) && ts[hi].Span == nil {
				hi++
			}
		}
		c := ts[lo:hi]
		wait := 0.0
		if tb != nil {
			bytes := 0
			for i := lo; i < hi; i++ {
				bytes += tb.size[i]
				wait += float64(start - tb.enq[i])
			}
			// The storage manager reads the running total at every
			// enqueue, so a chunk's bytes leave the account when the chunk
			// starts, not when the train was popped.
			e.qBytes.Add(int64(-bytes))
			wait /= float64(len(c))
		}
		b.wait.Observe(wait)
		b.inCount.Add(int64(len(c)))
		if sp := c[0].Span; sp != nil { // only ever in a chunk of one
			// Queue ends at this tuple's own service start, not the train
			// start, so a long train does not smear earlier tuples'
			// service time into later tuples' queue component.
			sp.MarkReplica(trace.KindQueue, b.id, b.replica, e.clock.Now())
			b.cur = sp
		}
		if e.vclock != nil {
			// Advance before the operator runs: the emissions' Proc marks
			// and the monitor's delivery observations then land at this
			// tuple's completion time. Bulk-advancing after the loop would
			// stamp every tuple at the train's start and charge the whole
			// train's processing downstream (to the outbox wait, i.e. the
			// network component) instead of to the box — exactly the
			// misattribution tail analysis cares about.
			e.vclock.Advance(b.virtCost)
		}
		if b.kernel != nil {
			b.kernel.ProcessTrain(port, c, b.collect)
		} else {
			for i := range c {
				b.inst.Process(port, c[i], b.collect)
			}
		}
		b.cur = nil
		e.flushEmits(b)
		lo = hi
	}
	e.closeEmit(b)
	if b.consumes {
		// The operator neither retained nor re-emitted its inputs: any
		// pool-owned Vals among them died in this train.
		stream.RecycleTrain(ts)
	}
	// Under a virtual clock nothing chains, so elapsed is exactly
	// len(ts)*virtCost.
	elapsed := e.clock.Now() - start
	self := elapsed - e.chainNs
	e.chainNs = outer
	b.cost.Observe(float64(self) / float64(len(ts)))
	b.workNs.Add(self)
	e.busyCtr.Add(self)
	return elapsed
}

// noteStep closes one scheduling decision: the shedder's control loop,
// and every statsEvery'th step a stats sample.
func (e *Engine) noteStep() {
	if e.shedder != nil {
		e.shedder.Control(e)
	}
	if steps := e.steps.Add(1); e.stats != nil && steps%e.statsEvery == 0 {
		e.SampleStats(e.clock.Now())
	}
}

// advanceTimeSensitive meets the timeout obligations of time-driven
// operators (op.TimeDriven, e.g. WSort): called after box executions, it
// advances only those operators, and only when the clock actually moved
// since the last advance — the serial engine used to sweep Advance over
// every box after every train, O(boxes) of no-op virtual calls per step.
func (e *Engine) advanceTimeSensitive(now int64) {
	timed := e.snap().timed
	if len(timed) == 0 || e.lastAdvance == now {
		return
	}
	e.lastAdvance = now
	for _, b := range timed {
		e.openEmit(b)
		b.inst.Advance(now, b.collect)
		e.closeEmit(b)
	}
}

// SampleStats folds the current monitored statistics of every box into
// the configured stats store (no-op when none is configured): cost,
// selectivity, and queue depth as gauges; cumulative work and shed drops
// as counters the store differences into windowed rates. Node-level
// series (node.util, node.queued, link.*) are the distributed layer's
// job — only it knows the host's wall-clock share and its links.
func (e *Engine) SampleStats(now int64) {
	if e.stats == nil {
		return
	}
	for _, b := range e.snap().boxes {
		queued := 0
		for _, q := range b.inQ {
			queued += q.Len()
		}
		in, out := b.inCount.Load(), b.outCount.Load()
		sel := 0.0
		if in > 0 {
			sel = float64(out) / float64(in)
		}
		e.stats.Observe(stats.SeriesBoxCost(b.id), stats.KindGauge, now, b.cost.Value())
		e.stats.Observe(stats.SeriesBoxSelectivity(b.id), stats.KindGauge, now, sel)
		e.stats.Observe(stats.SeriesBoxQueue(b.id), stats.KindGauge, now, float64(queued))
		e.stats.Observe(stats.SeriesBoxWork(b.id), stats.KindCounter, now, float64(b.workNs.Load()))
	}
	for name, ctrs := range e.shedByInput {
		for i, c := range ctrs {
			box := e.net.Inputs()[name].Dests[i].Box
			e.stats.Observe(stats.SeriesBoxDrops(box), stats.KindCounter, now, float64(c.Value()))
		}
	}
	e.stats.Observe(stats.SeriesNodeShed, stats.KindCounter, now, float64(e.shedCtr.Value()))
	// Delivered-QoS attribution: each output's cumulative utility and
	// delivery counters, which the plane differences into a windowed mean
	// utility for the gossiped digests (§7.1 — the LoadMap then carries
	// what quality each node delivers, not just where its load sits).
	for name, os := range e.outputs {
		if !os.hasQoS() {
			continue
		}
		utilSum, delivered := os.qosCounters()
		e.stats.Observe(stats.SeriesOutputUtilSum(name), stats.KindCounter, now, utilSum)
		e.stats.Observe(stats.SeriesOutputDelivered(name), stats.KindCounter, now, float64(delivered))
	}
	// Latency sketches: snapshot each output's cumulative sketch into the
	// store, which windows the deltas. Publishing once per window loses
	// nothing (the sketch is cumulative; deltas accumulate between
	// publishes) and keeps per-sample overhead at a window-index compare.
	if e.skScratch != nil {
		if win := now / e.stats.WindowNs(); win != e.lastSkWin {
			e.lastSkWin = win
			for name, os := range e.outputs {
				if os.lat == nil {
					continue
				}
				os.mu.Lock()
				e.skScratch.CopyFrom(os.lat)
				os.mu.Unlock()
				e.stats.ObserveSketch(stats.SeriesOutputLatency(name), now, e.skScratch)
			}
			e.sloCheck(now)
		}
	}
}

// StatsStore returns the configured windowed stats store (nil when the
// stats plane is off).
func (e *Engine) StatsStore() *stats.Store { return e.stats }

// BusyNs returns the cumulative processing time the engine has spent in
// box executions — the raw counter utilization is differenced from.
func (e *Engine) BusyNs() int64 { return e.busyCtr.Value() }

// Run steps until no box has queued work and returns the number of steps
// executed: RunUntilIdle(0).
func (e *Engine) Run() int { return e.RunUntilIdle(0) }

// RunUntilIdle steps until no box has queued work, or until maxSteps (<= 0
// means unbounded). It returns the number of steps executed.
func (e *Engine) RunUntilIdle(maxSteps int) int {
	steps := 0
	for maxSteps <= 0 || steps < maxSteps {
		if !e.Step() {
			break
		}
		steps++
	}
	return steps
}

// AdvanceTime moves a virtual clock forward across an idle gap and gives
// time-driven operators (WSort timeouts) a chance to emit. It is a no-op
// under a wall clock.
func (e *Engine) AdvanceTime(d int64) {
	if e.vclock == nil {
		return
	}
	e.vclock.Advance(d)
	e.advanceTimeSensitive(e.vclock.Now())
}

// Drain flushes every box in topological order, processing intermediate
// results between flushes — the stabilization step of §5.1: inputs are
// choked off (the caller simply stops Ingesting), queued tuples drain,
// and windowed state is forced out so the network is empty and can be
// manipulated. Split/unsplit transitions are parked while draining (a
// pending request is dropped: re-partitioning an empty network is pure
// churn), and the flush passes repeat until no box emits anything new,
// so runtime-attached merge networks whose flushes feed further boxes
// still empty completely.
func (e *Engine) Drain() {
	e.draining.Store(true)
	defer e.draining.Store(false)
	e.pendTrans.Store(nil)
	e.RunUntilIdle(0)
	for {
		before := e.emittedTotal()
		for _, b := range e.snap().boxes {
			e.openEmit(b)
			b.inst.Flush(b.collect)
			e.closeEmit(b)
			e.RunUntilIdle(0)
		}
		if e.emittedTotal() == before && e.QueuedTuples() == 0 {
			return
		}
	}
}

// emittedTotal sums every box's emission count — Drain's fixpoint
// measure.
func (e *Engine) emittedTotal() int64 {
	var total int64
	for _, b := range e.snap().boxes {
		total += b.outCount.Load()
	}
	return total
}

// QueuedTuples returns the total number of tuples waiting in box queues.
func (e *Engine) QueuedTuples() int {
	total := 0
	for _, b := range e.snap().boxes {
		for _, q := range b.inQ {
			total += q.Len()
		}
	}
	return total
}

// QueuedBytes returns the total bytes of queue state: box input queues
// plus connection-point history windows, maintained atomically at
// push/pop and history add/evict (the storage manager's accounting
// input). History is the §2.3 state that dominates memory, so it is
// charged here — an engine whose network retains history reports
// nonzero QueuedBytes even when no tuple is waiting to run.
func (e *Engine) QueuedBytes() int { return int(e.qBytes.Load()) }

// BoxStats reports the monitored operational statistics of §7.1 for one
// box: average processing cost, average queueing delay, selectivity, and
// current queue length.
type BoxStats struct {
	ID          string
	Cost        float64 // exclusive ns per tuple over the train body (see boxState.cost)
	Wait        float64 // ns queueing delay
	Selectivity float64 // out tuples per in tuple
	Queued      int
	Processed   int64 // tuples consumed since the engine started
}

// Stats returns the current statistics for the named box.
func (e *Engine) Stats(boxID string) (BoxStats, bool) {
	b, ok := e.snap().byID[boxID]
	if !ok {
		return BoxStats{}, false
	}
	in, out := b.inCount.Load(), b.outCount.Load()
	sel := 0.0
	if in > 0 {
		sel = float64(out) / float64(in)
	}
	queued := 0
	for _, q := range b.inQ {
		queued += q.Len()
	}
	return BoxStats{
		ID:          boxID,
		Cost:        b.cost.Value(),
		Wait:        b.wait.Value(),
		Selectivity: sel,
		Queued:      queued,
		Processed:   in,
	}, true
}

// AllStats returns stats for every box in topological order.
func (e *Engine) AllStats() []BoxStats {
	boxes := e.snap().boxes
	out := make([]BoxStats, 0, len(boxes))
	for _, b := range boxes {
		s, _ := e.Stats(b.id)
		out = append(out, s)
	}
	return out
}

// ConnectionPoints lists the ports with retained history — the
// predetermined arcs of §2.2 where ad hoc queries may attach.
func (e *Engine) ConnectionPoints() []query.Port {
	out := make([]query.Port, 0, len(e.cpHist))
	for p := range e.cpHist {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Box != out[j].Box {
			return out[i].Box < out[j].Box
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// AttachAdHoc attaches an ad hoc consumer to a connection point (§2.2):
// the retained history is replayed into fn first, then fn receives every
// live tuple crossing the arc. The returned count is the replayed history
// length. Ad hoc queries are typically another Engine's Ingest wrapped in
// fn.
func (e *Engine) AttachAdHoc(p query.Port, fn func(stream.Tuple)) (int, error) {
	h, ok := e.cpHist[p]
	if !ok {
		return 0, fmt.Errorf("engine: %v is not a connection point", p)
	}
	e.cpMu.Lock()
	replay := h.Replay()
	e.cpMu.Unlock()
	for _, t := range replay {
		fn(t)
	}
	b := e.snap().byID[p.Box]
	tap := op.Emit(func(_ int, t stream.Tuple) { fn(t) })
	// Publish the new tap with amortized-doubling growth under cpMu (the
	// registration lock): when the published backing array has spare
	// capacity, the new tap is written one slot past the published length
	// and a longer slice header is swapped in — readers holding the old
	// header never index that slot, so no copy is needed. Only a full
	// backing array copies the existing taps (into double the capacity),
	// which keeps total copy work linear in registrations. The previous
	// scheme rebuilt the whole list on every attach, going quadratic
	// under dspstat-watch attach/detach churn; tapCopies counts copied
	// elements so the regression test can pin the linear bound.
	e.cpMu.Lock()
	slot := &b.taps[p.Port]
	var nl []op.Emit
	if old := slot.Load(); old != nil && len(*old) < cap(*old) {
		nl = append(*old, tap)
	} else if old != nil {
		nl = make([]op.Emit, len(*old), 2*(len(*old)+1))
		copy(nl, *old)
		e.tapCopies.Add(uint64(len(*old)))
		nl = append(nl, tap)
	} else {
		nl = make([]op.Emit, 0, 4)
		nl = append(nl, tap)
	}
	slot.Store(&nl)
	e.cpMu.Unlock()
	return len(replay), nil
}

// TapCopies returns the cumulative number of tap elements copied during
// AttachAdHoc registrations — the regression meter for the linear-growth
// bound (the old rebuild-on-every-attach scheme was quadratic).
func (e *Engine) TapCopies() uint64 { return e.tapCopies.Load() }

// EarliestDependency returns the lowest sequence number that the engine's
// in-flight state still depends on: the minimum over queued tuples and
// the state of every stateful operator (op.Stateful). The HA protocol
// (§6.2) reports this on the back channel so upstream servers can
// truncate their output queues. ok is false when the engine holds no
// state at all.
func (e *Engine) EarliestDependency() (uint64, bool) {
	var min uint64
	found := false
	note := func(seq uint64) {
		if !found || seq < min {
			min, found = seq, true
		}
	}
	for _, b := range e.snap().boxes {
		for _, q := range b.inQ {
			q.ForEach(func(en entry) { note(en.t.Seq) })
		}
		if s, ok := b.inst.(op.Stateful); ok {
			if seq, ok := s.EarliestSeq(); ok {
				note(seq)
			}
		}
	}
	return min, found
}

// Monitor exposes the QoS monitor.
func (e *Engine) Monitor() *Monitor { return e.monitor }

// Output returns per-output QoS observations.
func (e *Engine) Output(name string) (OutputReport, bool) {
	os, ok := e.outputs[name]
	if !ok {
		return OutputReport{}, false
	}
	return os.report(), true
}

// OutputNames lists the engine's application outputs.
func (e *Engine) OutputNames() []string {
	names := make([]string, 0, len(e.outputs))
	for n := range e.outputs {
		names = append(names, n)
	}
	return names
}

// Storage exposes the storage manager's accounting.
func (e *Engine) Storage() *Storage { return e.storage }

// Shedder returns the load shedder, or nil when shedding is disabled.
func (e *Engine) Shedder() *Shedder { return e.shedder }

// Network returns the network this engine executes.
func (e *Engine) Network() *query.Network { return e.net }

// Clock returns the engine's clock.
func (e *Engine) Clock() Clock { return e.clock }

// Ingested returns the number of tuples offered to the engine.
func (e *Engine) Ingested() uint64 { return e.ingested.Load() }

// Steps returns the number of scheduling decisions executed.
func (e *Engine) Steps() uint64 { return e.steps.Load() }

// Metrics returns the engine's metric registry (counters, trace component
// histograms, per-output latency histograms).
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Tracer returns the engine's tracer, nil when tracing is disabled.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Journal returns the engine's event journal, nil when journaling is
// disabled.
func (e *Engine) Journal() *events.Journal { return e.journal }

// Draining reports whether a Drain is in progress — the run-state
// /healthz exposes: a draining engine is shutting its network down and
// should not be offered new work.
func (e *Engine) Draining() bool { return e.draining.Load() }
