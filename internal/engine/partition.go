package engine

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/trace"
)

// This file is the runtime half of the box split of §5.1 (the
// network-rewrite half is internal/loadmgr): a box is split in place into
// N key-sharded replica instances that the scheduler runs like any other
// boxes, and folded back later, with in-flight work drained across both
// transitions so no tuple is lost or duplicated. Chaos Split events and
// core.Cluster.ForceSplit drive it.
//
// A transition runs on the run loop, at a step boundary, so no operator
// instance is mid-train. Deliveries from a concurrent IngestTrain are
// queue pushes that may race it, so the route flip is guarded
// separately: partition.mu makes the check-active-and-push step atomic
// against the flip, which means that after a flip no tuple can land on
// the losing side.

// partition is the runtime split state attached to a parent box: the
// key-sharded replicas, the merge chain folding their output back
// together, and the hash route that deliverTrain consults.
type partition struct {
	parent *boxState
	n      int
	reps   []*boxState
	merge  []*boxState // flow order; empty for stateless operators
	keyIdx []int       // key columns in the parent input schema; nil = round-robin
	rr     atomic.Uint64

	// mu guards active: deliverTrain admits tuples to replicas under the read
	// lock, transitions flip active under the write lock, so a flip
	// strictly orders every in-flight admission to one side of it.
	mu     sync.RWMutex
	active bool
}

// admit pushes t onto the key-owning replica's queue when the partition
// is active, reporting whether it did. The push happens under the route
// read-lock so an un-split's flip can never strand a tuple on a replica
// being drained.
func (p *partition) admit(t stream.Tuple, now int64, size int) bool {
	p.mu.RLock()
	if !p.active {
		p.mu.RUnlock()
		return false
	}
	p.reps[p.shard(t)].inQ[0].PushSized(t, now, size)
	p.mu.RUnlock()
	return true
}

// shard maps a tuple to its replica: FNV-64a over the formatted key
// columns (the same hash family as op.HashCall, so §5.2's "hash-half"
// intuition carries over), or round-robin when the operator declared no
// key.
func (p *partition) shard(t stream.Tuple) int {
	if len(p.keyIdx) == 0 {
		return int(p.rr.Add(1) % uint64(p.n))
	}
	h := fnv.New64a()
	for _, i := range p.keyIdx {
		h.Write([]byte(t.Field(i).Format()))
		h.Write([]byte{0x1f})
	}
	return int(h.Sum64() % uint64(p.n))
}

// buildPartition constructs (but does not install) a partition for b:
// n fresh replica instances of the parent's spec and the operator's
// declared merge chain, wired replicas -> merge head -> ... -> merge
// tail -> the parent's downstream routes (or replicas directly into the
// parent's downstream when no merge is needed).
func (e *Engine) buildPartition(b *boxState, n int, prof op.SplitProfile) (*partition, error) {
	inSchemas := e.net.InputSchemas(b.id)
	p := &partition{parent: b, n: n}
	if len(prof.Key) > 0 {
		idx, err := inSchemas[0].Indices(prof.Key...)
		if err != nil {
			return nil, fmt.Errorf("engine: split of %q: %w", b.id, err)
		}
		p.keyIdx = idx
	}

	newBox := func(id string, inst op.Operator, replica int) *boxState {
		nb := &boxState{
			id:       id,
			inst:     inst,
			inQ:      []*entryQueue{newEntryQueue()},
			virtCost: b.virtCost,
			cost:     metrics.NewEWMA(0.2),
			wait:     metrics.NewEWMA(0.2),
			replica:  replica,
			parentID: b.id,
		}
		nb.downstream = make([][]route, inst.NumOut())
		nb.cpH = make([]*stream.History, inst.NumOut())
		nb.taps = make([]atomic.Pointer[[]op.Emit], inst.NumOut())
		nb.refreshInst()
		return nb
	}

	spec := e.net.Box(b.id).Spec
	for k := 1; k <= n; k++ {
		inst, err := op.Build(spec)
		if err != nil {
			return nil, fmt.Errorf("engine: split of %q: %w", b.id, err)
		}
		if inst.NumIn() != 1 || inst.NumOut() != 1 {
			return nil, fmt.Errorf("engine: split of %q: only single-input single-output boxes can be split", b.id)
		}
		if _, err := inst.Bind(inSchemas); err != nil {
			return nil, fmt.Errorf("engine: split of %q: %w", b.id, err)
		}
		p.reps = append(p.reps, newBox(fmt.Sprintf("%s#%d", b.id, k), inst, k))
	}

	cur := e.net.OutputSchema(query.Port{Box: b.id, Port: 0})
	for i, ms := range prof.Merge {
		inst, err := op.Build(ms)
		if err != nil {
			return nil, fmt.Errorf("engine: split of %q: merge stage %d: %w", b.id, i+1, err)
		}
		outs, err := inst.Bind([]*stream.Schema{cur})
		if err != nil {
			return nil, fmt.Errorf("engine: split of %q: merge stage %d: %w", b.id, i+1, err)
		}
		cur = outs[0]
		p.merge = append(p.merge, newBox(fmt.Sprintf("%s#m%d", b.id, i+1), inst, 0))
	}

	// Wire the internal routes. The merge tail (or each replica, when no
	// merge is needed) shares the parent's downstream slice, so split
	// output reaches exactly the consumers the unsplit box fed.
	repDown := b.downstream[0]
	if len(p.merge) > 0 {
		repDown = []route{{box: p.merge[0], port: 0}}
		for i := 0; i < len(p.merge)-1; i++ {
			p.merge[i].downstream[0] = []route{{box: p.merge[i+1], port: 0}}
		}
		p.merge[len(p.merge)-1].downstream[0] = b.downstream[0]
	}
	for _, rb := range p.reps {
		rb.downstream[0] = repDown
	}
	return p, nil
}

// refreshPartition rebuilds the operator instances of a cached partition
// before it is reused: a flushed operator is empty but not virgin — a
// merge WSort retains its release watermark across flushes and would
// silently discard the next cycle's "late" keys. The box identities (and
// with them the replicas' stats series and counters) stay stable; only
// the instances start over.
func (e *Engine) refreshPartition(b *boxState, p *partition, prof op.SplitProfile) error {
	inSchemas := e.net.InputSchemas(b.id)
	spec := e.net.Box(b.id).Spec
	for _, rb := range p.reps {
		inst, err := op.Build(spec)
		if err != nil {
			return fmt.Errorf("engine: re-split of %q: %w", b.id, err)
		}
		if _, err := inst.Bind(inSchemas); err != nil {
			return fmt.Errorf("engine: re-split of %q: %w", b.id, err)
		}
		rb.inst = inst
		rb.refreshInst()
	}
	cur := e.net.OutputSchema(query.Port{Box: b.id, Port: 0})
	for i, mb := range p.merge {
		inst, err := op.Build(prof.Merge[i])
		if err != nil {
			return fmt.Errorf("engine: re-split of %q: merge stage %d: %w", b.id, i+1, err)
		}
		outs, err := inst.Bind([]*stream.Schema{cur})
		if err != nil {
			return fmt.Errorf("engine: re-split of %q: merge stage %d: %w", b.id, i+1, err)
		}
		cur = outs[0]
		mb.inst = inst
		mb.refreshInst()
	}
	return nil
}

// SplitBox splits the named box into n key-sharded replicas at runtime.
// The parent's backlog is first processed through its own instance and
// its windowed state flushed downstream (the §5.1 stabilization, scoped
// to one box), then the hash route is activated — so no tuple is lost,
// duplicated, or reordered within its key class across the transition.
// The parent stays in the topology as the un-split fold-back point.
//
// SplitBox follows the control contract: call it from the run loop's
// goroutine between steps, or let RequestSplit route it through a step
// boundary; it must not race Step.
func (e *Engine) SplitBox(id string, n int) error {
	e.topoMu.Lock()
	defer e.topoMu.Unlock()
	if n < 2 {
		return fmt.Errorf("engine: split of %q: need at least 2 replicas, got %d", id, n)
	}
	b, ok := e.snap().byID[id]
	if !ok {
		return fmt.Errorf("engine: no box %q", id)
	}
	if b.parentID != "" {
		return fmt.Errorf("engine: box %q is part of the split of %q and cannot be split itself", id, b.parentID)
	}
	if b.part.Load() != nil {
		return fmt.Errorf("engine: box %q is already split", id)
	}
	prof, err := op.SplitProfileFor(e.net.Box(id).Spec)
	if err != nil {
		return fmt.Errorf("engine: box %q: %w", id, err)
	}
	p := b.cached
	if p == nil || p.n != n {
		// First split, or a different width: build fresh. The partition
		// is cached across split/unsplit cycles so oscillating load
		// neither regrows the topology nor resets replica counters.
		p, err = e.buildPartition(b, n, prof)
		if err != nil {
			return err
		}
		b.cached = p
	} else if err := e.refreshPartition(b, p, prof); err != nil {
		return err
	}

	// Stabilize the parent: process its backlog and flush open windowed
	// state downstream, so the replicas start from clean per-key state.
	e.drainAndFlush(b)

	e.installPartition(b, p)
	b.part.Store(p)
	b.plain = e.plainBox(b)
	p.mu.Lock()
	p.active = true
	// Sweep tuples that raced into the parent queue between the backlog
	// drain and activation out to their shards. Under the write lock no
	// admission is mid-flight, so the queue cannot refill behind the
	// sweep; anything delivered after the flip hashes to a replica.
	for {
		en, ok := b.inQ[0].Pop()
		if !ok {
			break
		}
		p.reps[p.shard(en.t)].inQ[0].PushSized(en.t, en.enq, en.size)
	}
	p.mu.Unlock()
	e.splitCtr.Add(1)
	e.journalTransition(events.KindSplit, id, n)
	return nil
}

// journalTransition records an installed split or unsplit in the journal
// and the flight recorder under one fresh correlation id, so the trace
// mark and the event join.
func (e *Engine) journalTransition(kind events.Kind, id string, replicas int) {
	now := e.clock.Now()
	var corr uint64
	if e.journal != nil {
		corr = e.journal.NewCorr()
		e.journal.Append(events.Event{
			Time: now, Kind: kind, Subject: id, Corr: corr,
			V1: float64(replicas),
		})
	}
	e.tracer.AnnotateID(corr, kind.String()+":"+id, now)
}

// UnsplitBox folds a split box back to its single instance: the route is
// flipped first (new deliveries land on the parent again), then every
// replica and merge stage is drained and flushed in flow order, so the
// partials buffered in the merge network reach the downstream consumers
// before the replicas retire. Same calling contract as SplitBox.
func (e *Engine) UnsplitBox(id string) error {
	e.topoMu.Lock()
	defer e.topoMu.Unlock()
	b, ok := e.snap().byID[id]
	if !ok {
		return fmt.Errorf("engine: no box %q", id)
	}
	p := b.part.Load()
	if p == nil {
		return fmt.Errorf("engine: box %q is not split", id)
	}
	p.mu.Lock()
	p.active = false
	p.mu.Unlock()
	b.part.Store(nil)
	b.plain = e.plainBox(b)

	// Drain in flow order: each replica's backlog and flush feed the
	// merge head; each merge stage's backlog and flush feed the next.
	for _, rb := range p.reps {
		e.drainAndFlush(rb)
	}
	for _, mb := range p.merge {
		e.drainAndFlush(mb)
	}
	e.removePartition(b, p)
	e.unsplitCtr.Add(1)
	e.journalTransition(events.KindUnsplit, id, len(p.reps))
	return nil
}

// drainAndFlush pops every queued tuple of a single-input box
// through its instance and then forces its windowed state out — the
// per-box half of §5.1's "drain the network" protocol, used by both
// transitions. Unlike a train it models no processing time: the
// transition itself is instantaneous under a virtual clock.
func (e *Engine) drainAndFlush(b *boxState) {
	e.openEmit(b)
	for {
		en, ok := b.inQ[0].Pop()
		if !ok {
			break
		}
		e.qBytes.Add(int64(-en.size))
		b.inCount.Add(1)
		if sp := en.t.Span; sp != nil {
			sp.MarkReplica(trace.KindQueue, b.id, b.replica, e.clock.Now())
			b.cur = sp
		}
		b.inst.Process(0, en.t, b.collect)
		b.cur = nil
		e.flushEmits(b)
	}
	b.inst.Flush(b.collect)
	e.closeEmit(b)
}

// installPartition swaps in a topology snapshot with the replicas and
// merge boxes inserted directly after the parent, preserving topological
// order. Callers hold topoMu.
func (e *Engine) installPartition(b *boxState, p *partition) {
	old := e.snap()
	add := make([]*boxState, 0, len(p.reps)+len(p.merge))
	add = append(add, p.reps...)
	add = append(add, p.merge...)
	boxes := make([]*boxState, 0, len(old.boxes)+len(add))
	for _, ob := range old.boxes {
		boxes = append(boxes, ob)
		if ob == b {
			boxes = append(boxes, add...)
		}
	}
	timed := append([]*boxState(nil), old.timed...)
	for _, nb := range add {
		if nb.timed {
			timed = append(timed, nb)
		}
	}
	byID := make(map[string]*boxState, len(old.byID)+len(add))
	for k, v := range old.byID {
		byID[k] = v
	}
	for _, nb := range add {
		byID[nb.id] = nb
	}
	e.snapPtr.Store(&topoSnap{boxes: boxes, timed: timed, byID: byID})
}

// removePartition swaps in a topology snapshot without the partition's
// replicas and merge boxes. Callers hold topoMu.
func (e *Engine) removePartition(b *boxState, p *partition) {
	gone := make(map[*boxState]bool, len(p.reps)+len(p.merge))
	for _, rb := range p.reps {
		gone[rb] = true
	}
	for _, mb := range p.merge {
		gone[mb] = true
	}
	old := e.snap()
	boxes := make([]*boxState, 0, len(old.boxes)-len(gone))
	var timed []*boxState
	for _, ob := range old.boxes {
		if !gone[ob] {
			boxes = append(boxes, ob)
		}
	}
	for _, ob := range old.timed {
		if !gone[ob] {
			timed = append(timed, ob)
		}
	}
	byID := make(map[string]*boxState, len(old.byID))
	for k, v := range old.byID {
		if !gone[v] {
			byID[k] = v
		}
	}
	e.snapPtr.Store(&topoSnap{boxes: boxes, timed: timed, byID: byID})
}

// transRequest is one pending split or un-split, applied at the next step
// boundary.
type transRequest struct {
	box   string
	n     int
	split bool
}

// RequestSplit asks the engine to split the named box into n replicas at
// the next step boundary. It is safe from any goroutine, including
// concurrently with Step; the latest request wins the single pending
// slot. Errors in the eventual transition (unknown box, not splittable,
// already split) are dropped — requests are advisory.
func (e *Engine) RequestSplit(box string, n int) {
	e.pendTrans.Store(&transRequest{box: box, n: n, split: true})
}

// RequestUnsplit asks the engine to fold the named box back at the next
// step boundary. Same contract as RequestSplit.
func (e *Engine) RequestUnsplit(box string) {
	e.pendTrans.Store(&transRequest{box: box})
}

// applyPending consumes the pending transition at a step boundary. Drain
// drops the request pending when it starts, and one made while it runs
// waits for the first step after it.
func (e *Engine) applyPending() {
	if e.draining.Load() {
		return
	}
	req := e.pendTrans.Swap(nil)
	switch {
	case req == nil:
	case req.split:
		_ = e.SplitBox(req.box, req.n)
	default:
		_ = e.UnsplitBox(req.box)
	}
}

// SplitState describes a box's runtime split, for introspection.
type SplitState struct {
	Box      string
	Replicas []string // replica box ids, in shard order
	Merge    []string // merge chain box ids, in flow order
	Active   bool
}

// BoxSplit reports whether the named box exists and, when it is split,
// the replica and merge topology serving it.
func (e *Engine) BoxSplit(id string) (SplitState, bool) {
	b, ok := e.snap().byID[id]
	if !ok {
		return SplitState{}, false
	}
	st := SplitState{Box: id}
	p := b.part.Load()
	if p == nil {
		return st, true
	}
	p.mu.RLock()
	st.Active = p.active
	p.mu.RUnlock()
	for _, rb := range p.reps {
		st.Replicas = append(st.Replicas, rb.id)
	}
	for _, mb := range p.merge {
		st.Merge = append(st.Merge, mb.id)
	}
	return st, true
}

// SplitCounts returns the cumulative number of split and un-split
// transitions the engine has executed.
func (e *Engine) SplitCounts() (splits, unsplits uint64) {
	return e.splitCtr.Load(), e.unsplitCtr.Load()
}
