package engine

import "sync"

// This file is the parallel wall-clock execution path: a worker pool
// where the scheduler dispatches conflict-free box trains to idle
// workers. The ownership protocol is simple and strict — a box instance
// is owned by at most one worker at a time (boxState.running, guarded by
// the dispatcher mutex), so operators stay single-threaded internally and
// each box consumes its input queues in FIFO order. A worker runs the
// same train body Step does (runTrain), whose emissions are routed while
// the worker still owns the box, so downstream delivery order per (box,
// port) is exactly the box's emission order. The deterministic
// virtual-clock path stays serial and byte-identical: Config.Workers with
// a VirtualClock is rejected in New, and RunParallel panics on one.

// dispatcher coordinates one RunParallel invocation. The mutex guards the
// scheduler, box ownership flags, and the idle/busy accounting; the cond
// wakes waiting workers when a train completes (possibly freeing a box or
// producing downstream work) or when Ingest delivers from outside.
type dispatcher struct {
	mu    sync.Mutex
	cond  *sync.Cond
	busy  int // workers currently executing a train
	done  bool
	steps uint64
}

// kick wakes idle workers; Ingest calls it after delivering new work.
func (d *dispatcher) kick() {
	d.mu.Lock()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// unowned is the dispatcher's scheduler filter: boxes no worker is
// running. Callers hold d.mu.
func unowned(b *boxState) bool { return !b.running }

// Run executes queued work with the configured policy: the worker pool
// when Config.Workers > 1 on a wall clock, the serial loop otherwise. It
// returns the number of scheduling decisions executed.
func (e *Engine) Run() int {
	if e.workers > 1 && e.vclock == nil {
		return e.RunParallel(e.workers)
	}
	return e.RunUntilIdle(0)
}

// Workers returns the configured worker-pool size (0 or 1 means serial).
func (e *Engine) Workers() int { return e.workers }

// RunParallel drains queued work with a pool of workers and returns the
// number of trains executed. It returns when every queue is empty and
// every worker idle; tuples Ingested concurrently are picked up until
// that quiescent instant. Only one RunParallel may be in flight at a
// time, and it requires a wall clock — deterministic virtual time is
// serial by design.
func (e *Engine) RunParallel(workers int) int {
	if e.vclock != nil {
		panic("engine.RunParallel requires a wall clock: virtual time is serial by design")
	}
	if workers <= 1 {
		return e.RunUntilIdle(0)
	}
	total := 0
	for {
		d := &dispatcher{}
		d.cond = sync.NewCond(&d.mu)
		if !e.disp.CompareAndSwap(nil, d) {
			panic("engine: concurrent RunParallel invocations")
		}
		var wg sync.WaitGroup
		for i := 1; i <= workers; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				e.runWorker(d, id)
			}(i)
		}
		wg.Wait()
		e.disp.Store(nil)
		total += int(d.steps)
		// Quiescent: no queued work, no owner anywhere. Give time-driven
		// operators their Advance; if that emitted fresh work, run
		// another round.
		e.advanceTimeSensitive(e.clock.Now())
		if e.QueuedTuples() == 0 {
			return total
		}
	}
}

// runWorker is one pool member's loop: ask the scheduler for a train on a
// box no worker owns, run it, repeat; sleep when nothing is runnable but a
// peer is still busy (its train may produce work); exit when the whole
// engine is idle. id is 1-based and stamped into trace stages.
func (e *Engine) runWorker(d *dispatcher, id int) {
	d.mu.Lock()
	for !d.done {
		// A requested split/unsplit gets first claim on box ownership at
		// every train boundary, so the transition wins the race against
		// re-dispatching the hot box to another worker. When the involved
		// boxes are still owned, fall through to normal dispatch — the
		// owner's completion broadcast triggers the retry.
		if e.pendTrans.Load() != nil && e.tryApplyPendingParallel(d) {
			continue
		}
		b, port, train := e.sched.Next(e, unowned)
		if b == nil {
			if d.busy == 0 {
				// Nothing queued and nobody running: the pool is done.
				d.done = true
				d.cond.Broadcast()
				break
			}
			d.cond.Wait()
			continue
		}
		b.running = true
		d.busy++
		d.mu.Unlock()

		e.runTrain(b, port, train, id)
		if b.timed {
			// Time obligations for the owned box only; other time-driven
			// boxes get theirs when a worker owns them or at pool
			// quiescence.
			e.advanceBox(b, id, e.clock.Now())
		}
		e.noteStep()

		d.mu.Lock()
		b.running = false
		d.busy--
		d.steps++
		// The train may have filled downstream queues, and this box is
		// free again: let waiting workers re-evaluate.
		d.cond.Broadcast()
	}
	d.mu.Unlock()
}
