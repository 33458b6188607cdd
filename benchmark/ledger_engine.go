package main

import (
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/stream"
)

// engineCosts prices the engine on the workload's own networks: each
// node's piece is built in-process and driven the way auroranode's
// transport handler drives it — Ingest every tuple of an inbound
// message, then Run — with the messages sized as they arrive at that
// node (source trains at the first, single tuples after a route). All
// figures are per source tuple, summed over the nodes.
type engineCosts struct {
	perTuple cost    // Ingest + Run
	ingestNs float64 // wall, Ingest only
	runNs    float64 // wall, Run only
	allocs   float64 // heap allocations
}

// nodeReplay is one node's piece of the query running in this process.
type nodeReplay struct {
	def     nodeDef
	eng     *engine.Engine
	collect bool           // keep what the output delivers
	out     []stream.Tuple // collected outputs
	// Wall time spent inside Ingest and inside Run, over all replays.
	ingestNs, runNs int64
}

func newNodeReplay(def nodeDef) (*nodeReplay, error) {
	net, err := def.network()
	if err != nil {
		return nil, err
	}
	r := &nodeReplay{def: def}
	if r.eng, err = engine.New(net, engine.Config{}); err != nil {
		return nil, err
	}
	r.eng.OnOutput(func(_ string, t stream.Tuple) {
		if r.collect {
			r.out = append(r.out, t)
		}
	})
	return r, nil
}

// replay feeds input through the node in messages of msgLen tuples.
func (r *nodeReplay) replay(input []stream.Tuple, msgLen int) {
	for i := 0; i < len(input); i += msgLen {
		t0 := time.Now()
		for _, t := range input[i:min(i+msgLen, len(input))] {
			r.eng.Ingest(r.def.input, t)
		}
		t1 := time.Now()
		r.eng.Run()
		r.ingestNs += int64(t1.Sub(t0))
		r.runNs += int64(time.Since(t1))
	}
}

func ledgerEngine(in ledgerInput) (engineCosts, error) {
	var c engineCosts
	input, msgLen := in.tuples, in.w.phases[in.w.tputPhase].trainLen
	sourceTuples := float64(len(in.tuples))
	for _, def := range in.w.nodes {
		r, err := newNodeReplay(def)
		if err != nil {
			return c, err
		}
		// One pass with the outputs kept feeds the next node; it also
		// warms the engine's pools before the clock starts.
		r.collect = true
		r.replay(input, msgLen)
		r.collect, r.ingestNs, r.runNs = false, 0, 0

		var before, after runtime.MemStats
		passes := 0
		runtime.ReadMemStats(&before)
		nodeCost := timeOps(in.budget, len(input), func(int) {
			r.replay(input, msgLen)
			passes++
		})
		runtime.ReadMemStats(&after)
		// timeOps' own warm-up pass is in passes, in the allocation count
		// and in the Ingest/Run clocks alike, so the ratios below hold.
		perSource := func(total float64) float64 { return total / float64(passes) / sourceTuples }
		share := float64(len(input)) / sourceTuples // of source tuples reaching this node
		c.perTuple.wallNs += nodeCost.wallNs * share
		c.perTuple.cpuNs += nodeCost.cpuNs * share
		c.ingestNs += perSource(float64(r.ingestNs))
		c.runNs += perSource(float64(r.runNs))
		c.allocs += perSource(float64(after.Mallocs - before.Mallocs))
		if input, msgLen = r.out, 1; len(input) == 0 {
			break
		}
	}
	return c, nil
}
