package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// runTraced is the --trace 1 run. Each phase runs an untraced stretch and
// then a traced one on the same processes, so the difference between the
// two is the tracing overhead; the per-layer counts come from the traced
// stretch, the per-layer prices from the ledger afterwards. No end-to-end
// metric is ever read from this run.
func runTraced(w *workload, cfg config) (*result, error) {
	res := newResult(w, cfg.env)
	rec := &spanRecorder{}
	g, _, err := bringUp(w, cfg, w.name+"-traced", rec)
	if err != nil {
		return nil, err
	}
	defer shutDown(g)

	tf := &traceFile{Workload: w.name, Seed: cfg.seed, Env: cfg.env}
	plain := make([]*window, len(w.phases))
	traced := make([]*window, len(w.phases))
	for i, p := range w.phases {
		measured := cfg.seconds * p.share
		ws, err := g.runPhase(p, []segment{
			{name: "warmup", dur: warmup(measured)},
			{name: "untraced", dur: secs(measured / 4), record: true},
			{name: "traced", dur: secs(measured / 2), record: true, traced: true},
		})
		if err != nil {
			return nil, err
		}
		plain[i], traced[i] = ws[0], ws[1]
		for _, win := range ws {
			tf.Windows = append(tf.Windows, traceWin{Phase: p.name, Segment: win.segment,
				Seconds: win.seconds, Before: win.before, After: win.after})
			tf.Tuples = append(tf.Tuples, win.spans...)
		}
	}
	if err := g.c.alive(); err != nil {
		return nil, err
	}
	v := g.verdict()
	res.account(v)
	res.Correct = res.Failed == 0
	segments := countSegments(g.c.dir)
	// The ledger is single-threaded and wants the machine to itself.
	shutDown(g)

	led, err := runLedger(w, cfg)
	if err != nil {
		return nil, err
	}

	tw, lw := traced[w.tputPhase], traced[w.latPhase]
	if tw.inputs == 0 {
		return nil, fmt.Errorf("%s: nothing was verified in the traced window", w.name)
	}
	inputs := float64(tw.inputs)
	total := sumProcs(tw.procs)
	perTuple := func(v int64) float64 { return float64(v) / inputs }

	// node: the auroranode processes, from /proc.
	nodeCPU := [2]float64{}
	for i, p := range tw.procs {
		nodeCPU[i] = perTuple(p.cpuNs()) / 1e3
	}
	res.set("node.n1.cpu_us_per_tuple", nodeCPU[0], "us")
	res.set("node.n2.cpu_us_per_tuple", nodeCPU[1], "us")
	res.set("node.sys_share", float64(total.CPUSysNs)/float64(max(total.cpuNs(), 1)), "ratio")
	res.set("node.write_syscalls_per_tuple", perTuple(total.WriteCalls), "count")
	res.set("node.read_syscalls_per_tuple", perTuple(total.ReadCalls), "count")
	res.set("node.ctx_switches_per_tuple", perTuple(total.CtxSwitch), "count")
	res.set("node.peak_rss_mb", float64(total.PeakRSSKB)/1024, "MB")

	// transport and engine counters, scraped from the nodes.
	var msgs, bytes, dropped, reconnects, shed int64
	routedBy := make([]float64, len(w.nodes)) // tuples node i routed on, per source tuple
	busy := [2]float64{}
	wall := float64(tw.after.AtNs - tw.before.AtNs)
	for i := range w.nodes {
		m1, b1, d1, r1 := tw.after.Nodes[i].linkTotals()
		m0, b0, _, _ := tw.before.Nodes[i].linkTotals()
		msgs, bytes, dropped, reconnects = msgs+m1-m0, bytes+b1-b0, dropped+d1, reconnects+r1
		shed += counterDelta(tw.before, tw.after, i, "engine.shed")
		routedBy[i] = perTuple(counterDelta(tw.before, tw.after, i, "engine.delivered"))
		busy[i] = float64(counterDelta(tw.before, tw.after, i, "engine.busy_ns")) / wall
	}
	routed := 0.0
	for _, r := range routedBy {
		routed += r * inputs
	}
	res.set("transport.frames_per_tuple", float64(msgs)/math.Max(routed, 1), "count")
	res.set("transport.wire_bytes_per_tuple", float64(bytes)/math.Max(routed, 1), "B")
	res.set("transport.dropped", float64(dropped)+float64(v.dropped), "count")
	res.set("transport.reconnects", float64(reconnects), "count")
	res.set("transport.encode_ns_per_tuple.t1", led.transport.encode1.wallNs, "ns")
	res.set("transport.encode_ns_per_tuple.t64", led.transport.encode64.wallNs, "ns")
	res.set("transport.decode_ns_per_tuple.t1", led.transport.decode1.wallNs, "ns")
	res.set("transport.decode_ns_per_tuple.t64", led.transport.decode64.wallNs, "ns")
	res.set("transport.tcp_ns_per_tuple.t1", led.transport.tcp1.wallNs, "ns")
	res.set("transport.tcp_ns_per_tuple.t64", led.transport.tcp64.wallNs, "ns")
	res.set("transport.tcp_oneway_us.t1", led.transport.onewayUs, "us")

	res.set("ha.send_ns_per_tuple", led.ha.send.wallNs, "ns")
	res.set("ha.recv_ns_per_tuple", led.ha.recv.wallNs, "ns")
	res.set("ha.acks_per_ktuple", 1e3*float64(tw.acks)/float64(max(tw.outputs, 1)), "count")
	res.set("ha.dups_suppressed", float64(v.suppress), "count")

	res.set("storage.append_sync_us", led.storage.appendSync.wallNs/1e3, "us")
	res.set("storage.append_nosync_ns", led.storage.appendNoSync.wallNs, "ns")
	res.set("storage.sync_us", led.storage.sync.wallNs/1e3, "us")
	res.set("storage.checkpoint_save_us", led.storage.checkpoint.wallNs/1e3, "us")
	res.set("storage.disk_bytes_per_tuple", perTuple(total.DiskBytes), "B")
	res.set("storage.segments", float64(segments), "count")

	res.set("engine.busy_share.n1", busy[0], "ratio")
	res.set("engine.busy_share.n2", busy[1], "ratio")
	res.set("engine.ns_per_tuple", led.engine.perTuple.wallNs, "ns")
	res.set("engine.ingest_ns_per_tuple", led.engine.ingestNs, "ns")
	res.set("engine.run_ns_per_tuple", led.engine.runNs, "ns")
	res.set("engine.allocs_per_tuple", led.engine.allocs, "count")
	res.set("engine.shed", float64(shed), "count")

	res.set("op.filter_ns_per_tuple", led.op.filter.wallNs, "ns")
	res.set("op.map_ns_per_tuple", led.op.mapper.wallNs, "ns")
	res.set("op.tumble_ns_per_tuple", led.op.tumble.wallNs, "ns")

	// span: the program's own decomposition, read at the sink.
	var q, p, n []int64
	var sumErr int64
	for _, sp := range lw.spans {
		q, p, n = append(q, sp.QueueNs), append(p, sp.ProcNs), append(n, sp.NetNs)
		if d := sp.QueueNs + sp.ProcNs + sp.NetNs - sp.TotalNs; d < 0 {
			sumErr -= d
		} else {
			sumErr += d
		}
	}
	for _, c := range []struct {
		name string
		v    []int64
	}{{"queue", q}, {"proc", p}, {"net", n}} {
		s := sortedCopy(c.v)
		var sum int64
		for _, x := range s {
			sum += x
		}
		res.set("span."+c.name+"_us.mean", float64(sum)/math.Max(float64(len(s)), 1)/1e3, "us")
		res.set("span."+c.name+"_us.p99", float64(quantile(s, 0.99))/1e3, "us")
	}
	res.set("span.sum_error", float64(sumErr), "ns")
	res.set("span.count", float64(len(lw.spans)), "count")

	// loadgen: the benchmark's own cost and punctuality.
	res.set("loadgen.late_p99_ms", float64(quantile(lw.lateNs, 0.99))/1e6, "ms")
	res.set("loadgen.cpu_share", float64(tw.selfCPUNs)/1e9/tw.seconds, "ratio")
	res.set("loadgen.send_ns_per_tuple", float64(tw.sendNs)/float64(max(tw.sendTuples, 1)), "ns")
	res.set("loadgen.sink_ns_per_tuple", float64(tw.sinkNs)/float64(max(tw.outputs, 1)), "ns")

	explained := led.explainedCPUNs(w, w.phases[w.tputPhase], routedBy)
	res.set("ledger.explained_share", explained/perTuple(total.cpuNs()), "ratio")
	res.set("trace.overhead_share", traceOverhead(w, plain, traced), "ratio")

	noteGenerator(res, traced)
	tf.Spans, tf.Dropped = rec.spans, rec.dropped
	path, err := writeTraceFile(cfg.outDir, tf)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d sampled tuples and %d benchmark spans written to %s\n",
		w.name, len(tf.Tuples), len(tf.Spans), path)
	return res, nil
}

// traceOverhead is how much worse the workload's defining metric got in
// the traced stretch: throughput lost where the workload is a closed
// loop, median latency added where it is an open one.
func traceOverhead(w *workload, plain, traced []*window) float64 {
	if p := w.phases[w.tputPhase]; !p.open {
		a, b := plain[w.tputPhase], traced[w.tputPhase]
		return 1 - (float64(b.inputs)/b.seconds)/(float64(a.inputs)/a.seconds)
	}
	a, b := plain[w.latPhase].lat, traced[w.latPhase].lat
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return float64(quantile(b, 0.5))/float64(quantile(a, 0.5)) - 1
}

// countSegments counts the segment files the durable nodes hold.
func countSegments(dir string) int {
	n := 0
	// A walk error only means fewer files counted.
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), "seg-") {
			n++
		}
		return nil
	})
	return n
}
