package op

import (
	"fmt"
	"testing"

	"repro/internal/stream"
)

// The batch-kernel contract: for every operator that implements
// TrainProcessor, ProcessTrain(port, ts, emit) over a train must emit
// exactly what a per-tuple Process loop over the same train emits — same
// ports, same order, same values. These tests drive both entry points on
// twin instances and diff the emission logs; the zero-alloc tests pin
// the "kernels allocate nothing in steady state" half of the tentpole.

type kemit struct {
	port int
	t    stream.Tuple
}

// collectKernel returns an Emit that logs emissions, disowning each tuple
// so the log may retain pool-owned Vals safely.
func collectKernel(log *[]kemit) Emit {
	return func(p int, t stream.Tuple) {
		t.Disown()
		*log = append(*log, kemit{port: p, t: t})
	}
}

// kernelSchema is t(A int, B int), kernelTrain's shape.
var kernelSchema = stream.MustSchema("t",
	stream.Field{Name: "A", Kind: stream.KindInt},
	stream.Field{Name: "B", Kind: stream.KindInt})

// workloadSchema is in(K, V, T), the stream the cross-process benchmark
// feeds its compute_sat chain; workloadTrain's shape.
var workloadSchema = stream.MustSchema("in",
	stream.Field{Name: "K", Kind: stream.KindInt},
	stream.Field{Name: "V", Kind: stream.KindInt},
	stream.Field{Name: "T", Kind: stream.KindInt})

// The five boxes of the benchmark's compute_sat chain, in chain order.
var (
	specHeadFilter = Spec{Kind: "filter", Params: map[string]string{"predicate": "V < 95"}}
	specMapTriple  = Spec{Kind: "map", Params: map[string]string{"exprs": "K=K; V=(V * 3); T=T"}}
	specMapShift   = Spec{Kind: "map", Params: map[string]string{"exprs": "K=K; V=(V - 6); T=T"}}
	specTailFilter = Spec{Kind: "filter", Params: map[string]string{"predicate": "(V > 0) && (K >= 0)"}}
	specTumbleMaxT = Spec{Kind: "tumble", Params: map[string]string{"agg": "max", "on": "T", "groupby": "K"}}
)

// buildBound builds and binds twin instances of one spec, every input
// port on schema s.
func buildBound(tb testing.TB, spec Spec, nin int, s *stream.Schema) (Operator, Operator) {
	tb.Helper()
	mk := func() Operator {
		o, err := Build(spec)
		if err != nil {
			tb.Fatal(err)
		}
		ins := make([]*stream.Schema, nin)
		for i := range ins {
			ins[i] = s
		}
		if _, err := o.Bind(ins); err != nil {
			tb.Fatal(err)
		}
		return o
	}
	return mk(), mk()
}

func kernelTrain(n int, seed uint64) []stream.Tuple {
	out := make([]stream.Tuple, n)
	s := seed
	for i := range out {
		s = s*6364136223846793005 + 1442695040888963407
		a := int64((s >> 33) % 8)
		s = s*6364136223846793005 + 1442695040888963407
		b := int64((s >> 33) % 100)
		out[i] = stream.Tuple{Seq: uint64(i + 1), TS: int64(i + 1),
			Vals: []stream.Value{stream.Int(a), stream.Int(b)}}
	}
	return out
}

// workloadTrain is the round'th run of n tuples shaped like compute_sat's
// source: K = (seq+128)/256, V uniform in [0, 100), and T a unix-ns
// timestamp about a microsecond after its predecessor, jittered so that
// neighbours sometimes fall within 256 ns, where float64 images tie.
func workloadTrain(n int, round uint64) []stream.Tuple {
	out := make([]stream.Tuple, n)
	s := round
	for i := range out {
		seq := round*uint64(n) + uint64(i) + 1
		s = s*6364136223846793005 + 1442695040888963407
		v := int64((s >> 33) % 100)
		s = s*6364136223846793005 + 1442695040888963407
		ts := int64(1_760_000_000_000_000_000) + int64(seq*1000) + int64((s>>33)%1000)
		out[i] = stream.Tuple{Seq: seq, TS: ts, Vals: []stream.Value{
			stream.Int(int64((seq + 128) / 256)), stream.Int(v), stream.Int(ts)}}
	}
	return out
}

func diffEmissions(t *testing.T, name string, serial, batch []kemit) {
	t.Helper()
	if len(serial) != len(batch) {
		t.Fatalf("%s: Process emitted %d, ProcessTrain emitted %d", name, len(serial), len(batch))
	}
	for i := range serial {
		if serial[i].port != batch[i].port {
			t.Fatalf("%s: emission %d port %d vs %d", name, i, serial[i].port, batch[i].port)
		}
		if serial[i].t.Seq != batch[i].t.Seq || serial[i].t.TS != batch[i].t.TS ||
			!serial[i].t.EqualValues(batch[i].t) {
			t.Fatalf("%s: emission %d diverged: %v vs %v", name, i, serial[i].t, batch[i].t)
		}
	}
}

func TestKernelEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		spec     Spec
		nin      int
		workload bool // compute_sat's in(K, V, T) rather than t(A, B)
	}{
		{"filter", Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 60"}}, 1, false},
		{"filter-dual", Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 60", "falseport": "true"}}, 1, false},
		// An int column against a float literal leaves the int lane.
		{"filter-mixed", Spec{Kind: "filter", Params: map[string]string{"predicate": "(B * 2) < 60.5"}}, 1, false},
		{"map", Spec{Kind: "map", Params: map[string]string{"exprs": "A=A; B=((B * 3) + (A % 7))"}}, 1, false},
		// A is zero in an eighth of the tuples: Mod by zero yields Null.
		{"map-mod-zero", Spec{Kind: "map", Params: map[string]string{"exprs": "A=A; M=(B % A); D=(B / A)"}}, 1, false},
		{"union", Spec{Kind: "union", Params: map[string]string{"inputs": "2"}}, 2, false},
		{"tumble", Spec{Kind: "tumble", Params: map[string]string{"agg": "sum", "on": "B", "groupby": "A"}}, 1, false},
		{"wsort", Spec{Kind: "wsort", Params: map[string]string{"attrs": "A", "timeout": "1000", "maxbuf": "16"}}, 1, false},
		{"wsort-timeout-only", Spec{Kind: "wsort", Params: map[string]string{"attrs": "A", "timeout": "1000"}}, 1, false},
		{"compute_sat/head-filter", specHeadFilter, 1, true},
		{"compute_sat/map-triple", specMapTriple, 1, true},
		{"compute_sat/map-shift", specMapShift, 1, true},
		{"compute_sat/tail-filter", specTailFilter, 1, true},
		{"compute_sat/tumble-max-T", specTumbleMaxT, 1, true},
	}
	// The engine hands a kernel whole trains on an untraced wall clock and
	// one tuple at a time otherwise, so ProcessTrain(ts[i:i+1]) must equal
	// Process just as a full train does; 2 catches an off-by-one at a
	// train boundary.
	for _, c := range cases {
		schema, train := kernelSchema, kernelTrain
		if c.workload {
			schema, train = workloadSchema, workloadTrain
		}
		for _, trainLen := range []int{1, 2, 256} {
			t.Run(fmt.Sprintf("%s/train=%d", c.name, trainLen), func(t *testing.T) {
				serialOp, batchOp := buildBound(t, c.spec, c.nin, schema)
				kernel, ok := batchOp.(TrainProcessor)
				if !ok {
					t.Fatalf("%s does not implement TrainProcessor", c.name)
				}
				var serialLog, batchLog []kemit
				se, be := collectKernel(&serialLog), collectKernel(&batchLog)
				// Several rounds back to back so stateful operators (tumble
				// windows, wsort buffers) carry state across train boundaries.
				for round := 0; round < 4; round++ {
					in := train(256, uint64(1+round))
					for i := range in {
						serialOp.Process(0, in[i], se)
					}
					for lo := 0; lo < len(in); lo += trainLen {
						kernel.ProcessTrain(0, in[lo:lo+trainLen], be)
					}
					// Time-driven operators flush on Advance; give both the
					// same clock schedule.
					now := int64((round + 1) * 2000)
					serialOp.Advance(now, se)
					batchOp.Advance(now, be)
				}
				diffEmissions(t, c.name, serialLog, batchLog)
				if len(serialLog) == 0 {
					t.Fatalf("%s: equivalence vacuous, no emissions", c.name)
				}
			})
		}
	}
}

// benchKernel reports ns per input tuple for ProcessAll over 256-tuple
// trains of compute_sat's shape, recycling emissions as the engine does.
func benchKernel(b *testing.B, spec Spec) {
	o, _ := buildBound(b, spec, 1, workloadSchema)
	var trains [][]stream.Tuple
	for r := uint64(0); r < 16; r++ {
		trains = append(trains, workloadTrain(256, r))
	}
	emit := Emit(func(_ int, t stream.Tuple) { t.Recycle() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ProcessAll(o, 0, trains[i%len(trains)], emit)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/tuple")
}

func BenchmarkKernelFilter(b *testing.B) {
	b.Run("head", func(b *testing.B) { benchKernel(b, specHeadFilter) })
	b.Run("tail", func(b *testing.B) { benchKernel(b, specTailFilter) })
}

func BenchmarkKernelMap(b *testing.B) {
	b.Run("triple", func(b *testing.B) { benchKernel(b, specMapTriple) })
	b.Run("shift", func(b *testing.B) { benchKernel(b, specMapShift) })
}

func BenchmarkKernelTumble(b *testing.B) { benchKernel(b, specTumbleMaxT) }

// TestFilterKernelZeroAlloc pins the compiled filter train: no
// allocations per train, regardless of selectivity.
func TestFilterKernelZeroAlloc(t *testing.T) {
	f, _ := buildBound(t, Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 60"}}, 1, kernelSchema)
	kernel := f.(TrainProcessor)
	train := kernelTrain(256, 7)
	sink := Emit(func(int, stream.Tuple) {})
	if avg := testing.AllocsPerRun(200, func() { kernel.ProcessTrain(0, train, sink) }); avg != 0 {
		t.Fatalf("filter kernel allocates %.2f per 256-tuple train, want 0", avg)
	}
}

// TestMapKernelZeroAlloc pins the pooled map train: output Vals come from
// the freelist and, once the consumer recycles them (as the engine does
// at every tuple death point), the steady state allocates nothing.
func TestMapKernelZeroAlloc(t *testing.T) {
	if stream.PoolCheck {
		t.Skip("poolcheck never reuses a recycled Vals array; alloc counts are not meaningful")
	}
	m, _ := buildBound(t, Spec{Kind: "map", Params: map[string]string{
		"exprs": "A=A; B=((B * 3) + (A % 7))"}}, 1, kernelSchema)
	kernel := m.(TrainProcessor)
	train := kernelTrain(256, 11)
	sink := Emit(func(_ int, out stream.Tuple) { out.Recycle() })
	// Warm the freelist's size class.
	kernel.ProcessTrain(0, train, sink)
	if avg := testing.AllocsPerRun(200, func() { kernel.ProcessTrain(0, train, sink) }); avg != 0 {
		t.Fatalf("map kernel allocates %.2f per 256-tuple train, want 0", avg)
	}
}

// TestUnionKernelZeroAlloc: pass-through must be free.
func TestUnionKernelZeroAlloc(t *testing.T) {
	u, _ := buildBound(t, Spec{Kind: "union", Params: map[string]string{"inputs": "2"}}, 2, kernelSchema)
	kernel := u.(TrainProcessor)
	train := kernelTrain(256, 13)
	sink := Emit(func(int, stream.Tuple) {})
	if avg := testing.AllocsPerRun(200, func() { kernel.ProcessTrain(0, train, sink) }); avg != 0 {
		t.Fatalf("union kernel allocates %.2f per 256-tuple train, want 0", avg)
	}
}

// TestKernelAdapterFallback: ProcessAll must route through the batch
// kernel when present and fall back to a per-tuple loop otherwise,
// without changing emissions.
func TestKernelAdapterFallback(t *testing.T) {
	f1, f2 := buildBound(t, Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 60"}}, 1, kernelSchema)
	train := kernelTrain(128, 17)
	var direct, adapted []kemit
	for i := range train {
		f1.Process(0, train[i], collectKernel(&direct))
	}
	ProcessAll(f2, 0, train, collectKernel(&adapted))
	diffEmissions(t, "adapter", direct, adapted)
}
