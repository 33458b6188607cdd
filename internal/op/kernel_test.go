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

func kernelSchema(t *testing.T) *stream.Schema {
	t.Helper()
	return stream.MustSchema("t",
		stream.Field{Name: "A", Kind: stream.KindInt},
		stream.Field{Name: "B", Kind: stream.KindInt})
}

// buildBound builds and binds twin instances of one spec.
func buildBound(t *testing.T, spec Spec, nin int) (Operator, Operator) {
	t.Helper()
	mk := func() Operator {
		o, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		ins := make([]*stream.Schema, nin)
		for i := range ins {
			ins[i] = kernelSchema(t)
		}
		if _, err := o.Bind(ins); err != nil {
			t.Fatal(err)
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
		name string
		spec Spec
		nin  int
	}{
		{"filter", Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 60"}}, 1},
		{"filter-dual", Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 60", "falseport": "true"}}, 1},
		{"map", Spec{Kind: "map", Params: map[string]string{"exprs": "A=A; B=((B * 3) + (A % 7))"}}, 1},
		{"union", Spec{Kind: "union", Params: map[string]string{"inputs": "2"}}, 2},
		{"tumble", Spec{Kind: "tumble", Params: map[string]string{"agg": "sum", "on": "B", "groupby": "A"}}, 1},
		{"wsort", Spec{Kind: "wsort", Params: map[string]string{"attrs": "A", "timeout": "1000", "maxbuf": "16"}}, 1},
		{"wsort-timeout-only", Spec{Kind: "wsort", Params: map[string]string{"attrs": "A", "timeout": "1000"}}, 1},
	}
	// The engine hands a kernel whole trains on an untraced wall clock and
	// one tuple at a time otherwise, so ProcessTrain(ts[i:i+1]) must equal
	// Process just as a full train does; 2 catches an off-by-one at a
	// train boundary.
	for _, c := range cases {
		for _, trainLen := range []int{1, 2, 256} {
			t.Run(fmt.Sprintf("%s/train=%d", c.name, trainLen), func(t *testing.T) {
				serialOp, batchOp := buildBound(t, c.spec, c.nin)
				kernel, ok := batchOp.(TrainProcessor)
				if !ok {
					t.Fatalf("%s does not implement TrainProcessor", c.name)
				}
				var serialLog, batchLog []kemit
				se, be := collectKernel(&serialLog), collectKernel(&batchLog)
				// Several rounds back to back so stateful operators (tumble
				// windows, wsort buffers) carry state across train boundaries.
				for round := 0; round < 4; round++ {
					in := kernelTrain(256, uint64(1+round))
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

// TestFilterKernelZeroAlloc pins the compiled filter train: no
// allocations per train, regardless of selectivity.
func TestFilterKernelZeroAlloc(t *testing.T) {
	f, _ := buildBound(t, Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 60"}}, 1)
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
	m, _ := buildBound(t, Spec{Kind: "map", Params: map[string]string{
		"exprs": "A=A; B=((B * 3) + (A % 7))"}}, 1)
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
	u, _ := buildBound(t, Spec{Kind: "union", Params: map[string]string{"inputs": "2"}}, 2)
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
	f1, f2 := buildBound(t, Spec{Kind: "filter", Params: map[string]string{"predicate": "B < 60"}}, 1)
	train := kernelTrain(128, 17)
	var direct, adapted []kemit
	for i := range train {
		f1.Process(0, train[i], collectKernel(&direct))
	}
	ProcessAll(f2, 0, train, collectKernel(&adapted))
	diffEmissions(t, "adapter", direct, adapted)
}
