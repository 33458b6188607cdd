package dsps_test

// The benchmark harness of deliverable (d): one BenchmarkExpNN per
// experiment in EXPERIMENTS.md — each regenerates the corresponding
// figure of the paper at reduced scale per iteration (cmd/benchrunner
// prints the full-scale tables) — plus micro-benchmarks of the hot paths
// (operator evaluation, wire codec, WFQ, engine steady state).

import (
	"fmt"
	"testing"

	dsps "repro"
	"repro/internal/exp"
	"repro/internal/op"
	"repro/internal/stream"
	"repro/internal/transport"
)

// benchScale keeps one experiment iteration in the low milliseconds.
const benchScale = 0.05

func runExp(b *testing.B, id string) {
	b.Helper()
	for _, e := range exp.Registry() {
		if e.ID == id {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if t := e.Run(benchScale); len(t.Rows) == 0 {
					b.Fatalf("%s produced no rows", id)
				}
			}
			return
		}
	}
	b.Fatalf("unknown experiment %s", id)
}

func BenchmarkExp01_Operators(b *testing.B)        { runExp(b, "E01") }
func BenchmarkExp02_Scheduler(b *testing.B)        { runExp(b, "E02") }
func BenchmarkExp03_LoadShedding(b *testing.B)     { runExp(b, "E03") }
func BenchmarkExp04_BoxSliding(b *testing.B)       { runExp(b, "E04") }
func BenchmarkExp05_FilterSplit(b *testing.B)      { runExp(b, "E05") }
func BenchmarkExp06_TumbleSplit(b *testing.B)      { runExp(b, "E06") }
func BenchmarkExp07_LoadSharing(b *testing.B)      { runExp(b, "E07") }
func BenchmarkExp08_KSafety(b *testing.B)          { runExp(b, "E08") }
func BenchmarkExp09_RecoverySpectrum(b *testing.B) { runExp(b, "E09") }
func BenchmarkExp10_QoSInference(b *testing.B)     { runExp(b, "E10") }
func BenchmarkExp11_Multiplexing(b *testing.B)     { runExp(b, "E11") }
func BenchmarkExp12_DHTCatalog(b *testing.B)       { runExp(b, "E12") }
func BenchmarkExp13_SplitPredicates(b *testing.B)  { runExp(b, "E13") }
func BenchmarkExp14_Economy(b *testing.B)          { runExp(b, "E14") }
func BenchmarkExp15_RemoteDefinition(b *testing.B) { runExp(b, "E15") }
func BenchmarkExp19_Observability(b *testing.B)    { runExp(b, "E19") }
func BenchmarkExp20_LatencySLO(b *testing.B)       { runExp(b, "E20") }
func BenchmarkExp21_HotPath(b *testing.B)          { runExp(b, "E21") }
func BenchmarkAbl01_DetectionTimeout(b *testing.B) { runExp(b, "A01") }
func BenchmarkAbl02_FlowPeriod(b *testing.B)       { runExp(b, "A02") }

// --- Micro-benchmarks of the hot paths ---

func BenchmarkFilterEval(b *testing.B) {
	pred := op.MustParse("(B < 50) && (A != 3)")
	s := stream.MustSchema("t",
		stream.Field{Name: "A", Kind: stream.KindInt},
		stream.Field{Name: "B", Kind: stream.KindInt})
	op.MustBind(pred, s)
	tp := stream.NewTuple(stream.Int(7), stream.Int(42))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !pred.Eval(tp).AsBool() {
			b.Fatal("predicate flipped")
		}
	}
}

func BenchmarkTumbleProcess(b *testing.B) {
	tb := op.MustBuild(op.Spec{Kind: "tumble", Params: map[string]string{
		"agg": "cnt", "on": "B", "groupby": "A"}})
	s := stream.MustSchema("t",
		stream.Field{Name: "A", Kind: stream.KindInt},
		stream.Field{Name: "B", Kind: stream.KindInt})
	if _, err := tb.Bind([]*stream.Schema{s}); err != nil {
		b.Fatal(err)
	}
	sinkFn := func(int, stream.Tuple) {}
	tuples := make([]stream.Tuple, 64)
	for i := range tuples {
		tuples[i] = stream.NewTuple(stream.Int(int64(i/8)), stream.Int(int64(i)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Process(0, tuples[i%64], sinkFn)
	}
}

func BenchmarkCodecEncodeDecode(b *testing.B) {
	m := transport.Msg{Stream: "quotes", Kind: transport.KindData, BaseSeq: 1,
		Tuples: []stream.Tuple{
			{Seq: 1, TS: 100, Vals: []stream.Value{
				stream.String("IBM"), stream.Float(101.25), stream.Int(300)}},
		}}
	buf := transport.Encode(nil, m)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		buf = transport.Encode(buf[:0], m)
		if _, _, err := transport.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWFQ(b *testing.B) {
	w := transport.NewWFQ()
	for s := 0; s < 8; s++ {
		w.SetWeight(fmt.Sprint(s), float64(s+1))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := fmt.Sprint(i % 8)
		w.Enqueue(s, 100, transport.Msg{Stream: s})
		w.Next()
	}
}

func BenchmarkEngineSteadyState(b *testing.B) {
	readings := dsps.MustSchema("r",
		dsps.Field{Name: "sensor", Kind: dsps.KindInt},
		dsps.Field{Name: "v", Kind: dsps.KindFloat})
	q, err := dsps.NewQuery("bench").
		AddBox("f", dsps.FilterSpec("v > 0.0", false)).
		AddBox("t", dsps.TumbleSpec("cnt", "v", "sensor")).
		Connect("f", "t").
		BindInput("in", readings, "f", 0).
		BindOutput("out", "t", 0, nil).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := dsps.NewEngine(q, dsps.EngineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	eng.OnOutput(func(string, dsps.Tuple) {})
	tp := dsps.NewTuple(dsps.Int(1), dsps.Float(2.5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Ingest("in", tp)
		if i%128 == 0 {
			eng.RunUntilIdle(0)
		}
	}
	eng.Drain()
}

func BenchmarkCodecRoundTripPooled(b *testing.B) {
	// The caller-provided-buffer path of the pooled codec: Encode into a
	// retained buffer, DecodeInto a warm Msg. Steady state allocates
	// nothing (numeric payload), vs 4 allocs/op for the copying Decode.
	m := transport.Msg{Stream: "quotes", Kind: transport.KindData, BaseSeq: 1,
		Tuples: []stream.Tuple{
			{Seq: 1, TS: 100, Vals: []stream.Value{
				stream.Int(7), stream.Float(101.25), stream.Int(300)}},
		}}
	buf := transport.Encode(nil, m)
	var dec transport.Msg
	if _, err := transport.DecodeInto(&dec, buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		buf = transport.Encode(buf[:0], m)
		if _, err := transport.DecodeInto(&dec, buf); err != nil {
			b.Fatal(err)
		}
	}
}
