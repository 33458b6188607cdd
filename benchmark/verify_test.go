package main

import (
	"testing"

	"repro/internal/stream"
)

func sinkTuple(o refOut) stream.Tuple {
	return stream.NewTuple(stream.Int(o.K), stream.Int(o.V), stream.Int(o.T))
}

// TestSinkClassifiesFailures checks that the verifier is not vacuous: a
// duplicate, a gap, a wrong value and a tuple never delivered each land
// in their own counter, and none of them passes as verified.
func TestSinkClassifiesFailures(t *testing.T) {
	s := newSinkState(findWorkload("edge_sat"))
	var want []refOut
	for i := int64(0); i < 8; i++ {
		o := refOut{K: i % 16, V: 3*i - 6, T: 1000 + i}
		want = append(want, o)
		s.ring.push(expectEntry{out: o, inputs: uint64(i + 1)})
	}
	s.deliver(sinkTuple(want[0]))
	s.deliver(sinkTuple(want[1]))
	s.deliver(sinkTuple(want[1]))                       // delivered twice
	s.deliver(sinkTuple(want[3]))                       // want[2] never arrives
	s.deliver(sinkTuple(refOut{K: 4, V: 999, T: 1004})) // want[4] with a wrong V
	s.deliver(stream.NewTuple(stream.Int(1)))           // not even the right shape
	// want[4..7] stay outstanding.

	if s.dups != 1 || s.missing != 1 || s.wrong != 2 {
		t.Errorf("dups=%d missing=%d wrong=%d; want 1, 1, 2", s.dups, s.missing, s.wrong)
	}
	if got := s.ring.inflight(); got != 4 {
		t.Errorf("%d outputs outstanding; want 4", got)
	}
	if got := s.verifiedInputs.Load(); got != 4 {
		t.Errorf("verified inputs = %d; want 4 (through want[3])", got)
	}
}

// TestReferenceMatchesEngine runs each workload's networks in-process on
// generated tuples and compares what comes out with the plain-Go
// reference: the two are written independently and must agree.
func TestReferenceMatchesEngine(t *testing.T) {
	for _, w := range workloads() {
		in := sampleInput(w, 7, 4096)
		ref := w.newReference()
		var want []refOut
		for _, tup := range in {
			if o, ok := ref.feed(tup.Vals[0].AsInt(), tup.Vals[1].AsInt(), tup.Vals[2].AsInt()); ok {
				want = append(want, o)
			}
		}
		got, msgLen := in, w.phases[w.tputPhase].trainLen
		for _, def := range w.nodes {
			r, err := newNodeReplay(def)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			r.collect = true
			r.replay(got, msgLen)
			got, msgLen = r.out, 1
		}
		s := newSinkState(w)
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%s: engine produced %d outputs, reference %d", w.name, len(got), len(want))
		}
		for i := range got {
			if o, ok := s.parse(got[i]); !ok || o != want[i] {
				t.Fatalf("%s: output %d = %v, reference says %v", w.name, i, got[i], want[i])
			}
		}
	}
}
