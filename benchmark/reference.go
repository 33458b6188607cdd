package main

// The reference computation: each query shape written out in plain Go,
// independent of internal/op and internal/engine, so a wrong operator,
// a lost tuple and a reordered stream all show as a mismatch at the sink.
// It is fed the tuples the generator sends, in send order, and yields the
// sequence the sink must receive.

// refOut is one expected sink tuple. The tumble query emits (K, max T);
// V is then unused and stays zero on both sides of the comparison.
type refOut struct{ K, V, T int64 }

// Stage-by-stage model of the boxes in workload.go.
func refHeadFilter(v int64) bool    { return v < 95 }
func refMapTriple(v int64) int64    { return v * 3 }
func refMapShift(v int64) int64     { return v - 6 }
func refTailFilter(k, v int64) bool { return v > 0 && k >= 0 }

// reference consumes input tuples in order; feed reports the output the
// tuple causes, if any (no query here emits more than one per input).
type reference interface {
	feed(k, v, t int64) (refOut, bool)
}

// refChain models the filter/map chain, whether it runs on one node or
// is split n1 = filter,map / n2 = map: splitting a chain across a route
// must not change what comes out.
type refChain struct{}

func (refChain) feed(k, v, t int64) (refOut, bool) {
	if !refHeadFilter(v) {
		return refOut{}, false
	}
	return refOut{K: k, V: refMapShift(refMapTriple(v)), T: t}, true
}

// refTumble models compute_sat: the chain, the tail filter, then Aurora's
// tumble — a window is a maximal run of consecutive tuples with equal K,
// and its aggregate is emitted when the first tuple of the next run
// arrives (§2.2, Fig 2). The last window of a stream stays open.
type refTumble struct {
	open bool
	k    int64
	maxT int64
}

func (r *refTumble) feed(k, v, t int64) (out refOut, emitted bool) {
	if !refHeadFilter(v) {
		return refOut{}, false
	}
	v = refMapShift(refMapTriple(v))
	if !refTailFilter(k, v) {
		return refOut{}, false
	}
	if r.open && k != r.k {
		out, emitted = refOut{K: r.k, T: r.maxT}, true
		r.open = false
	}
	if !r.open {
		r.open, r.k, r.maxT = true, k, t
	} else if t > r.maxT {
		r.maxT = t
	}
	return out, emitted
}

func (w *workload) newReference() reference {
	if w.tumble {
		return &refTumble{}
	}
	return refChain{}
}
