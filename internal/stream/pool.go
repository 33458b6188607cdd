package stream

import "sync"

// Vals pooling for the batched train path. Operators that materialize new
// tuples on the hot path (Map projections, Tumble window emissions) draw
// their backing arrays from here and the engine returns them when the
// tuple provably dies (delivered to an application output with no other
// reference, or consumed by an operator that neither retains nor re-emits
// its input). Slices are grouped into power-of-two size classes; a request
// is served from the smallest class that fits, so MemSize accounting must
// charge capacity, not length (see Tuple.MemSize).
//
// The freelist is a mutex-guarded stack per class rather than a sync.Pool:
// sync.Pool.Put boxes its argument, so putting a bare []Value would
// allocate a 24-byte interface payload on every recycle — exactly the
// allocation the pool exists to remove. The engine's train buffers and
// emission buffers are pointer-shaped and do use sync.Pool.
//
// Three sources fill the freelist's arrays with tuples: Map draws a
// train's outputs (GetValsTrain), Tumble a window's emission (GetVals),
// and the TCP read loop a decoded frame's tuples (GetValsTrain, once per
// frame). In a poolcheck build nothing is ever reused: a recycled array
// is filled with poison and dropped (poison.go).
const (
	valsClassMin  = 4 // smallest class capacity
	valsClasses   = 5 // 4, 8, 16, 32, 64
	valsClassMax  = valsClassMin << (valsClasses - 1)
	valsClassKeep = 1024 // retained slices per class; overflow goes to GC
)

type valsClass struct {
	mu   sync.Mutex
	free [][]Value
}

var valsPool [valsClasses]valsClass

// valsClassFor returns the index of the smallest class whose capacity is
// at least n, or -1 when n exceeds the largest class.
func valsClassFor(n int) int {
	c := valsClassMin
	for i := 0; i < valsClasses; i++ {
		if n <= c {
			return i
		}
		c <<= 1
	}
	return -1
}

// GetVals returns a value slice of length n, drawn from the pool when a
// size class fits. The contents are zero values.
func GetVals(n int) []Value {
	var one [1][]Value
	GetValsTrain(one[:], n)
	return one[0]
}

// GetValsTrain is GetVals for a train: it sets every dst[i] to a value
// slice of length n, taking the class's freelist lock once for the whole
// train instead of once per tuple.
func GetValsTrain(dst [][]Value, n int) {
	ci := valsClassFor(n)
	if n == 0 || ci < 0 {
		for i := range dst {
			if n > 0 {
				dst[i] = make([]Value, n)
			} else {
				dst[i] = nil
			}
		}
		return
	}
	p := &valsPool[ci]
	p.mu.Lock()
	i := 0
	for k := len(p.free); i < len(dst) && k > 0; i, k = i+1, k-1 {
		dst[i] = p.free[k-1][:n]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	}
	p.mu.Unlock()
	for ; i < len(dst); i++ {
		dst[i] = make([]Value, n, valsClassMin<<ci)
	}
}

// reclaim clears v to its full capacity, so pooled entries never pin
// strings from dead tuples, and returns its size class — nil, leaving v
// to the garbage collector, when its capacity matches no class or the
// build is poolcheck (v is then poisoned instead).
func reclaim(v []Value) *valsClass {
	if PoolCheck {
		poisonRecycled(v)
		return nil
	}
	c := cap(v)
	if c < valsClassMin || c > valsClassMax || c&(c-1) != 0 {
		return nil
	}
	clear(v[:c])
	return &valsPool[valsClassFor(c)]
}

// keep pushes a reclaimed slice onto the class's stack, or drops it to
// the garbage collector when the stack is full; callers hold p.mu.
func (p *valsClass) keep(v []Value) {
	if len(p.free) < valsClassKeep {
		p.free = append(p.free, v[:cap(v)])
	}
}

// PutVals returns a slice obtained from GetVals to its size class.
func PutVals(v []Value) {
	if p := reclaim(v); p != nil {
		p.mu.Lock()
		p.keep(v)
		p.mu.Unlock()
	}
}

// RecycleTrain is Tuple.Recycle over a train: every pool-owned Vals in ts
// goes back to its size class, and a run of tuples in one class takes
// that class's freelist lock once.
func RecycleTrain(ts []Tuple) {
	var held *valsClass
	for i := range ts {
		t := &ts[i]
		if !t.pooled {
			continue
		}
		v := t.Vals
		t.pooled, t.Vals = false, nil
		p := reclaim(v)
		if p == nil {
			continue
		}
		if p != held {
			if held != nil {
				held.mu.Unlock()
			}
			p.mu.Lock()
			held = p
		}
		p.keep(v)
	}
	if held != nil {
		held.mu.Unlock()
	}
}
