package stream

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// The poolcheck build makes the ownership contracts checkable. Three say
// who may hold a slice: a pool-owned Vals array (the provenance bit,
// Disown, Recycle), a sender's scratch batch (valid for the send call
// only) and an output hook's run (valid for the hook call only). Under the
// tag, an array the pool takes back is filled with kindPoison and dropped
// instead of reused, and a scratch batch's slots are overwritten with
// poison tuples when the call that lent it returns. Every Value accessor
// panics on a poison value, and the panic names the site that gave the
// memory up, so a reader that outlived its ownership fails at its next
// read instead of seeing nulls or another tuple's values.

// kindPoison marks a Value in memory its holder no longer owns. Only a
// poolcheck build ever writes it.
const kindPoison Kind = 0xff

// Poison sequence and timestamp of a scratch slot overwritten by
// PoisonScratch.
const (
	poisonSeq = ^uint64(0)
	poisonTS  = -1 << 63
)

// poisonVals is the Vals every poisoned scratch slot shares, one per
// site; its length covers every pooled size class, so a stale Field read
// below it panics rather than returning null.
const poisonArity = valsClassMax

var poisonSites sync.Map // [8]uintptr (the stack) -> Value

// poisonValue returns the poison Value for its caller's stack: what
// happened, and where — the first function outside this package (a
// recycling or lending site), with its caller. The text is built once per
// stack.
func poisonValue(what string) Value {
	var pcs [8]uintptr
	runtime.Callers(2, pcs[:])
	if v, ok := poisonSites.Load(pcs); ok {
		return v.(Value)
	}
	frames := runtime.CallersFrames(pcs[:])
	var sites []string
	for len(sites) < 2 {
		f, more := frames.Next()
		inPkg := strings.HasPrefix(f.Function, "repro/internal/stream.") &&
			!strings.Contains(f.Function, ".Test")
		if len(sites) > 0 || !inPkg {
			sites = append(sites, fmt.Sprintf("%s (%s:%d)", f.Function, f.File, f.Line))
		}
		if !more {
			break
		}
	}
	v := Value{kind: kindPoison, s: what + " at " + strings.Join(sites, " <- ")}
	poisonSites.Store(pcs, v)
	return v
}

// poisoned panics for a read of a poison value. Every Value accessor
// guards its call with `if PoolCheck && v.kind == kindPoison`, spelled out
// rather than behind a helper: the inliner drops a constant-false branch
// at no cost, while a helper call would raise each accessor's inlining
// cost in the untagged build.
func (v Value) poisoned() {
	panic("stream: read of a value its holder no longer owns (poolcheck): " + v.s)
}

// poisonRecycled fills a recycled array to its capacity with poison.
func poisonRecycled(v []Value) {
	p := poisonValue("Vals recycled")
	v = v[:cap(v)]
	for i := range v {
		v[i] = p
	}
}

// PoisonScratch ends a scratch batch's loan and returns the slice its
// owner should reuse. In a poolcheck build it overwrites every slot of ts
// with a poison tuple, whose Vals panic at their first read and name the
// caller as the site that lent the batch, and returns nil: the poisoned
// slots are never handed out again, so a reader that kept ts keeps seeing
// poison. The Vals arrays the slots pointed at are left alone, since they
// belong to whoever took the tuples. Without the tag it returns ts and
// does nothing else.
func PoisonScratch(ts []Tuple) []Tuple {
	if !PoolCheck {
		return ts
	}
	if len(ts) == 0 {
		return nil
	}
	p := poisonValue("scratch batch read after its call returned")
	vals := make([]Value, poisonArity)
	for i := range vals {
		vals[i] = p
	}
	for i := range ts {
		ts[i] = Tuple{Seq: poisonSeq, TS: poisonTS, Vals: vals}
	}
	return nil
}
