package stream

import (
	"strings"
	"testing"
)

// mustPanicNaming runs read and fails unless it panics with a poolcheck
// message that contains every one of want.
func mustPanicNaming(t *testing.T, read func(), want ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		msg, _ := r.(string)
		if r == nil || !strings.Contains(msg, "(poolcheck)") {
			t.Fatalf("read did not panic with a poolcheck message: %v", r)
		}
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Fatalf("panic %q does not name %q", msg, w)
			}
		}
	}()
	read()
}

// TestPoolCheckPoisonsRecycled: in a poolcheck build a recycled array is
// never handed out again, and a stale reader of it panics at its next
// read, naming the function that recycled it.
func TestPoolCheckPoisonsRecycled(t *testing.T) {
	if !PoolCheck {
		t.Skip("build with -tags poolcheck")
	}
	tp := Tuple{Vals: GetVals(3)}
	tp.Vals[0] = Int(7)
	tp.MarkPooled()
	stale := tp.Vals
	RecycleTrain([]Tuple{tp})
	mustPanicNaming(t, func() { stale[0].AsInt() }, "Vals recycled", "TestPoolCheckPoisonsRecycled")
	mustPanicNaming(t, func() { _ = stale[2].Kind() })
	mustPanicNaming(t, func() { Int(1).Equal(stale[1]) })
	if again := GetVals(3); &again[:cap(again)][0] == &stale[:cap(stale)][0] {
		t.Fatal("a recycled array was handed out again")
	}
}

// TestPoolCheckPoisonsScratch: PoisonScratch ends a batch's loan. Under
// poolcheck a reader that kept the batch panics naming the lender, the
// arrays the slots pointed at are untouched, and the owner gets nil back
// so the slots are never lent again; without the tag it is the identity.
func TestPoolCheckPoisonsScratch(t *testing.T) {
	vals := []Value{Int(1), Int(2)}
	batch := []Tuple{{Seq: 1, Vals: vals}}
	kept := batch
	next := PoisonScratch(batch)
	if !PoolCheck {
		if len(next) != 1 || kept[0].Vals[1].AsInt() != 2 {
			t.Fatal("without poolcheck PoisonScratch must change nothing")
		}
		return
	}
	if next != nil {
		t.Fatal("poolcheck PoisonScratch must return nil, so the slots are not reused")
	}
	mustPanicNaming(t, func() { kept[0].Field(1).AsInt() }, "scratch batch", "TestPoolCheckPoisonsScratch")
	if vals[1].AsInt() != 2 {
		t.Fatal("poisoning the slots wrote into the array they pointed at")
	}
}
