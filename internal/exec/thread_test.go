package exec

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// logHooks is a Model and Sync that records the calls it receives.
type logHooks struct{ calls []string }

func (h *logHooks) log(format string, args ...any) {
	h.calls = append(h.calls, fmt.Sprintf(format, args...))
}

func (h *logHooks) Load(a Addr)                { h.log("Load %d", a) }
func (h *logHooks) Store(a Addr)               { h.log("Store %d", a) }
func (h *logHooks) AtomicLoad(a Addr)          { h.log("AtomicLoad %d", a) }
func (h *logHooks) AtomicStore(a Addr)         { h.log("AtomicStore %d", a) }
func (h *logHooks) AtomicRMW(a Addr)           { h.log("AtomicRMW %d", a) }
func (h *logHooks) LoadSpan(a Addr, n, sz int) { h.log("LoadSpan %d %d %d", a, n, sz) }
func (h *logHooks) StoreSpan(a Addr, n, sz int) {
	h.log("StoreSpan %d %d %d", a, n, sz)
}
func (h *logHooks) Compute(n int)     { h.log("Compute %d", n) }
func (h *logHooks) Active(d int)      { h.log("Active %d", d) }
func (h *logHooks) Lock(l Lock)       { h.log("Lock %v", l) }
func (h *logHooks) Unlock(l Lock)     { h.log("Unlock %v", l) }
func (h *logHooks) Barrier(b Barrier) { h.log("Barrier %v", b) }
func (h *logHooks) Checkpoint() error { h.log("Checkpoint"); return context.Canceled }

func everyCall(c Ctx) error {
	c.Load(8)
	c.Store(16)
	c.AtomicLoad(24)
	c.AtomicStore(32)
	c.AtomicRMW(40)
	c.LoadSpan(48, 10, 4)
	c.StoreSpan(56, -3, 4)
	c.Compute(5)
	c.Active(-2)
	c.Lock("l")
	c.Unlock("l")
	c.Barrier("b")
	return c.Checkpoint()
}

// TestThreadForwardsToModel: with a Model attached the hooks see the
// kernel's call stream verbatim, in order, and the Thread counts the same
// instructions it does with none.
func TestThreadForwardsToModel(t *testing.T) {
	h := &logHooks{}
	th := NewThread(2, 5, h, h)
	if th.TID() != 2 || th.Threads() != 5 || th.Model() != Model(h) {
		t.Fatalf("tid %d threads %d model %v", th.TID(), th.Threads(), th.Model())
	}
	if err := everyCall(th); err != context.Canceled {
		t.Fatalf("Checkpoint returned %v, want the Sync's error", err)
	}
	want := []string{
		"Load 8", "Store 16", "AtomicLoad 24", "AtomicStore 32", "AtomicRMW 40",
		"LoadSpan 48 10 4", "StoreSpan 56 -3 4", "Compute 5", "Active -2",
		"Lock l", "Unlock l", "Barrier b", "Checkpoint",
	}
	if !reflect.DeepEqual(h.calls, want) {
		t.Fatalf("hooks saw\n%v\nwant\n%v", h.calls, want)
	}
	if n := th.Instructions(); n != 5+10+0+5+2 {
		t.Fatalf("Thread with a Model counted %d instructions, want 22", n)
	}
}

// TestThreadCountsWithoutModel: with no Model an annotation is the
// instruction accounting alone, and only synchronization reaches the
// platform.
func TestThreadCountsWithoutModel(t *testing.T) {
	h := &logHooks{}
	th := NewThread(0, 1, nil, h)
	everyCall(th)
	// 5 accesses, a 10-element span, an empty span, Compute(5), lock+unlock.
	if n := th.Instructions(); n != 5+10+0+5+2 {
		t.Fatalf("counted %d instructions, want 22", n)
	}
	want := []string{"Lock l", "Unlock l", "Barrier b", "Checkpoint"}
	if !reflect.DeepEqual(h.calls, want) {
		t.Fatalf("Sync saw %v, want %v", h.calls, want)
	}
	th.Begin(3)
	if th.Instructions() != 0 || th.Threads() != 3 {
		t.Fatalf("after Begin: %d instructions, %d threads", th.Instructions(), th.Threads())
	}
}

// TestLoadGatherReplaysPerElement: a Model sees LoadGather as exactly the
// Load(r.At(i)), Compute(computePer) pairs it stands for, in idx order and
// with no Compute(0); natively it counts what those calls would.
func TestLoadGatherReplaysPerElement(t *testing.T) {
	r := Region{Name: "g", Base: 64, ElemSize: 8, Elems: 16}
	idx := []int32{3, 0, 3, 9}
	for _, tc := range []struct {
		per  int
		want []string
	}{
		{0, []string{"Load 88", "Load 64", "Load 88", "Load 136"}},
		{1, []string{"Load 88", "Compute 1", "Load 64", "Compute 1", "Load 88", "Compute 1", "Load 136", "Compute 1"}},
	} {
		h := &logHooks{}
		NewThread(0, 1, h, h).LoadGather(r, idx, tc.per)
		if !reflect.DeepEqual(h.calls, tc.want) {
			t.Errorf("computePer %d: Model saw\n%v\nwant\n%v", tc.per, h.calls, tc.want)
		}
		native := NewThread(0, 1, nil, h)
		native.LoadGather(r, idx, tc.per)
		native.LoadGather(r, nil, tc.per)
		if n, want := native.Instructions(), uint64(len(idx)*(1+tc.per)); n != want {
			t.Errorf("computePer %d: counted %d instructions natively, want %d", tc.per, n, want)
		}
	}
}

// TestSweepReplaysPerElement: a Model sees each sweep as exactly the
// AtomicLoad (or Load) of r.At(i) and Compute(1) pairs a kernel issued
// before it had sweeps, for i in [lo, hi) in order; an empty range emits
// nothing; natively each sweep counts 2·(hi−lo).
func TestSweepReplaysPerElement(t *testing.T) {
	r := Region{Name: "s", Base: 64, ElemSize: 4, Elems: 16}
	for _, tc := range []struct {
		name  string
		sweep func(Ctx, Region, int, int)
		load  func(Ctx, Addr)
	}{
		{"AtomicLoadSweep", Ctx.AtomicLoadSweep, Ctx.AtomicLoad},
		{"LoadSweep", Ctx.LoadSweep, Ctx.Load},
	} {
		for _, rg := range [][2]int{{3, 7}, {0, 1}, {15, 16}, {5, 5}} {
			lo, hi := rg[0], rg[1]
			per := &logHooks{}
			th := NewThread(0, 1, per, per)
			for i := lo; i < hi; i++ {
				tc.load(th, r.At(i))
				th.Compute(1)
			}
			h := &logHooks{}
			tc.sweep(NewThread(0, 1, h, h), r, lo, hi)
			if len(h.calls) != 2*(hi-lo) || !reflect.DeepEqual(h.calls, per.calls) {
				t.Errorf("%s [%d,%d): Model saw\n%v\nwant\n%v", tc.name, lo, hi, h.calls, per.calls)
			}
			native := NewThread(0, 1, nil, h)
			tc.sweep(native, r, lo, hi)
			if n, want := native.Instructions(), uint64(2*(hi-lo)); n != want {
				t.Errorf("%s [%d,%d): counted %d instructions natively, want %d", tc.name, lo, hi, n, want)
			}
		}
	}
}

// lockMaker is a Platform as far as NewLocks is concerned.
type lockMaker struct {
	Platform
	made int
}

func (m *lockMaker) NewLock() Lock { m.made++; return m.made }

type bulkLockMaker struct{ lockMaker }

func (m *bulkLockMaker) NewLocks(n int) []Lock { return make([]Lock, n) }

// TestNewLocksFallsBackInOrder: a platform without the bulk method gets n
// NewLock calls in index order (the simulator places locks by creation
// order); one with it gets the single call.
func TestNewLocksFallsBackInOrder(t *testing.T) {
	m := &lockMaker{}
	locks := NewLocks(m, 4)
	if !reflect.DeepEqual(locks, []Lock{1, 2, 3, 4}) {
		t.Fatalf("fallback locks %v, want creation order 1..4", locks)
	}
	b := &bulkLockMaker{}
	if got := NewLocks(b, 4); len(got) != 4 || b.made != 0 {
		t.Fatalf("bulk platform: %d locks, %d NewLock calls", len(got), b.made)
	}
}
