package exec

// Ctx is the per-thread execution context handed to a kernel body: a
// pointer to the run's Thread for that thread. It is a concrete type, not
// an interface, so every annotation a kernel issues is a direct call the
// compiler inlines into the kernel's loop.
//
// Instruction accounting (feeds the paper's Variability metric, Eq. 2) is
// the Thread's, on every platform: Load, Store, AtomicLoad, AtomicStore,
// AtomicRMW, Lock and Unlock each count as one instruction, Compute(n)
// counts as n instructions, a span of elems elements as elems, and
// LoadGather, AtomicLoadSweep and LoadSweep count what their per-element
// Load (or AtomicLoad) and Compute calls would: a sweep of [lo, hi)
// counts 2·(hi−lo).
type Ctx = *Thread

// Model is the memory and compute half of what a platform plugs in behind
// a Thread: the simulator's timing model or the race detector. Its methods
// receive exactly the annotation stream the kernel issues, in order; the
// Thread has already counted each call's instructions, so a Model counts
// none. The native platform attaches no Model; see Thread.
type Model interface {
	// Load annotates a read of the datum at addr.
	Load(addr Addr)
	// Store annotates a write of the datum at addr.
	Store(addr Addr)
	// AtomicLoad annotates an atomic read of the datum at addr (a
	// sync/atomic load in the real computation). Timing and instruction
	// accounting are identical to Load; the distinction exists for
	// synchronization-aware tooling: an atomic load is an acquire — it
	// observes every atomic write to the same address — so crono-race
	// treats it as ordered after those writes instead of racing them.
	AtomicLoad(addr Addr)
	// AtomicStore annotates an atomic write of the datum at addr, as
	// AtomicLoad for Store. An atomic store is a release.
	AtomicStore(addr Addr)
	// AtomicRMW annotates an atomic read-modify-write of the datum at
	// addr (a successful CompareAndSwap, Add or Swap). It is an
	// acquire-release and counts as a write. Kernels annotate only
	// successful CAS claims, matching the convention that a failed
	// attempt leaves no architectural store to model.
	AtomicRMW(addr Addr)
	// LoadSpan annotates a sequential read of elems contiguous elements
	// of elemSize bytes starting at addr (e.g. scanning a neighbor
	// list). It is semantically identical to elems Load calls; the
	// simulator models one cache transaction per touched line and
	// single-cycle hits for the rest, which is also what per-element
	// calls produce, just much faster.
	LoadSpan(addr Addr, elems, elemSize int)
	// StoreSpan annotates a sequential write, as LoadSpan.
	StoreSpan(addr Addr, elems, elemSize int)
	// Compute annotates n units of pure computation (ALU work).
	Compute(n int)
	// Active adjusts the global count of active vertices by delta.
	// It drives the active-vertex telemetry behind Figure 2.
	Active(delta int)
}

// Sync is the synchronization half, which every platform supplies.
type Sync interface {
	// Lock acquires l, modelling an atomic lock acquisition.
	Lock(l Lock)
	// Unlock releases l.
	Unlock(l Lock)
	// Barrier blocks until all parties of b arrive. It is the run's
	// cancellation point: the last arriver of a generation polls the run
	// context, and in an aborted run Barrier never returns — it ends the
	// calling thread (runtime.Goexit), waiters and later arrivals alike,
	// after withdrawing its arrival so b stays reusable by a later run. A
	// thread that returns from Barrier therefore passed a completed
	// generation, and a round loop needs no poll of its own.
	Barrier(b Barrier)
	// Checkpoint polls for cooperative cancellation where no barrier
	// does: inside a barrier-free loop that may run long (a captured
	// vertex or source, a search branch, a slice of a phase). A non-nil
	// return is the run context's error; the kernel body must return
	// immediately. The poll aborts the run, so every other thread ends at
	// its next barrier.
	Checkpoint() error
}

// Thread is one thread of a run. A platform builds one per thread from
// the hooks it implements and passes its address to the kernel body.
//
// Every annotation first bumps the Thread's instruction counter, inlined
// into the kernel loop — 1 per access, atomic or lock operation, n per
// Compute(n), elems per span with elems > 0, len(idx)·(1+computePer) per
// LoadGather, 2·(hi−lo) per sweep of [lo, hi), nothing for Active — and
// then, after one predictable nil test, forwards the call to the Model.
// The count is therefore the same on every platform by construction. With
// no Model — the native platform — the bump is all an annotation does:
// the paper's real-machine setup, where the instrumentation exists only
// under the simulator.
//
// The counter is written on every annotation, so a Thread is its own
// allocation and ends in a pad: two threads' counters never share a line.
type Thread struct {
	tid, threads int
	model        Model
	sync         Sync
	instr        uint64

	_ [LineSize]byte // false-sharing guard
}

// NewThread returns thread tid of a run of the given parallelism. model
// may be nil (see Thread); sync must not be.
func NewThread(tid, threads int, model Model, sync Sync) *Thread {
	return &Thread{tid: tid, threads: threads, model: model, sync: sync}
}

// Begin readies a Thread kept across runs for a run of the given
// parallelism: the instruction count restarts at zero.
func (t *Thread) Begin(threads int) { t.threads, t.instr = threads, 0 }

// Instructions returns the instructions the Thread has counted since
// Begin (or since NewThread), with or without a Model.
func (t *Thread) Instructions() uint64 { return t.instr }

// Model returns the attached Model, nil on the native platform.
func (t *Thread) Model() Model { return t.model }

// TID returns this thread's index in [0, Threads()).
func (t *Thread) TID() int { return t.tid }

// Threads returns the number of threads in the current run.
func (t *Thread) Threads() int { return t.threads }

// Load annotates a read of the datum at addr.
func (t *Thread) Load(addr Addr) {
	t.instr++
	if t.model != nil {
		t.model.Load(addr)
	}
}

// Store annotates a write of the datum at addr.
func (t *Thread) Store(addr Addr) {
	t.instr++
	if t.model != nil {
		t.model.Store(addr)
	}
}

// AtomicLoad annotates an atomic read; see Model.
func (t *Thread) AtomicLoad(addr Addr) {
	t.instr++
	if t.model != nil {
		t.model.AtomicLoad(addr)
	}
}

// AtomicStore annotates an atomic write; see Model.
func (t *Thread) AtomicStore(addr Addr) {
	t.instr++
	if t.model != nil {
		t.model.AtomicStore(addr)
	}
}

// AtomicRMW annotates a successful atomic read-modify-write; see Model.
func (t *Thread) AtomicRMW(addr Addr) {
	t.instr++
	if t.model != nil {
		t.model.AtomicRMW(addr)
	}
}

// LoadSpan annotates a sequential read of elems elements; see Model.
func (t *Thread) LoadSpan(addr Addr, elems, elemSize int) {
	t.instr += uint64(max(elems, 0))
	if t.model != nil {
		t.model.LoadSpan(addr, elems, elemSize)
	}
}

// StoreSpan annotates a sequential write, as LoadSpan.
func (t *Thread) StoreSpan(addr Addr, elems, elemSize int) {
	t.instr += uint64(max(elems, 0))
	if t.model != nil {
		t.model.StoreSpan(addr, elems, elemSize)
	}
}

// LoadGather annotates a gather: for each i of idx in order, a read of
// r.At(i) followed by Compute(computePer), or no Compute when computePer
// is 0. A Model receives exactly that per-element stream. The count is
// one bump of len(idx)·(1+computePer), and natively that is all: idx is
// never walked and no address is formed, so there is no sign test either,
// and a kernel's own indexing still panics on a negative id.
//
// Its inline cost is 78 of 80 (go1.24). gather's *Thread parameter saves
// a point over passing the Model.
func (t *Thread) LoadGather(r Region, idx []int32, computePer int) {
	t.instr += uint64(len(idx) * (1 + computePer))
	if t.model != nil {
		gather(t, r, idx, computePer)
	}
}

// gather is LoadGather's Model path, kept out of line so the native path
// stays under the inlining budget. It is a function, not a method, so
// the inlining gate's check for out-of-line Thread methods in
// internal/core does not trip on the one call that is meant to be.
//
//go:noinline
func gather(t *Thread, r Region, idx []int32, computePer int) {
	for _, i := range idx {
		t.model.Load(r.At(int(i)))
		if computePer != 0 {
			t.model.Compute(computePer)
		}
	}
}

// AtomicLoadSweep annotates the skipped stretch of a sweep: for each i of
// [lo, hi) in order, an atomic read of r.At(i) followed by Compute(1) —
// the test a kernel makes of each vertex of its static range before
// skipping it. A Model receives exactly that per-element stream. The
// count is one bump of 2·(hi−lo), and natively that is all, with no
// address formed, so a kernel that tests its vertices unannotated pays
// one add per flushed stretch instead of two per vertex. The kernel must
// flush in order: the stretch up to and including each vertex that
// passes its test, before that vertex's own annotations, and the rest
// after the loop. That is sound only while no other thread writes the
// tested datum during the sweep, since the Model sees the read after the
// kernel made it.
//
// lo must not exceed hi. An inverted range emits nothing on a Model, but
// the count is not tested for it: a test would not fit the inlining
// budget.
//
// Its inline cost is 78 of 80 (go1.24), as LoadGather's.
func (t *Thread) AtomicLoadSweep(r Region, lo, hi int) {
	t.instr += uint64(2 * (hi - lo))
	if t.model != nil {
		sweep(t, r, lo, hi, true)
	}
}

// LoadSweep is AtomicLoadSweep with a plain read of each element.
func (t *Thread) LoadSweep(r Region, lo, hi int) {
	t.instr += uint64(2 * (hi - lo))
	if t.model != nil {
		sweep(t, r, lo, hi, false)
	}
}

// sweep is the Model path of AtomicLoadSweep and LoadSweep, out of line
// as gather is.
//
//go:noinline
func sweep(t *Thread, r Region, lo, hi int, atomic bool) {
	for i := lo; i < hi; i++ {
		if atomic {
			t.model.AtomicLoad(r.At(i))
		} else {
			t.model.Load(r.At(i))
		}
		t.model.Compute(1)
	}
}

// Compute annotates n units of pure computation (ALU work).
func (t *Thread) Compute(n int) {
	t.instr += uint64(n)
	if t.model != nil {
		t.model.Compute(n)
	}
}

// Active adjusts the global count of active vertices by delta.
func (t *Thread) Active(delta int) {
	if t.model != nil {
		t.model.Active(delta)
	}
}

// Lock acquires l.
func (t *Thread) Lock(l Lock) {
	t.instr++
	t.sync.Lock(l)
}

// Unlock releases l.
func (t *Thread) Unlock(l Lock) {
	t.instr++
	t.sync.Unlock(l)
}

// Barrier blocks until all parties of b arrive; in an aborted run it ends
// the thread instead of returning (see Sync).
func (t *Thread) Barrier(b Barrier) { t.sync.Barrier(b) }

// Checkpoint polls for cooperative cancellation; see Sync.
func (t *Thread) Checkpoint() error { return t.sync.Checkpoint() }

// NewLocks creates n locks on pl, one per vertex in the kernels that
// guard each vertex with its own. A platform that can make them in one
// allocation offers NewLocks(n); otherwise they are n NewLock calls in
// index order, which is what the simulator's lock placement sees.
func NewLocks(pl Platform, n int) []Lock {
	if bulk, ok := pl.(interface{ NewLocks(n int) []Lock }); ok {
		return bulk.NewLocks(n)
	}
	locks := make([]Lock, n)
	for i := range locks {
		locks[i] = pl.NewLock()
	}
	return locks
}
