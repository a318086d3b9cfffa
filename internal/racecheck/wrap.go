package racecheck

import (
	"context"
	"fmt"
	"sync"

	"crono/internal/exec"
)

// Checker is a checking proxy around a real platform: annotations flow
// through the detector and then to the inner platform, so kernels run
// with the inner platform's timing (native speed, or the simulator's
// model) while the happens-before engine watches the access stream.
//
// Unlike the standalone Platform, interleavings under a wrapped native
// platform are whatever the Go scheduler produces, so which races are
// observed can vary run to run; absence of reported races is the
// meaningful, stable signal. A Checker accumulates races across runs.
type Checker struct {
	inner exec.Platform
	table *exec.RegionTable

	mu   sync.Mutex
	det  *detector
	bars map[exec.Barrier]*wrapBarrier
}

// wrapBarrier tracks the happens-before bookkeeping of one wrapped
// barrier. Arrivals merge their clocks into the pending join before
// blocking on the inner barrier; the last arrival completes the
// generation. The inner barrier returns only from a completed generation
// (in an aborted run it ends the thread), so every waiter that returns
// finds its generation's join.
type wrapBarrier struct {
	parties int
	arrived int
	gen     int
	pending vclock
	done    map[int]*wrapGeneration
}

type wrapGeneration struct {
	joined   vclock
	consumed int
}

// Wrap returns a checking proxy around inner.
func Wrap(inner exec.Platform) *Checker {
	table := &exec.RegionTable{}
	return &Checker{
		inner: inner,
		table: table,
		det:   newDetector(table),
		bars:  make(map[exec.Barrier]*wrapBarrier),
	}
}

// Name implements exec.Platform.
func (c *Checker) Name() string { return "racecheck+" + c.inner.Name() }

// Races returns the races detected so far, deduplicated and sorted.
func (c *Checker) Races() []Race {
	c.mu.Lock()
	defer c.mu.Unlock()
	return resolveRaces(c.det.races, c.table)
}

// Table exposes the region table (for diagnostics).
func (c *Checker) Table() *exec.RegionTable { return c.table }

// Alloc implements exec.Platform, registering the region for
// address-to-name resolution.
func (c *Checker) Alloc(name string, elems, elemSize int) exec.Region {
	r := c.inner.Alloc(name, elems, elemSize)
	c.table.Add(r)
	return r
}

// NewLock implements exec.Platform. The inner handle doubles as the
// detector's lock identity.
func (c *Checker) NewLock() exec.Lock { return c.inner.NewLock() }

// NewBarrier implements exec.Platform.
func (c *Checker) NewBarrier(parties int) exec.Barrier {
	b := c.inner.NewBarrier(parties)
	c.mu.Lock()
	c.bars[b] = &wrapBarrier{parties: parties, done: make(map[int]*wrapGeneration)}
	c.mu.Unlock()
	return b
}

// Run implements exec.Platform.
func (c *Checker) Run(threads int, body func(exec.Ctx)) *exec.Report {
	rep, err := c.RunCtx(context.Background(), threads, body)
	if err != nil {
		panic(fmt.Sprintf("racecheck: background run failed: %v", err))
	}
	return rep
}

// RunCtx implements exec.Platform: per-run clock state is reset —
// including any barrier generation an aborted run left half joined — then
// the inner platform executes the wrapped body.
func (c *Checker) RunCtx(goCtx context.Context, threads int, body func(exec.Ctx)) (*exec.Report, error) {
	c.mu.Lock()
	c.det.beginRun(threads)
	for _, wb := range c.bars {
		wb.arrived = 0
		wb.gen = 0
		wb.pending = nil
		wb.done = make(map[int]*wrapGeneration)
	}
	c.mu.Unlock()
	return c.inner.RunCtx(goCtx, threads, func(ic exec.Ctx) {
		w := &wctx{inner: ic, c: c}
		body(exec.NewThread(ic.TID(), ic.Threads(), w, w))
	})
}

// wctx decorates the inner platform's thread: it is the exec.Model and
// exec.Sync of the Thread the kernel sees, and forwards each annotation
// to the inner Thread once the detector has observed it.
type wctx struct {
	inner exec.Ctx
	c     *Checker
}

var (
	_ exec.Model = (*wctx)(nil)
	_ exec.Sync  = (*wctx)(nil)
)

func (w *wctx) Load(a exec.Addr) {
	pc := callerPC()
	w.c.mu.Lock()
	w.c.det.read(w.inner.TID(), a, pc, false)
	w.c.mu.Unlock()
	w.inner.Load(a)
}

func (w *wctx) Store(a exec.Addr) {
	pc := callerPC()
	w.c.mu.Lock()
	w.c.det.write(w.inner.TID(), a, pc, false)
	w.c.mu.Unlock()
	w.inner.Store(a)
}

func (w *wctx) AtomicLoad(a exec.Addr) {
	pc := callerPC()
	w.c.mu.Lock()
	tid := w.inner.TID()
	w.c.det.acquireAddr(tid, a)
	w.c.det.read(tid, a, pc, true)
	w.c.mu.Unlock()
	w.inner.AtomicLoad(a)
}

func (w *wctx) AtomicStore(a exec.Addr) {
	pc := callerPC()
	w.c.mu.Lock()
	tid := w.inner.TID()
	w.c.det.acquireAddr(tid, a)
	w.c.det.write(tid, a, pc, true)
	w.c.det.releaseAddr(tid, a)
	w.c.mu.Unlock()
	w.inner.AtomicStore(a)
}

func (w *wctx) AtomicRMW(a exec.Addr) {
	pc := callerPC()
	w.c.mu.Lock()
	tid := w.inner.TID()
	w.c.det.acquireAddr(tid, a)
	w.c.det.write(tid, a, pc, true)
	w.c.det.releaseAddr(tid, a)
	w.c.mu.Unlock()
	w.inner.AtomicRMW(a)
}

func (w *wctx) LoadSpan(a exec.Addr, elems, elemSize int) {
	pc := callerPC()
	w.c.mu.Lock()
	w.c.det.span(w.inner.TID(), a, elems, elemSize, pc, false)
	w.c.mu.Unlock()
	w.inner.LoadSpan(a, elems, elemSize)
}

func (w *wctx) StoreSpan(a exec.Addr, elems, elemSize int) {
	pc := callerPC()
	w.c.mu.Lock()
	w.c.det.span(w.inner.TID(), a, elems, elemSize, pc, true)
	w.c.mu.Unlock()
	w.inner.StoreSpan(a, elems, elemSize)
}

func (w *wctx) Compute(n int) { w.inner.Compute(n) }

// Lock forwards first and takes the happens-before edge after the inner
// lock is held, so the edge is ordered after the previous holder's
// release edge.
func (w *wctx) Lock(l exec.Lock) {
	w.inner.Lock(l)
	w.c.mu.Lock()
	w.c.det.lockAcquire(w.inner.TID(), l)
	w.c.mu.Unlock()
}

// Unlock takes the release edge before the inner unlock, for the same
// ordering reason.
func (w *wctx) Unlock(l exec.Lock) {
	w.c.mu.Lock()
	w.c.det.lockRelease(w.inner.TID(), l)
	w.c.mu.Unlock()
	w.inner.Unlock(l)
}

// Barrier merges this thread's clock into the generation's pending join
// before blocking on the inner barrier. The last arrival completes the
// generation; every waiter picks the joined clock up after the inner
// barrier releases it.
func (w *wctx) Barrier(b exec.Barrier) {
	tid := w.inner.TID()
	w.c.mu.Lock()
	wb := w.c.bars[b]
	if wb == nil {
		w.c.mu.Unlock()
		panic("racecheck: foreign barrier handle")
	}
	myGen := -1
	if !w.c.det.aborted {
		myGen = wb.gen
		wb.pending.merge(w.c.det.clocks[tid])
		wb.arrived++
		if wb.arrived == wb.parties {
			joined := make(vclock, len(wb.pending))
			copy(joined, wb.pending)
			wb.done[myGen] = &wrapGeneration{joined: joined}
			wb.pending = nil
			wb.arrived = 0
			wb.gen++
		}
	}
	w.c.mu.Unlock()

	w.inner.Barrier(b)

	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	if myGen < 0 {
		return
	}
	g := wb.done[myGen]
	w.c.det.barrierLeave(tid, g.joined)
	g.consumed++
	if g.consumed == wb.parties {
		delete(wb.done, myGen)
	}
}

// Checkpoint forwards to the inner platform; a non-nil error marks the
// detector aborted so the unwind is not checked.
func (w *wctx) Checkpoint() error {
	err := w.inner.Checkpoint()
	if err != nil {
		w.c.mu.Lock()
		w.c.det.abort()
		w.c.mu.Unlock()
	}
	return err
}

func (w *wctx) Active(delta int) { w.inner.Active(delta) }
