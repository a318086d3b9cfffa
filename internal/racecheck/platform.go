package racecheck

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"crono/internal/exec"
)

// Platform is the checking platform. It runs on exec.Sched, the
// simulator's baton scheduler, under the RoundRobin rule: one thread at
// a time, the baton passing to the next runnable thread in tid order at
// every annotation and after every lock, unlock, barrier release and
// Checkpoint. Determinism makes race reports reproducible and
// golden-testable: a given kernel, input and thread count always produce
// the same interleaving, so the same races.
//
// A Platform accumulates races across runs; clock state is per run.
// It is not safe for concurrent RunCtx calls.
type Platform struct {
	nextAddr exec.Addr
	table    *exec.RegionTable
	det      *detector
}

// New returns a deterministic checking platform.
func New() *Platform {
	table := &exec.RegionTable{}
	return &Platform{
		nextAddr: exec.LineSize,
		table:    table,
		det:      newDetector(table),
	}
}

// Name implements exec.Platform.
func (p *Platform) Name() string { return "racecheck" }

// Races returns the races detected so far, deduplicated by site pair
// and sorted for stable output.
func (p *Platform) Races() []Race { return resolveRaces(p.det.races, p.table) }

// Alloc implements exec.Platform with a line-aligned bump allocator and
// registers the region for address-to-name resolution in reports.
func (p *Platform) Alloc(name string, elems, elemSize int) exec.Region {
	if elems < 0 || elemSize <= 0 {
		panic(fmt.Sprintf("racecheck: bad Alloc(%q, %d, %d)", name, elems, elemSize))
	}
	r := exec.NewRegion(name, p.nextAddr, elems, elemSize)
	size := r.Bytes()
	size = (size + exec.LineSize - 1) / exec.LineSize * exec.LineSize
	if size == 0 {
		size = exec.LineSize
	}
	p.nextAddr += size
	p.table.Add(r)
	return r
}

// NewLock implements exec.Platform.
func (p *Platform) NewLock() exec.Lock { return &exec.SchedLock{} }

// NewBarrier implements exec.Platform.
func (p *Platform) NewBarrier(parties int) exec.Barrier { return exec.NewSchedBarrier(parties) }

// Run implements exec.Platform.
func (p *Platform) Run(threads int, body func(exec.Ctx)) *exec.Report {
	rep, err := p.RunCtx(context.Background(), threads, body)
	if err != nil {
		panic(fmt.Sprintf("racecheck: background run failed: %v", err))
	}
	return rep
}

// sctx is one thread's exec.Model and exec.Sync on the scheduler.
type sctx struct {
	exec.Seat
	det *detector
}

var (
	_ exec.Model = (*sctx)(nil)
	_ exec.Sync  = (*sctx)(nil)
)

// callerPC captures the kernel's annotation call site as a return
// address, the form site hands to runtime.CallersFrames: the first frame
// outside internal/exec above the exec.Model method invoking this helper.
// In between sit the exec.Thread method that forwarded the call, inlined
// into the kernel (runtime.Callers counts it as a frame all the same),
// and for LoadGather also the out-of-line loop replaying the gather.
func callerPC() uintptr {
	var pcs [3]uintptr
	n := runtime.Callers(3, pcs[:])
	for _, pc := range pcs[:n] {
		if f := runtime.FuncForPC(pc - 1); f == nil || !strings.HasPrefix(f.Name(), "crono/internal/exec.") {
			return pc
		}
	}
	return 0
}

// RunCtx implements exec.Platform. Cancellation follows the exec
// contract: a barrier's last arriver and every Checkpoint poll goCtx;
// once one sees it canceled, every thread ends at its next barrier
// (waiters end where they wait, without the barrier's happens-before
// join — an aborted generation synchronizes nothing), a Checkpoint
// returns the error, and RunCtx reports (nil, ctx.Err()).
func (p *Platform) RunCtx(goCtx context.Context, threads int, body func(exec.Ctx)) (*exec.Report, error) {
	if threads < 1 {
		return nil, fmt.Errorf("racecheck: threads %d < 1", threads)
	}
	s := exec.NewSched("racecheck", goCtx, exec.RoundRobin, 0)
	p.det.beginRun(threads, s)
	ctxs := make([]sctx, threads)
	seats := make([]*exec.Seat, threads)
	ths := make([]*exec.Thread, threads)
	for t := range ctxs {
		c := &ctxs[t]
		c.det, seats[t], ths[t] = p.det, &c.Seat, exec.NewThread(t, threads, c, c)
	}
	start := time.Now()
	if err := s.Run(seats, func(t int) { body(ths[t]) }); err != nil {
		return nil, err
	}
	elapsed := uint64(time.Since(start))
	instr := make([]uint64, threads)
	for t, th := range ths {
		instr[t] = th.Instructions()
	}
	return &exec.Report{
		Platform:     p.Name(),
		Threads:      threads,
		Time:         elapsed,
		HostNs:       elapsed,
		Instructions: instr,
		ThreadTime:   make([]uint64, threads),
	}, nil
}

func (c *sctx) Load(a exec.Addr) {
	c.det.read(c.TID(), a, callerPC(), false)
	c.Yield(0)
}

func (c *sctx) Store(a exec.Addr) {
	c.det.write(c.TID(), a, callerPC(), false)
	c.Yield(0)
}

func (c *sctx) AtomicLoad(a exec.Addr) {
	c.det.acquireAddr(c.TID(), a)
	c.det.read(c.TID(), a, callerPC(), true)
	c.Yield(0)
}

func (c *sctx) AtomicStore(a exec.Addr) {
	// A sequentially consistent atomic store is ordered after every
	// earlier atomic operation on the address, so it acquires as well
	// as releases.
	c.det.acquireAddr(c.TID(), a)
	c.det.write(c.TID(), a, callerPC(), true)
	c.det.releaseAddr(c.TID(), a)
	c.Yield(0)
}

func (c *sctx) AtomicRMW(a exec.Addr) {
	c.det.acquireAddr(c.TID(), a)
	c.det.write(c.TID(), a, callerPC(), true)
	c.det.releaseAddr(c.TID(), a)
	c.Yield(0)
}

func (c *sctx) LoadSpan(a exec.Addr, elems, elemSize int) {
	if elems <= 0 {
		return
	}
	c.det.span(c.TID(), a, elems, elemSize, callerPC(), false)
	c.Yield(0)
}

func (c *sctx) StoreSpan(a exec.Addr, elems, elemSize int) {
	if elems <= 0 {
		return
	}
	c.det.span(c.TID(), a, elems, elemSize, callerPC(), true)
	c.Yield(0)
}

func (c *sctx) Compute(int) { c.Yield(0) }

// Lock acquires at grant: immediately when l is free, else when the
// holder's Unlock hands it over. A thread that waited already gave up
// the baton and does not yield again.
func (c *sctx) Lock(l exec.Lock) {
	sl, ok := l.(*exec.SchedLock)
	if !ok {
		panic("racecheck: foreign lock handle")
	}
	waited := c.Acquire(sl, 0)
	c.det.lockAcquire(c.TID(), l)
	if !waited {
		c.Yield(0)
	}
}

func (c *sctx) Unlock(l exec.Lock) {
	sl, ok := l.(*exec.SchedLock)
	if !ok {
		panic("racecheck: foreign lock handle")
	}
	c.det.lockRelease(c.TID(), l)
	c.Release(sl)
	c.Yield(0)
}

// Barrier joins the arrivals' clocks on the generation's last arrival.
func (c *sctx) Barrier(b exec.Barrier) {
	sb, ok := b.(*exec.SchedBarrier)
	if !ok {
		panic("racecheck: foreign barrier handle")
	}
	if arrivals := c.Arrive(sb, 0); arrivals != nil {
		joined := c.det.barrierJoin(arrivals)
		for _, u := range arrivals {
			c.det.barrierLeave(u, joined)
		}
		c.Open(sb, 0)
		c.Yield(0)
	}
}

func (c *sctx) Checkpoint() error {
	err := c.Poll()
	c.Yield(0)
	return err
}

func (c *sctx) Active(int) {}
