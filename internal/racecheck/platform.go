package racecheck

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"crono/internal/exec"
)

// Platform is the standalone checking platform: a deterministic
// cooperative scheduler that runs one thread at a time, interleaving
// threads round-robin at every annotation. Determinism makes race
// reports reproducible and golden-testable: a given kernel, input and
// thread count always produce the same interleaving, so the same races.
//
// A Platform accumulates races across runs; clock state is per run.
// It is not safe for concurrent RunCtx calls.
type Platform struct {
	nextAddr exec.Addr
	table    *exec.RegionTable
	det      *detector
}

// New returns a standalone deterministic checking platform.
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
	r := exec.Region{
		Name:     name,
		Base:     p.nextAddr,
		ElemSize: uint64(elemSize),
		Elems:    uint64(elems),
	}
	size := r.Bytes()
	size = (size + exec.LineSize - 1) / exec.LineSize * exec.LineSize
	if size == 0 {
		size = exec.LineSize
	}
	p.nextAddr += size
	p.table.Add(r)
	return r
}

type schedLock struct {
	holder  int
	waiters []int
}

// NewLock implements exec.Platform.
func (p *Platform) NewLock() exec.Lock { return &schedLock{holder: -1} }

type schedBarrier struct {
	parties int
	waiting []int
}

// NewBarrier implements exec.Platform.
func (p *Platform) NewBarrier(parties int) exec.Barrier {
	if parties < 1 {
		panic("racecheck: barrier needs at least one party")
	}
	return &schedBarrier{parties: parties}
}

// Run implements exec.Platform.
func (p *Platform) Run(threads int, body func(exec.Ctx)) *exec.Report {
	rep, err := p.RunCtx(context.Background(), threads, body)
	if err != nil {
		panic(fmt.Sprintf("racecheck: background run failed: %v", err))
	}
	return rep
}

type evKind int

const (
	evYield evKind = iota
	evLock
	evUnlock
	evBarrier
	evCheckpoint
	evDone
)

type event struct {
	tid  int
	kind evKind
	lock *schedLock
	bar  *schedBarrier
}

type threadState int

const (
	tsRunnable threadState = iota
	tsBlocked
	tsDone
)

// srun is one RunCtx execution: the scheduler state shared between the
// scheduler loop (running on the caller's goroutine) and the thread
// goroutines. Exactly one goroutine is ever unparked, so no field needs
// a mutex.
type srun struct {
	p       *Platform
	goCtx   context.Context
	threads int

	events chan event
	resume []chan struct{}
	reply  []error // Checkpoint or Barrier verdict, written before resume

	state    []threadState
	instr    []uint64
	barriers []*schedBarrier // barriers with waiters, for abort release
	runErr   error
}

// sctx is one thread's exec.Model and exec.Sync on the scheduler.
type sctx struct {
	run *srun
	tid int
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

// RunCtx implements exec.Platform. The scheduler runs on the calling
// goroutine: it parks every kernel thread and hands the single
// execution token to one thread at a time, round-robin, taking it back
// at each annotation. Cancellation follows the exec contract: a barrier's
// last arriver and every Checkpoint poll goCtx; once one sees it canceled,
// every thread ends at its next barrier (waiters end where they wait,
// without the barrier's happens-before join — an aborted generation
// synchronizes nothing), a Checkpoint returns the error, and RunCtx
// reports (nil, ctx.Err()).
func (p *Platform) RunCtx(goCtx context.Context, threads int, body func(exec.Ctx)) (*exec.Report, error) {
	if threads < 1 {
		return nil, fmt.Errorf("racecheck: threads %d < 1", threads)
	}
	p.det.beginRun(threads)
	r := &srun{
		p:       p,
		goCtx:   goCtx,
		threads: threads,
		events:  make(chan event),
		resume:  make([]chan struct{}, threads),
		reply:   make([]error, threads),
		state:   make([]threadState, threads),
		instr:   make([]uint64, threads),
	}
	for t := 0; t < threads; t++ {
		r.resume[t] = make(chan struct{})
		go func(t int) {
			<-r.resume[t]
			// Deferred: a barrier of an aborted run ends the thread.
			defer func() { r.events <- event{tid: t, kind: evDone} }()
			c := &sctx{run: r, tid: t}
			body(exec.NewThread(t, threads, c, c))
		}(t)
	}

	start := time.Now()
	if err := r.schedule(); err != nil {
		return nil, err
	}
	if r.runErr != nil {
		return nil, r.runErr
	}
	elapsed := uint64(time.Since(start))
	return &exec.Report{
		Platform:     p.Name(),
		Threads:      threads,
		Time:         elapsed,
		HostNs:       elapsed,
		Instructions: r.instr,
		ThreadTime:   make([]uint64, threads),
	}, nil
}

// schedule is the round-robin scheduler loop. It returns a non-nil
// error only for scheduler-level failures (deadlock); cooperative
// cancellation is reported through srun.runErr.
func (r *srun) schedule() error {
	done := 0
	next := 0
	for done < r.threads {
		tid, ok := r.pick(next)
		if !ok {
			return r.deadlock()
		}
		next = (tid + 1) % r.threads
		r.resume[tid] <- struct{}{}
		ev := <-r.events
		switch ev.kind {
		case evYield:
			// Nothing to do: the detector work happened on the thread
			// while it held the token.
		case evLock:
			if ev.lock.holder < 0 {
				ev.lock.holder = ev.tid
				r.p.det.lockAcquire(ev.tid, exec.Lock(ev.lock))
			} else {
				ev.lock.waiters = append(ev.lock.waiters, ev.tid)
				r.state[ev.tid] = tsBlocked
			}
		case evUnlock:
			if ev.lock.holder != ev.tid {
				return fmt.Errorf("racecheck: T%d unlocks a lock held by T%d", ev.tid, ev.lock.holder)
			}
			r.p.det.lockRelease(ev.tid, exec.Lock(ev.lock))
			if len(ev.lock.waiters) > 0 {
				u := ev.lock.waiters[0]
				ev.lock.waiters = ev.lock.waiters[1:]
				ev.lock.holder = u
				r.p.det.lockAcquire(u, exec.Lock(ev.lock))
				r.state[u] = tsRunnable
			} else {
				ev.lock.holder = -1
			}
		case evBarrier:
			// A barrier of an aborted run ends the thread when it resumes.
			r.reply[ev.tid] = r.runErr
			if r.runErr != nil {
				break
			}
			ev.bar.waiting = append(ev.bar.waiting, ev.tid)
			if len(ev.bar.waiting) == 1 {
				r.barriers = append(r.barriers, ev.bar)
			}
			if len(ev.bar.waiting) < ev.bar.parties {
				r.state[ev.tid] = tsBlocked
				break
			}
			if err := r.goCtx.Err(); err != nil {
				r.abort(err) // ends this arriver with the waiters
				break
			}
			joined := r.p.det.barrierJoin(ev.bar.waiting)
			for _, u := range ev.bar.waiting {
				r.p.det.barrierLeave(u, joined)
				r.state[u] = tsRunnable
			}
			ev.bar.waiting = ev.bar.waiting[:0]
		case evCheckpoint:
			err := r.runErr
			if err == nil {
				if err = r.goCtx.Err(); err != nil {
					r.abort(err)
				}
			}
			r.reply[ev.tid] = err
		case evDone:
			r.state[ev.tid] = tsDone
			done++
		}
	}
	return nil
}

// abort records the cooperative cancellation: the detector stops
// recording and every barrier waiter is resumed, without a clock join, to
// end its thread.
func (r *srun) abort(err error) {
	r.runErr = err
	r.p.det.abort()
	for _, b := range r.barriers {
		for _, u := range b.waiting {
			r.state[u] = tsRunnable
			r.reply[u] = err
		}
		b.waiting = b.waiting[:0]
	}
}

// pick returns the first runnable thread at or after from, wrapping.
func (r *srun) pick(from int) (int, bool) {
	for i := 0; i < r.threads; i++ {
		t := (from + i) % r.threads
		if r.state[t] == tsRunnable {
			return t, true
		}
	}
	return 0, false
}

// deadlock formats the stuck-thread state. The blocked goroutines are
// abandoned; this only happens for kernels with a real synchronization
// bug, and the error fails the surrounding test or CLI run anyway.
func (r *srun) deadlock() error {
	blocked := []int{}
	for t, s := range r.state {
		if s == tsBlocked {
			blocked = append(blocked, t)
		}
	}
	return fmt.Errorf("racecheck: deadlock, threads %v blocked on locks or barriers", blocked)
}

// yield hands the token back to the scheduler and waits to be
// rescheduled.
func (c *sctx) yield(ev event) {
	ev.tid = c.tid
	c.run.events <- ev
	<-c.run.resume[c.tid]
}

func (c *sctx) Load(a exec.Addr) {
	c.run.instr[c.tid]++
	c.run.p.det.read(c.tid, a, callerPC(), false)
	c.yield(event{kind: evYield})
}

func (c *sctx) Store(a exec.Addr) {
	c.run.instr[c.tid]++
	c.run.p.det.write(c.tid, a, callerPC(), false)
	c.yield(event{kind: evYield})
}

func (c *sctx) AtomicLoad(a exec.Addr) {
	c.run.instr[c.tid]++
	d := c.run.p.det
	d.acquireAddr(c.tid, a)
	d.read(c.tid, a, callerPC(), true)
	c.yield(event{kind: evYield})
}

func (c *sctx) AtomicStore(a exec.Addr) {
	c.run.instr[c.tid]++
	d := c.run.p.det
	// A sequentially consistent atomic store is ordered after every
	// earlier atomic operation on the address, so it acquires as well
	// as releases.
	d.acquireAddr(c.tid, a)
	d.write(c.tid, a, callerPC(), true)
	d.releaseAddr(c.tid, a)
	c.yield(event{kind: evYield})
}

func (c *sctx) AtomicRMW(a exec.Addr) {
	c.run.instr[c.tid]++
	d := c.run.p.det
	d.acquireAddr(c.tid, a)
	d.write(c.tid, a, callerPC(), true)
	d.releaseAddr(c.tid, a)
	c.yield(event{kind: evYield})
}

func (c *sctx) LoadSpan(a exec.Addr, elems, elemSize int) {
	if elems <= 0 {
		return
	}
	c.run.instr[c.tid] += uint64(elems)
	c.run.p.det.span(c.tid, a, elems, elemSize, callerPC(), false)
	c.yield(event{kind: evYield})
}

func (c *sctx) StoreSpan(a exec.Addr, elems, elemSize int) {
	if elems <= 0 {
		return
	}
	c.run.instr[c.tid] += uint64(elems)
	c.run.p.det.span(c.tid, a, elems, elemSize, callerPC(), true)
	c.yield(event{kind: evYield})
}

func (c *sctx) Compute(n int) {
	if n > 0 {
		c.run.instr[c.tid] += uint64(n)
	}
	c.yield(event{kind: evYield})
}

func (c *sctx) Lock(l exec.Lock) {
	sl, ok := l.(*schedLock)
	if !ok {
		panic("racecheck: foreign lock handle")
	}
	c.run.instr[c.tid]++
	c.yield(event{kind: evLock, lock: sl})
}

func (c *sctx) Unlock(l exec.Lock) {
	sl, ok := l.(*schedLock)
	if !ok {
		panic("racecheck: foreign lock handle")
	}
	c.run.instr[c.tid]++
	c.yield(event{kind: evUnlock, lock: sl})
}

func (c *sctx) Barrier(b exec.Barrier) {
	sb, ok := b.(*schedBarrier)
	if !ok {
		panic("racecheck: foreign barrier handle")
	}
	c.yield(event{kind: evBarrier, bar: sb})
	if c.run.reply[c.tid] != nil {
		runtime.Goexit()
	}
}

func (c *sctx) Checkpoint() error {
	c.yield(event{kind: evCheckpoint})
	return c.run.reply[c.tid]
}

func (c *sctx) Active(int) {}
