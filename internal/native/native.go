// Package native implements the exec.Platform on real host hardware using
// goroutines. It is the reproduction of the paper's "real machine setup"
// (Section IV-C / Figure 9): locks and barriers map to Go synchronization
// primitives, and the platform attaches no exec.Model to its threads, so
// an annotation is exec.Thread's own instruction counter bumped inline in
// the kernel loop: no call, no dispatch, and of the address only
// Region.At's sign test. BenchmarkAnnotate measures it (1.6 ns for a
// Load on the reference host, the latency of an add through memory, which
// a kernel's own loads overlap); DESIGN §2 has what that is worth per
// kernel.
package native

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crono/internal/exec"
)

// Platform is the native goroutine execution platform. The zero value is
// ready to use.
//
// A platform is reusable by construction: per-thread state and the
// per-thread start functions are built once per thread count and kept
// across runs, so a warm run allocates nothing but the report it returns
// (and not even that through RunInto). Threads are goroutines spawned at
// the start of a run and joined before it returns; nothing outlives a
// run, so a platform needs no Close and may be dropped or pooled freely.
//
// One run at a time: a RunCtx that overlaps another on the same platform
// is refused with an error. Use one platform per concurrent run.
type Platform struct {
	allocMu sync.Mutex
	next    exec.Addr

	running atomic.Bool
	closed  atomic.Bool

	// thr[t] is thread t's state and thunks[t] the function its goroutine
	// runs; both are grown on demand by ensure and then fixed.
	thr    []*thread
	thunks []func()
	wg     sync.WaitGroup

	// The run in progress. Written before the threads are spawned, read
	// by them; aborted is set by the first Checkpoint or barrier that
	// observes the cancellation of cause.
	body    func(exec.Ctx)
	cause   context.Context
	threads int
	aborted atomic.Bool
	// spin is how long the run's barrier waiters spin before they park:
	// spinBound when the run has the process to itself, else 0. started
	// counts the run's threads that have begun.
	spin    time.Duration
	started atomic.Int32
}

var _ exec.Platform = (*Platform)(nil)

// New returns a native platform.
func New() *Platform { return &Platform{} }

// Name implements exec.Platform.
func (p *Platform) Name() string { return "native" }

// Alloc implements exec.Platform. Addresses are line-aligned so the same
// kernel code drives the simulator unchanged.
func (p *Platform) Alloc(name string, elems, elemSize int) exec.Region {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	if p.next == 0 {
		p.next = exec.LineSize // keep address 0 unused
	}
	base := p.next
	bytes := uint64(elems) * uint64(elemSize)
	bytes = (bytes + exec.LineSize - 1) &^ uint64(exec.LineSize-1)
	p.next += bytes
	return exec.NewRegion(name, base, elems, elemSize)
}

type nativeLock struct{ mu sync.Mutex }

// NewLock implements exec.Platform.
func (p *Platform) NewLock() exec.Lock { return &nativeLock{} }

// NewLocks makes n locks in one slab for exec.NewLocks: a per-vertex
// lock array costs two allocations instead of n+1.
func (p *Platform) NewLocks(n int) []exec.Lock {
	slab := make([]nativeLock, n)
	locks := make([]exec.Lock, n)
	for i := range slab {
		locks[i] = &slab[i]
	}
	return locks
}

// barrier is a generation-counting barrier on a sync.Cond, so crossings
// allocate nothing. It holds no platform or run state: a waiter takes
// the run from its own thread, and publishes the barrier it parks on there
// so an aborting run can wake it (see Platform.trip). A barrier outlives
// the run that made it and may be reused by later runs.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	parties int
	waiting int
	// gen counts completed generations. It is written under mu and read
	// without it by a spinning waiter, so it has a cache line of its own:
	// sharing mu's, the spinners' polls slowed every arrival's Lock
	// (a tight two-thread crossing took ~1.1 µs against ~0.6 µs).
	_   [exec.LineSize]byte
	gen atomic.Uint64
	_   [exec.LineSize - 8]byte
}

// NewBarrier implements exec.Platform.
func (p *Platform) NewBarrier(parties int) exec.Barrier {
	b := &barrier{parties: parties}
	b.cond.L = &b.mu
	return b
}

// spinBound is how long a waiter of a run that has the process to itself
// spins before it parks (see RunInto). A park and its wake-up cost 12–50
// µs on a 2-vCPU host, and most rounds of a road-graph kernel end within
// that; spins of 1–10 µs ended too few waits to gain anything.
const spinBound = 100 * time.Microsecond

// wait is the run's cancellation point. The last arriver of a generation
// polls the run context before releasing it; in an aborted run the barrier
// never returns but ends the calling thread, after withdrawing its arrival
// so a barrier reused by a later run still needs a full complement of
// parties. A thread returns only from a completed generation, so every
// thread that runs on is ordered by the barrier it passed.
//
// A waiter first spins on the generation word for up to spin (none when
// spin is 0), then parks on the condition variable. The run chooses spin;
// tests pass it directly to drive either path.
func (b *barrier) wait(c *thread, spin time.Duration) {
	p := c.p
	b.mu.Lock()
	if p.aborted.Load() {
		b.mu.Unlock()
		runtime.Goexit()
	}
	gen := b.gen.Load()
	b.waiting++
	if b.waiting == b.parties {
		if p.cause.Err() != nil {
			b.waiting--
			b.mu.Unlock()
			p.trip() // locks the parked barriers' mutexes, b's among them
			runtime.Goexit()
		}
		b.waiting = 0
		b.gen.Add(1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	if spin > 0 {
		b.mu.Unlock()
		if b.spin(p, gen, spin) {
			return
		}
		// Timed out or aborted: park, which sees the abort at once.
		b.mu.Lock()
	}
	// Publish before reading aborted: trip sets aborted and then reads
	// parked, so either this thread sees the abort or trip sees b, and
	// trip's broadcast needs b.mu, which is free only once Wait parked.
	c.parked.Store(b)
	for b.gen.Load() == gen && !p.aborted.Load() {
		b.cond.Wait()
	}
	c.parked.Store(nil)
	if b.gen.Load() == gen {
		b.waiting--
		b.mu.Unlock()
		runtime.Goexit()
	}
	b.mu.Unlock()
}

// spin busy-waits, holding no lock and never yielding, until generation
// gen completes (true) or the run aborts or d passes (false). The clock
// is read once every 64 polls of the generation word.
func (b *barrier) spin(p *Platform, gen uint64, d time.Duration) bool {
	start := time.Now()
	for i := 1; ; i++ {
		if b.gen.Load() != gen {
			return true
		}
		if p.aborted.Load() || i%64 == 0 && time.Since(start) > d {
			return false
		}
	}
}

// trip marks the run aborted and wakes every thread parked at a barrier.
// The work is bounded by the thread count: each thread names the one
// barrier it is parked on, and only those are broadcast.
func (p *Platform) trip() {
	if !p.aborted.CompareAndSwap(false, true) {
		return
	}
	for _, c := range p.thr[:p.threads] {
		if b := c.parked.Load(); b != nil {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		}
	}
}

// thread is one thread's platform state: the exec.Sync behind its
// exec.Thread, and its timers. It persists across runs; each is its own
// allocation with a trailing pad, as the Thread is. The instruction count
// is not here: with no exec.Model attached the Thread keeps it, inline in
// the kernel.
type thread struct {
	p *Platform
	t *exec.Thread

	busyNs uint64
	syncNs uint64
	// parked is the barrier this thread is blocked on, if any.
	parked atomic.Pointer[barrier]

	_ [exec.LineSize]byte // false-sharing guard
}

var _ exec.Sync = (*thread)(nil)

func (c *thread) Lock(l exec.Lock)   { l.(*nativeLock).mu.Lock() }
func (c *thread) Unlock(l exec.Lock) { l.(*nativeLock).mu.Unlock() }

func (c *thread) Barrier(b exec.Barrier) {
	t0 := time.Now()
	b.(*barrier).wait(c, c.p.spinFor())
	c.syncNs += uint64(time.Since(t0))
}

// spinFor is how long a waiter spins: the run's spin once all its
// threads have begun, none before, since a thread not yet begun may be
// queued on the very processor the waiter would spin on (an empty
// two-thread run took 4 to 20 times as long when its first waiter
// spun).
func (p *Platform) spinFor() time.Duration {
	if int(p.started.Load()) < p.threads {
		return 0
	}
	return p.spin
}

// Checkpoint implements exec.Sync: a non-blocking poll of the run context.
func (c *thread) Checkpoint() error {
	if err := c.p.cause.Err(); err != nil {
		c.p.trip()
		return err
	}
	return nil
}

// ensure grows the per-thread state and thunks to the given
// parallelism. A thunk reads the run's body from the platform, so one
// func value per thread serves every run and spawning it allocates
// nothing.
func (p *Platform) ensure(threads int) {
	for tid := len(p.thr); tid < threads; tid++ {
		c := &thread{p: p}
		c.t = exec.NewThread(tid, threads, nil, c)
		p.thr = append(p.thr, c)
		p.thunks = append(p.thunks, func() {
			p.started.Add(1)
			t0 := time.Now()
			// Deferred: a barrier of an aborted run ends the thread.
			defer func() {
				c.busyNs = uint64(time.Since(t0))
				p.wg.Done()
			}()
			p.body(c.t)
		})
	}
}

// Run implements exec.Platform. It measures the parallel region only.
func (p *Platform) Run(threads int, body func(exec.Ctx)) *exec.Report {
	rep, _ := p.RunCtx(context.Background(), threads, body)
	return rep
}

// RunCtx implements exec.Platform: RunInto on a fresh report, which is
// the caller's to keep.
func (p *Platform) RunCtx(goCtx context.Context, threads int, body func(exec.Ctx)) (*exec.Report, error) {
	rep := &exec.Report{}
	if err := p.RunInto(goCtx, threads, body, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// RunInto is RunCtx writing into a report the caller supplies, reusing
// the capacity of its slices: with a report kept across runs a warm run
// performs zero heap allocations. On cancellation every thread ends at
// its next barrier (parked waiters are woken to end at theirs) or returns
// at its next Checkpoint, rep is left untouched and the context's error
// is returned.
func (p *Platform) RunInto(goCtx context.Context, threads int, body func(exec.Ctx), rep *exec.Report) error {
	if goCtx == nil {
		goCtx = context.Background()
	}
	if err := goCtx.Err(); err != nil {
		return err
	}
	if !p.running.CompareAndSwap(false, true) {
		return errors.New("native: platform already has a run in progress (one run at a time per platform)")
	}
	defer p.running.Store(false)
	if p.closed.Load() {
		return errors.New("native: platform closed")
	}
	if threads < 1 {
		threads = 1
	}
	p.ensure(threads)
	for _, c := range p.thr[:threads] {
		c.t.Begin(threads)
		c.busyNs, c.syncNs = 0, 0
	}
	p.body, p.cause, p.threads = body, goCtx, threads
	p.aborted.Store(false)
	// A spinning waiter holds its processor, which a server needs for
	// its network poller and its other requests. So waiters spin only
	// when every thread has a processor of its own and no goroutine but
	// the caller exists, as in a benchmark loop; a process that serves
	// never meets this, and its waiters always park.
	p.spin = 0
	if threads <= runtime.GOMAXPROCS(0) && runtime.NumGoroutine() == 1 {
		p.spin = spinBound
	}
	p.started.Store(0)

	start := time.Now()
	p.wg.Add(threads)
	for _, thunk := range p.thunks[:threads] {
		go thunk()
	}
	p.wg.Wait()
	// A kept or pooled platform must not pin the last kernel's state.
	p.body, p.cause = nil, nil
	if err := goCtx.Err(); err != nil {
		return err
	}
	elapsed := uint64(time.Since(start))

	*rep = exec.Report{
		Platform:     p.Name(),
		Threads:      threads,
		Time:         elapsed,
		HostNs:       elapsed,
		Instructions: grow(rep.Instructions, threads),
		ThreadTime:   grow(rep.ThreadTime, threads),
	}
	var syncNs uint64
	for t, c := range p.thr[:threads] {
		rep.Instructions[t] = c.t.Instructions()
		rep.ThreadTime[t] = c.busyNs
		syncNs += c.syncNs
	}
	rep.Breakdown[exec.CompSync] = syncNs
	if total := elapsed * uint64(threads); total > syncNs {
		rep.Breakdown[exec.CompCompute] = total - syncNs
	}
	return nil
}

// grow returns a length-n slice, buf resliced when its capacity suffices.
func grow(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// Close marks the platform closed: later runs are refused. It releases
// nothing — no goroutine or resource outlives a run — and exists because
// the repository benchmark (bench/) calls it.
func (p *Platform) Close() { p.closed.Store(true) }
