package sim

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"crono/internal/energy"
	"crono/internal/exec"
	"crono/internal/noc"
)

// The scheduler runs exactly one simulated thread at a time. Each thread
// keeps its goroutine, so kernels stay straight-line Go, but only the
// holder of the baton runs; the others wait on their wake channel. The
// baton passes, deterministically, to the runnable thread with the lowest
// virtual clock (ties go to the lower tid) when the holder
//
//   - runs more than Config.WindowCycles past the lowest clock of the other
//     runnable threads (checked before each reference and each Compute;
//     a window of 0 never passes the baton on this rule),
//   - blocks on a held lock or an incomplete barrier, or
//   - ends.
//
// A channel hand-off orders every model update of one holder before the
// next holder's, so the model's state needs no lock or atomic, and what a
// run computes depends on its inputs alone: multi-thread runs repeat bit
// for bit, at any GOMAXPROCS.

// noLimit is the window limit of a thread that may run until it blocks,
// and the clock entry of a thread that cannot take the baton.
const noLimit = ^uint64(0)

// run is the scheduler state of one RunCtx. Only the baton holder reads
// or writes it.
type run struct {
	cause  context.Context
	window uint64
	ctxs   []*ctx
	// clock[t] is thread t's virtual clock while it waits for the baton
	// and noLimit while it is blocked or ended; the holder's own entry is
	// stale until it passes the baton.
	clock    []uint64
	left     int           // threads that have not ended
	aborted  bool          // a poll saw the run context canceled
	err      error         // every thread left was blocked
	finished chan struct{} // closed by the last thread to end
}

// ctx is the per-thread simulation context. Its virtual clock (now)
// advances through the timing model; clocks reconcile at locks and
// barriers (lax synchronization).
type ctx struct {
	m       *Machine
	run     *run
	tid     int
	core    int
	now     uint64
	limit   uint64 // the clock past which this thread passes the baton on
	brk     exec.Breakdown
	instr   uint64
	energy  energy.Counter
	stats   exec.CacheStats
	samples []exec.ActiveSample

	wake chan struct{} // the baton, when it is handed to this thread
	lock *simLock      // the held lock this thread waits for
	bar  *simBarrier   // the barrier this thread waits at
	exit bool          // woken to end: its barrier was aborted, or the run deadlocked
}

var (
	_ exec.Model = (*ctx)(nil)
	_ exec.Sync  = (*ctx)(nil)
)

// tick passes the baton on once this thread is a window ahead.
func (c *ctx) tick() {
	if c.now > c.limit {
		c.yield()
	}
}

// yield passes the baton on and waits for it to come back.
func (c *ctx) yield() {
	c.run.clock[c.tid] = c.now
	c.switchTo(c.run.next())
}

// block waits, off the baton, until another thread makes this one
// runnable again.
func (c *ctx) block() {
	c.run.clock[c.tid] = noLimit
	c.switchTo(c.run.next())
}

// switchTo hands the baton from c to next, unless they are the same
// thread, and waits until it comes back.
func (c *ctx) switchTo(next *ctx) {
	if next != c {
		next.wake <- struct{}{}
		<-c.wake
	}
	c.limit = c.run.limitFor(c)
}

// unblock makes u, blocked until now, runnable at its own clock. The
// holder c stays the holder, but its window now also counts u.
func (c *ctx) unblock(u *ctx) {
	r := c.run
	r.clock[u.tid] = u.now
	if r.window != 0 && u.now+r.window < c.limit {
		c.limit = u.now + r.window
	}
}

// limitFor is the clock past which c passes the baton on: the window
// beyond the lowest clock of the other runnable threads.
func (r *run) limitFor(c *ctx) uint64 {
	if r.window == 0 {
		return noLimit
	}
	low := noLimit
	for t, v := range r.clock {
		if v < low && t != c.tid {
			low = v
		}
	}
	if low == noLimit {
		return noLimit
	}
	return low + r.window
}

// next returns the thread the baton goes to: the runnable one with the
// lowest clock, ties to the lower tid. Blocked threads with no runnable
// one left are a deadlock, which ends them all. It returns nil once
// every thread has ended.
func (r *run) next() *ctx {
	for {
		best, low := -1, noLimit
		for t, v := range r.clock {
			if v < low {
				best, low = t, v
			}
		}
		if best >= 0 {
			return r.ctxs[best]
		}
		if r.left == 0 {
			return nil
		}
		var stuck []int
		for _, c := range r.ctxs {
			if c.lock != nil || c.bar != nil {
				stuck = append(stuck, c.tid)
			}
		}
		r.err = fmt.Errorf("sim: deadlock: threads %v blocked on locks or barriers", stuck)
		r.release(true)
	}
}

// release makes every thread blocked at a barrier (and, with locks, on a
// lock) runnable so that it ends when it next holds the baton. A barrier
// waiter withdraws its arrival, so a barrier reused by a later run still
// needs every party.
func (r *run) release(locks bool) {
	for _, c := range r.ctxs {
		switch {
		case c.bar != nil:
			c.bar.waiting, c.bar.maxArr = c.bar.waiting[:0], 0
		case locks && c.lock != nil:
			c.lock.waiters = c.lock.waiters[:0]
		default:
			continue
		}
		c.bar, c.lock, c.exit = nil, nil, true
		r.clock[c.tid] = c.now
	}
}

// abort records that the run context is canceled: barrier waiters end,
// and so does every later arrival.
func (r *run) abort() {
	if !r.aborted {
		r.aborted = true
		r.release(false)
	}
}

// end retires c's thread and hands the baton on, or reports the run
// finished when c was the last.
func (r *run) end(c *ctx) {
	r.clock[c.tid] = noLimit
	r.left--
	if next := r.next(); next != nil {
		next.wake <- struct{}{}
	} else {
		close(r.finished)
	}
}

// Checkpoint implements exec.Sync: a non-blocking poll of the run context.
// Simulated time is not charged; cancellation is a harness-control event,
// not part of the modeled kernel.
func (c *ctx) Checkpoint() error {
	if err := c.run.cause.Err(); err != nil {
		c.run.abort()
		return err
	}
	return nil
}

type simLock struct {
	line    uint64 // futex word; retained for the locality ablation
	held    bool
	waiters []*ctx // handed the lock in arrival order
	// Utilization stats for the lax-safe hand-off wait model: a strict
	// "wait until the previous holder's release time" rule would let a
	// virtual-time front-runner drag every later acquirer up to its
	// clock even when they contend only in host order, not virtual time.
	busy       uint64 // cumulative held cycles
	horizon    uint64 // latest virtual time observed
	count      uint64 // completed critical sections
	acquiredAt uint64
}

// NewLock implements exec.Platform: each lock occupies its own cache
// line, so lock transfers generate the coherence ping-pong the paper
// attributes synchronization traffic to.
func (m *Machine) NewLock() exec.Lock {
	r := m.Alloc("lock", 1, m.cfg.LineBytes)
	return &simLock{line: r.Base >> m.lineBits}
}

type simBarrier struct {
	parties int
	cost    uint64
	waiting []*ctx // this generation's arrivals
	maxArr  uint64 // their latest arrival clock
}

// NewBarrier implements exec.Platform.
func (m *Machine) NewBarrier(parties int) exec.Barrier {
	return &simBarrier{
		parties: parties,
		cost:    uint64(parties)*m.barrierArrival + m.barrierRelease,
	}
}

// mcpTransact models one synchronization operation routed through the
// centralized sync manager on tile 0, as Graphite's MCP does: a request
// message, a serialized service slot, and a reply. The whole trip is
// charged to Synchronization. When aggregate demand exceeds the MCP's
// capacity the backlog term drains at one op per MCPServiceCycles,
// reproducing the paper's synchronization wall for lock-heavy kernels.
// The backlog is priced against the demand before this operation's
// reservation.
func (c *ctx) mcpTransact() {
	m := c.m
	// Not counted as an instruction: the lock's futex-word access is the
	// instruction; this is the system half of the same operation.
	start := c.now
	t, fh := m.mesh.Traverse(c.core, 0, m.cfg.CtrlPacketBits, start)
	c.energy.FlitHops += uint64(fh)
	if t > m.mcpHorizon {
		m.mcpHorizon = t
	}
	demand := m.mcpBusy
	m.mcpBusy += m.cfg.MCPServiceCycles
	var wait uint64
	if demand > m.mcpHorizon {
		// Oversubscribed: the backlog must drain serially.
		wait = demand - m.mcpHorizon
	} else {
		wait = noc.QueueDelay(demand, m.mcpHorizon, m.cfg.MCPServiceCycles)
	}
	t += wait + m.cfg.MCPServiceCycles
	t2, fh2 := m.mesh.Traverse(0, c.core, m.cfg.CtrlPacketBits, t)
	c.energy.FlitHops += uint64(fh2)

	c.brk[exec.CompSync] += t2 - start
	c.now = t2
}

// Lock implements exec.Sync: a synchronization trip to the central sync
// manager plus a utilization-based hand-off wait reflecting how busy
// this particular lock is in virtual time. A held lock blocks the thread
// until its holder hands the lock over; the wait itself costs no
// simulated time.
func (c *ctx) Lock(l exec.Lock) {
	sl, ok := l.(*simLock)
	if !ok {
		panic("sim: foreign lock handle")
	}
	c.tick()
	if sl.held {
		sl.waiters = append(sl.waiters, c)
		c.lock = sl
		c.block()
		if c.exit {
			runtime.Goexit()
		}
	}
	sl.held = true
	c.mcpTransact()
	// Atomic RMW on the futex word: contended locks ping-pong their
	// cache line exactly like the paper's "atomic locks".
	c.access(sl.line<<c.m.lineBits, true)
	if c.now > sl.horizon {
		sl.horizon = c.now
	}
	if sl.count > 0 {
		wait := noc.QueueDelay(sl.busy, sl.horizon, sl.busy/sl.count)
		c.brk[exec.CompSync] += wait
		c.now += wait
	}
	sl.acquiredAt = c.now
}

// Unlock implements exec.Sync. The first waiter, if any, is handed the
// lock and becomes runnable.
func (c *ctx) Unlock(l exec.Lock) {
	sl, ok := l.(*simLock)
	if !ok {
		panic("sim: foreign lock handle")
	}
	c.mcpTransact()
	// Release store on the futex word.
	c.access(sl.line<<c.m.lineBits, true)
	if c.now > sl.acquiredAt {
		sl.busy += c.now - sl.acquiredAt
	}
	sl.count++
	if len(sl.waiters) == 0 {
		sl.held = false
		return
	}
	u := sl.waiters[0]
	sl.waiters = sl.waiters[:copy(sl.waiters, sl.waiters[1:])]
	u.lock = nil
	c.unblock(u)
}

// Barrier implements exec.Sync: all parties reconcile to the maximum
// arrival time plus a mesh-wide release broadcast. It is the run's
// cancellation point, as natively: the last arriver polls the run context
// before releasing the generation, and in an aborted run the barrier never
// returns but ends the calling thread, after withdrawing its arrival so a
// barrier reused by a later run still needs every party. The poll and the
// abort cost no simulated time.
func (c *ctx) Barrier(b exec.Barrier) {
	sb, ok := b.(*simBarrier)
	if !ok {
		panic("sim: foreign barrier handle")
	}
	r := c.run
	if r.aborted {
		runtime.Goexit()
	}
	sb.maxArr = max(sb.maxArr, c.now)
	sb.waiting = append(sb.waiting, c)
	if len(sb.waiting) < sb.parties {
		c.bar = sb
		c.block()
		if c.exit {
			runtime.Goexit()
		}
		return // the last arriver reconciled this thread's clock
	}
	if r.cause.Err() != nil {
		sb.waiting = sb.waiting[:len(sb.waiting)-1]
		r.abort()
		runtime.Goexit()
	}
	release := sb.maxArr + sb.cost
	for _, u := range sb.waiting {
		u.brk[exec.CompSync] += release - u.now
		u.now = release
		if u != c {
			u.bar = nil
			r.clock[u.tid] = release
		}
	}
	sb.waiting, sb.maxArr = sb.waiting[:0], 0
	c.limit = r.limitFor(c)
}

// Run implements exec.Platform. Threads map one-to-one onto cores
// 0..threads-1; thread counts beyond the core count are rejected.
func (m *Machine) Run(threads int, body func(exec.Ctx)) *exec.Report {
	rep, _ := m.RunCtx(context.Background(), threads, body)
	return rep
}

// RunCtx implements exec.Platform. On cancellation every thread ends at
// its next barrier (waiters end where they wait) or returns at its next
// Checkpoint, and the partial timing model state of the run is
// discarded. RunCtx returns once every thread's goroutine has ended.
func (m *Machine) RunCtx(goCtx context.Context, threads int, body func(exec.Ctx)) (*exec.Report, error) {
	if goCtx == nil {
		goCtx = context.Background()
	}
	if threads < 1 {
		threads = 1
	}
	if threads > m.cfg.Cores {
		panic(fmt.Sprintf("sim: %d threads exceed %d cores", threads, m.cfg.Cores))
	}
	if err := goCtx.Err(); err != nil {
		return nil, err
	}
	r := &run{
		cause:    goCtx,
		window:   m.cfg.WindowCycles,
		ctxs:     make([]*ctx, threads),
		clock:    make([]uint64, threads),
		left:     threads,
		finished: make(chan struct{}),
	}
	for t := range r.ctxs {
		r.ctxs[t] = &ctx{m: m, run: r, tid: t, core: m.placeThread(t, threads), wake: make(chan struct{}, 1)}
	}
	// Host wall-clock of the parallel region, reported out of band for
	// simulator-throughput measurements; it never feeds the model.
	hostStart := time.Now() //crono:vet-ignore simdeterminism
	for _, c := range r.ctxs {
		go func() {
			// Deferred: a barrier of an aborted run ends the thread.
			defer r.end(c)
			<-c.wake
			c.limit = r.limitFor(c)
			body(exec.NewThread(c.tid, threads, c, c))
		}()
	}
	r.ctxs[0].wake <- struct{}{} // every clock is 0: tid 0 goes first
	<-r.finished
	hostNs := uint64(time.Since(hostStart)) //crono:vet-ignore simdeterminism
	err := goCtx.Err()
	if err == nil {
		err = r.err
	}
	if err != nil {
		m.extra = energy.Counter{}
		return nil, err
	}
	return m.report(r.ctxs, hostNs), nil
}
