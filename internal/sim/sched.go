package sim

import (
	"context"
	"fmt"
	"time"

	"crono/internal/energy"
	"crono/internal/exec"
	"crono/internal/noc"
)

// The simulator runs on exec.Sched under its LowestClock rule: one
// simulated thread at a time, the baton passing to the runnable thread
// with the lowest virtual clock (ties to the lower tid) when the holder
// runs more than Config.WindowCycles past the lowest clock of the other
// runnable threads (checked before each reference and each Compute; a
// window of 0 never passes the baton on this rule), blocks on a held
// lock or an incomplete barrier, or ends.

// ctx is the per-thread simulation context. Its virtual clock (now)
// advances through the timing model; clocks reconcile at locks and
// barriers (lax synchronization).
type ctx struct {
	m       *Machine
	core    int
	now     uint64
	limit   uint64 // the clock past which this thread passes the baton on
	brk     exec.Breakdown
	energy  energy.Counter
	stats   exec.CacheStats
	samples []exec.ActiveSample
	peers   []*ctx // the run's threads, by tid

	exec.Seat
}

var (
	_ exec.Model = (*ctx)(nil)
	_ exec.Sync  = (*ctx)(nil)
)

// tick passes the baton on once this thread is a window ahead. It is on
// every reference and must inline; the hand-off stays in yield.
func (c *ctx) tick() {
	if c.now > c.limit {
		c.yield()
	}
}

// yield passes the baton on and rereads the window limit once it comes
// back.
func (c *ctx) yield() {
	c.Yield(c.now)
	c.limit = c.Limit()
}

// Checkpoint implements exec.Sync: a non-blocking poll of the run context.
// Simulated time is not charged; cancellation is a harness-control event,
// not part of the modeled kernel.
func (c *ctx) Checkpoint() error { return c.Poll() }

type simLock struct {
	exec.SchedLock
	line uint64 // futex word; retained for the locality ablation
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

// NewBarrier implements exec.Platform.
func (m *Machine) NewBarrier(parties int) exec.Barrier { return exec.NewSchedBarrier(parties) }

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
	if c.Acquire(&sl.SchedLock, c.now) {
		c.limit = c.Limit()
	}
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
	if c.Release(&sl.SchedLock) {
		c.limit = c.Limit()
	}
}

// Barrier implements exec.Sync: all parties reconcile to the maximum
// arrival time plus a mesh-wide release broadcast. It is the run's
// cancellation point, as natively (exec.Seat.Arrive): in an aborted run
// it never returns but ends the calling thread. The poll and the abort
// cost no simulated time.
func (c *ctx) Barrier(b exec.Barrier) {
	sb, ok := b.(*exec.SchedBarrier)
	if !ok {
		panic("sim: foreign barrier handle")
	}
	arrivals := c.Arrive(sb, c.now)
	if arrivals == nil { // the last arriver reconciled this thread's clock
		c.limit = c.Limit()
		return
	}
	var release uint64
	for _, t := range arrivals {
		release = max(release, c.peers[t].now)
	}
	release += uint64(len(arrivals))*c.m.barrierArrival + c.m.barrierRelease
	for _, t := range arrivals {
		u := c.peers[t]
		u.brk[exec.CompSync] += release - u.now
		u.now = release
	}
	c.Open(sb, release)
	c.limit = c.Limit()
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
	ctxs := make([]*ctx, threads)
	seats := make([]*exec.Seat, threads)
	ths := make([]*exec.Thread, threads)
	for t := range ctxs {
		c := &ctx{m: m, peers: ctxs, core: m.placeThread(t, threads)}
		ctxs[t], seats[t], ths[t] = c, &c.Seat, exec.NewThread(t, threads, c, c)
	}
	// Host wall-clock of the parallel region, reported out of band for
	// simulator-throughput measurements; it never feeds the model.
	hostStart := time.Now() //crono:vet-ignore simdeterminism
	err := exec.NewSched("sim", goCtx, exec.LowestClock, m.cfg.WindowCycles).Run(seats, func(t int) {
		c := ctxs[t]
		c.limit = c.Limit()
		body(ths[t])
	})
	hostNs := uint64(time.Since(hostStart)) //crono:vet-ignore simdeterminism
	if cerr := goCtx.Err(); cerr != nil {
		err = cerr
	}
	if err != nil {
		m.extra = energy.Counter{}
		return nil, err
	}
	return m.report(ctxs, ths, hostNs), nil
}
