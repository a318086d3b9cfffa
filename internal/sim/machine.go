package sim

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crono/internal/cache"
	"crono/internal/coherence"
	"crono/internal/dram"
	"crono/internal/energy"
	"crono/internal/exec"
	"crono/internal/noc"
)

// activeTracePoints caps the length of the reconstructed active-vertex
// trace returned in reports.
const activeTracePoints = 2048

// reuseSaturation caps the per-line reuse counters of locality-aware
// mode: the counters are uint8, so an unchecked increment wraps at 255
// and a high threshold would demote a hot line back to remote service
// forever. Config.Validate rejects thresholds past this cap; the clamp
// keeps the counter sane even so.
const reuseSaturation = 255

// Machine is the simulated multicore. Create one per experiment run with
// New; it implements exec.Platform.
//
// # Locking discipline
//
// Shared model state is sharded so concurrently executing simulated
// cores only contend where the modeled hardware would:
//
//   - cores[c] (private L1 tags, miss dispositions, reuse counters) is
//     guarded by that core's lock (cores[c].l1.Mutex). A pure L1 hit
//     takes only this lock — the fast path.
//   - homes[h] (L2 slice tags, directory stripe, per-line occupancy
//     stats) is guarded by that home tile's lock (homes[h].l2.Mutex).
//     Misses to lines homed on different tiles proceed in parallel.
//   - NoC link state, DRAM-controller state and the MCP aggregates are
//     atomics; mesh.Traverse and dram.Access need no lock at all.
//
// Lock order is home stripe -> core, globally: a transaction holding a
// home lock may take core locks one at a time (its own for the L1 fill,
// any sharer's for invalidations), but never a second home lock and
// never two core locks at once, so the hierarchy is deadlock-free. Code
// that holds only its own core lock (the hit fast path) and needs the
// home must release the core lock first and re-verify after reacquiring
// in order (see upgradeExclusive). L1 replacement victims are homed on
// arbitrary tiles, so their directory/write-back cleanup is deferred
// until the filling transaction's home lock is released (dropL1Victim),
// as is the next-line prefetch, whose target is homed on the next tile.
type Machine struct {
	cfg  Config
	mesh *noc.Mesh
	dirs *coherence.Sharded

	cores []coreShard // per-core private state, indexed by core
	homes []homeShard // per-home-tile shared state, indexed by tile

	mcs    []*dram.Controller
	mcTile []int

	// extra accumulates energy events not tied to one thread (L2 victim
	// write-backs). It is the only cross-core aggregate still behind a
	// mutex, and it sits off the hot path.
	extraMu sync.Mutex
	extra   energy.Counter

	// serialMu reinstates the pre-sharding global memory-system lock
	// when cfg.SerialMemory is set: every memory-system transaction
	// serializes behind it and the sharded locks underneath run
	// uncontended. It exists purely as the in-tree baseline for
	// crono-bench's simulator-throughput comparison.
	serialMu sync.Mutex

	allocMu   sync.Mutex
	allocNext exec.Addr

	mcpBusy    atomic.Uint64 // cumulative MCP service demand
	mcpHorizon atomic.Uint64

	// Lax-synchronization window state: published per-thread virtual
	// clocks (blockedClock while waiting on real synchronization) and a
	// cached minimum. See ctx.throttle.
	nows   []atomic.Uint64
	winMin atomic.Uint64

	// run is the cancellation state of the in-flight parallel region.
	// A Machine executes one Run at a time (Run resets nows/winMin), so a
	// plain field suffices.
	run *runControl

	lineBits       uint
	barrierArrival uint64 // serialized cost per barrier arrival
	barrierRelease uint64 // barrier release broadcast cost
}

// coreShard is the slice of model state owned by one simulated core. The
// embedded mutex of l1 is the core lock; it guards l1, disp and reuse
// together. Remote transactions (invalidations, L2 back-invalidations)
// take it briefly, always nested inside a home-stripe lock.
type coreShard struct {
	l1    *cache.Locked
	disp  dispTable        // line dispositions for miss classification
	reuse map[uint64]uint8 // locality-aware touch counters
}

// homeShard is one home tile's slice of shared model state. The embedded
// mutex of l2 is the home-stripe lock; it guards l2, the directory
// stripe and the lineStat table together. Exactly the lines with
// line % Cores == tile are homed here, so one lock covers every
// structure a home-tile transaction touches.
type homeShard struct {
	l2    *cache.Locked
	dir   *coherence.Dir
	lines lineStatTable // per-line home-serialization stats
}

var _ exec.Platform = (*Machine)(nil)

// runControl carries one run's cooperative-cancellation state: the run
// context polled by Checkpoint and by each barrier's last arriver, and an
// abort channel, closed once, that ends barrier waiters and releases
// throttle sleepers when the run dies.
type runControl struct {
	cause context.Context
	abort chan struct{}
	once  sync.Once
}

func (rc *runControl) trip() { rc.once.Do(func() { close(rc.abort) }) }

// New builds a machine from cfg (use Default() for Table II).
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mesh, err := noc.New(cfg.Cores, cfg.HopCycles, cfg.FlitBits)
	if err != nil {
		return nil, err
	}
	mesh.SetRouting(cfg.Routing)
	dirs, err := coherence.NewSharded(cfg.DirPointers, cfg.Cores, cfg.Cores)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		mesh:     mesh,
		dirs:     dirs,
		cores:    make([]coreShard, cfg.Cores),
		homes:    make([]homeShard, cfg.Cores),
		mcs:      make([]*dram.Controller, cfg.MemControllers),
		mcTile:   make([]int, cfg.MemControllers),
		lineBits: 6,
	}
	for c := 0; c < cfg.Cores; c++ {
		cs := &m.cores[c]
		if cs.l1, err = cache.NewLocked(cfg.L1DSizeB, cfg.L1DWays, cfg.LineBytes); err != nil {
			return nil, err
		}
		if cfg.LocalityAware {
			cs.reuse = make(map[uint64]uint8)
		}
		hs := &m.homes[c]
		if hs.l2, err = cache.NewLocked(cfg.L2SliceSizeB, cfg.L2Ways, cfg.LineBytes); err != nil {
			return nil, err
		}
		hs.dir = dirs.StripeAt(c)
	}
	for i := 0; i < cfg.MemControllers; i++ {
		if m.mcs[i], err = dram.New(cfg.ClockHz, cfg.DRAMBandwidthBs, cfg.DRAMLatencyNs); err != nil {
			return nil, err
		}
		// Controllers sit at evenly spaced edge tiles.
		m.mcTile[i] = i * cfg.Cores / cfg.MemControllers
	}
	// Per-arrival barrier cost: a centralized shared-memory barrier
	// serializes one atomic RMW on its counter line per arriving thread
	// (a round trip to the line's home plus the L2 access), so barrier
	// latency grows linearly with the party count — a first-order source
	// of the paper's synchronization wall at 256 threads.
	m.barrierArrival = m.avgRoundTrip() + cfg.MCPServiceCycles
	// The release broadcast crosses the mesh once.
	m.barrierRelease = uint64(mesh.Diameter())*cfg.HopCycles + 20
	return m, nil
}

// placeThread spreads t threads evenly over the 2-D mesh: thread tid
// occupies a cell of a tw x th sub-grid scaled onto the full mesh.
// Clustering threads on the first tiles (or striding, which aliases into
// a few mesh columns) funnels their reply traffic through a handful of
// links and saturates them at intermediate thread counts.
func (m *Machine) placeThread(tid, threads int) int {
	w := m.mesh.Width
	if threads >= m.cfg.Cores {
		return tid
	}
	tw := 1
	for tw*tw < threads {
		tw++
	}
	th := (threads + tw - 1) / tw
	gx, gy := tid%tw, tid/tw
	x := gx * w / tw
	y := gy * m.mesh.Height / th
	return y*w + x
}

// avgRoundTrip is the mean uncontended round-trip latency between two
// uniformly random tiles: the mean Manhattan distance on a WxW mesh is
// 2(W^2-1)/(3W).
func (m *Machine) avgRoundTrip() uint64 {
	w := float64(m.mesh.Width)
	meanHops := 2 * (w*w - 1) / (3 * w)
	return uint64(2*meanHops*float64(m.cfg.HopCycles) + 0.5)
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Name implements exec.Platform.
func (m *Machine) Name() string { return "sim" }

// Alloc implements exec.Platform with a line-aligned bump allocator;
// lines interleave across L2 home slices (NUCA).
func (m *Machine) Alloc(name string, elems, elemSize int) exec.Region {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	if m.allocNext == 0 {
		m.allocNext = uint64(m.cfg.LineBytes)
	}
	base := m.allocNext
	bytes := uint64(elems) * uint64(elemSize)
	lb := uint64(m.cfg.LineBytes)
	bytes = (bytes + lb - 1) &^ (lb - 1)
	m.allocNext += bytes
	return exec.Region{Name: name, Base: base, ElemSize: uint64(elemSize), Elems: uint64(elems)}
}

func (m *Machine) home(line uint64) int { return int(line % uint64(m.cfg.Cores)) }

// homeShardOf returns the home-tile shard owning line.
func (m *Machine) homeShardOf(line uint64) *homeShard { return &m.homes[m.home(line)] }

// l2Index maps a global line address to its slot within the home slice's
// tag array. Lines reaching a slice all share the same residue modulo the
// core count, so dividing by it removes the aliasing that would otherwise
// fold every line into the same few sets.
func (m *Machine) l2Index(line uint64) uint64 { return line / uint64(m.cfg.Cores) }

// l2Unindex reverses l2Index for a known home slice.
func (m *Machine) l2Unindex(idx uint64, home int) uint64 {
	return idx*uint64(m.cfg.Cores) + uint64(home)
}

func (m *Machine) controller(line uint64) int { return int(line % uint64(m.cfg.MemControllers)) }

// coreIsOOO reports whether the given core has the out-of-order pipeline:
// either the whole machine is OOO, or the heterogeneous design point puts
// one OOO core at tile 0 for the master thread (Section VII-B).
func (m *Machine) coreIsOOO(core int) bool {
	return m.cfg.CoreType == OutOfOrder || (m.cfg.HeteroMasterOOO && core == 0)
}

// lineStat tracks the cumulative home-tile occupancy of one cache line
// for the utilization-based L2Home-Waiting model: requests to the same
// line must serialize at the home to keep memory consistent, so a hot
// line charges a queueing delay proportional to its utilization.
type lineStat struct {
	busy    uint64 // cumulative transaction occupancy at the home
	horizon uint64 // latest virtual time observed
	count   uint64 // transactions served
}

// lineWait returns the L2Home-Waiting estimate for a request to line
// arriving at time t and updates the horizon.
func (ls *lineStat) lineWait(t uint64) uint64 {
	if t > ls.horizon {
		ls.horizon = t
	}
	if ls.count == 0 {
		return 0
	}
	return noc.QueueDelay(ls.busy, ls.horizon, ls.busy/ls.count)
}

type simLock struct {
	mu   sync.Mutex
	line uint64 // futex word; retained for the locality ablation
	// Utilization stats for the lax-safe hand-off wait model: a strict
	// "wait until the previous holder's release time" rule would let a
	// virtual-time front-runner drag every later acquirer up to its
	// clock even when they contend only in real time, not virtual time.
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
	mu      sync.Mutex
	parties int
	cost    uint64
	gen     *barrierGen
}

// barrierGen is one barrier generation. The last arriver stamps release
// (the reconciled virtual time all parties resume at) and closes ch;
// waiters select on ch and on the run's abort channel, so a canceled run
// ends every waiter even when some parties already ended and will never
// arrive.
type barrierGen struct {
	waiting int
	maxArr  uint64
	release uint64
	ch      chan struct{}
}

// NewBarrier implements exec.Platform.
func (m *Machine) NewBarrier(parties int) exec.Barrier {
	return &simBarrier{
		parties: parties,
		cost:    uint64(parties)*m.barrierArrival + m.barrierRelease,
		gen:     &barrierGen{ch: make(chan struct{})},
	}
}

// ctx is the per-thread simulation context. Its virtual clock (now)
// advances through the timing model; clocks reconcile at locks and
// barriers (lax synchronization).
type ctx struct {
	m       *Machine
	tid     int
	core    int
	threads int
	ops     uint32 // accesses since the last window check
	now     uint64
	brk     exec.Breakdown
	instr   uint64
	energy  energy.Counter
	stats   exec.CacheStats
	samples []exec.ActiveSample
}

var (
	_ exec.Model = (*ctx)(nil)
	_ exec.Sync  = (*ctx)(nil)
)

// blockedClock marks a thread that is waiting on real synchronization (a
// barrier or a contended lock) or has finished; such threads are excluded
// from the window minimum, since they are waiting for the runnable ones.
const blockedClock = ^uint64(0)

// publish makes this thread's virtual clock visible to the window.
func (c *ctx) publish() { c.m.nows[c.tid].Store(c.now) }

// throttle bounds lax-synchronization clock skew: if this thread's
// virtual clock is more than WindowCycles ahead of the slowest runnable
// thread, it waits (in real time) for the laggards. Without this, the
// real Go scheduler decides who wins races for dynamically distributed
// work, letting one simulated thread complete vertex captures that its
// virtually-concurrent peers should have shared.
func (c *ctx) throttle() {
	m := c.m
	w := m.cfg.WindowCycles
	if w == 0 || c.threads == 1 {
		return
	}
	c.publish()
	if c.now <= m.winMin.Load()+w {
		return
	}
	// Exponential backoff: with hundreds of simulated threads on few
	// host CPUs, hundreds of waiters polling at a fixed fine interval
	// would starve the very laggard they are waiting for.
	backoff := 20 * time.Microsecond
	const maxBackoff = 5 * time.Millisecond
	for {
		select {
		case <-m.run.abort:
			// A dying run will never advance the laggards' clocks.
			return
		default:
		}
		min := blockedClock
		for t := range m.nows {
			if v := m.nows[t].Load(); v < min {
				min = v
			}
		}
		if min == blockedClock {
			return // everyone else is blocked or done
		}
		m.winMin.Store(min)
		if c.now <= min+w {
			return
		}
		time.Sleep(backoff)
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// Checkpoint implements exec.Sync: a non-blocking poll of the run context.
// Simulated time is not charged; cancellation is a harness-control event,
// not part of the modeled kernel.
func (c *ctx) Checkpoint() error {
	rc := c.m.run
	if err := rc.cause.Err(); err != nil {
		rc.trip()
		return err
	}
	return nil
}

// Compute models n single-cycle pipeline instructions.
func (c *ctx) Compute(n int) {
	if n <= 0 {
		return
	}
	c.instr += uint64(n)
	c.energy.Instructions += uint64(n)
	c.now += uint64(n)
	c.brk[exec.CompCompute] += uint64(n)
}

func (c *ctx) Load(a exec.Addr)  { c.access(a, false) }
func (c *ctx) Store(a exec.Addr) { c.access(a, true) }

// Atomic annotations run the same timing model as their plain
// counterparts: the paper's machine serializes atomics at the L2 home
// tile exactly like ordinary coherence transactions, so an atomic load
// costs a load and an atomic store or RMW costs a store. The
// distinction feeds synchronization-aware tooling only.
func (c *ctx) AtomicLoad(a exec.Addr)  { c.access(a, false) }
func (c *ctx) AtomicStore(a exec.Addr) { c.access(a, true) }
func (c *ctx) AtomicRMW(a exec.Addr)   { c.access(a, true) }

// LoadSpan implements exec.Model: one full cache transaction per touched
// line, plus single-cycle L1 hits for the remaining elements — exactly
// what per-element Load calls produce for a sequential scan, but without
// running the full model per element.
func (c *ctx) LoadSpan(a exec.Addr, elems, elemSize int) { c.span(a, elems, elemSize, false) }

// StoreSpan implements exec.Model, as LoadSpan for writes.
func (c *ctx) StoreSpan(a exec.Addr, elems, elemSize int) { c.span(a, elems, elemSize, true) }

func (c *ctx) span(a exec.Addr, elems, elemSize int, write bool) {
	if elems <= 0 || elemSize <= 0 {
		return
	}
	m := c.m
	lineBytes := uint64(m.cfg.LineBytes)
	end := a + uint64(elems)*uint64(elemSize)
	for cur := a; cur < end; {
		// Elements whose first byte falls in cur's line.
		lineEnd := (cur>>m.lineBits + 1) * lineBytes
		n := int((lineEnd - cur + uint64(elemSize) - 1) / uint64(elemSize))
		if rem := int((end - cur + uint64(elemSize) - 1) / uint64(elemSize)); n > rem {
			n = rem
		}
		c.access(cur, write) // full model once per line
		if n > 1 {
			extra := uint64(n - 1)
			c.instr += extra
			c.energy.Instructions += extra
			c.energy.L1DAccesses += extra
			c.stats.L1DAccesses += extra
			c.now += extra * m.cfg.L1LatencyCycles
			c.brk[exec.CompCompute] += extra * m.cfg.L1LatencyCycles
		}
		cur += uint64(n) * uint64(elemSize)
	}
}

// access runs one data reference through the full memory-system model.
func (c *ctx) access(addr exec.Addr, write bool) {
	m := c.m
	c.ops++
	if c.ops >= 256 {
		c.ops = 0
		c.throttle()
	}
	// Base pipeline cycle (includes the 1-cycle L1 hit, Table II).
	c.instr++
	c.energy.Instructions++
	c.now += m.cfg.L1LatencyCycles
	c.brk[exec.CompCompute] += m.cfg.L1LatencyCycles
	c.energy.L1DAccesses++
	c.stats.L1DAccesses++

	if m.cfg.SerialMemory {
		m.serialMu.Lock()
		defer m.serialMu.Unlock()
	}

	line := addr >> m.lineBits
	cs := &m.cores[c.core]
	hs := m.homeShardOf(line)

	for {
		cs.l1.Lock()
		st := cs.l1.Lookup(line)
		if st != cache.Invalid && (!write || st == cache.Modified) {
			// Pure L1 hit: the core lock is the only lock taken.
			cs.l1.Unlock()
			return
		}
		if write && st == cache.Exclusive {
			// Silent E->M upgrade: the directory dirty bit lives under
			// the home-stripe lock, and home locks order before core
			// locks, so drop the core lock and redo the pair in order.
			cs.l1.Unlock()
			if c.upgradeExclusive(cs, hs, line) {
				return
			}
			// A concurrent transaction stole the line between the two
			// lock scopes; retry the whole reference.
			continue
		}

		if m.cfg.LocalityAware && st == cache.Invalid {
			if int(cs.reuse[line]) < m.cfg.LocalityThreshold {
				if v := cs.reuse[line]; v < reuseSaturation {
					cs.reuse[line] = v + 1
				}
				cs.l1.Unlock()
				c.remoteAccess(line, write)
				return
			}
		}

		if st == cache.Invalid {
			// True L1 miss: classify per Section IV-D.
			cl := exec.MissCold
			switch cs.disp.get(line) {
			case dispEvicted:
				cl = exec.MissCapacity
			case dispInvalidated:
				cl = exec.MissSharing
			}
			c.stats.L1DMisses[cl]++
		}
		// st == Shared && write is an upgrade: not a miss, but it travels
		// to the home tile for invalidations like one.
		cs.l1.Unlock()
		break
	}

	start := c.now
	home := m.home(line)

	// Request to the home tile (link state is atomic: no lock).
	t, fh := m.mesh.Traverse(c.core, home, m.cfg.CtrlPacketBits, start)
	c.energy.FlitHops += uint64(fh)

	hs.l2.Lock()

	// Home serialization: requests to the same line queue up
	// (L2Home-Waiting).
	idx := m.l2Index(line)
	ls := hs.lines.at(idx)
	wait := ls.lineWait(t)
	busy := t + wait
	txnStart := busy

	// First L2 access + directory lookup.
	t = busy + m.cfg.L2LatencyCycles
	c.energy.L2Accesses++
	c.energy.DirAccesses++
	c.stats.L2Accesses++

	// Off-chip fill on L2 miss.
	var offchip uint64
	if hs.l2.Lookup(idx) == cache.Invalid {
		c.stats.L2Misses++
		t2 := c.fillFromDRAM(hs, line, home, t)
		offchip = t2 - t
		t = t2
	}

	// Coherence actions (L2Home-Sharers).
	var act coherence.Action
	if write {
		act = hs.dir.Write(line, c.core)
	} else {
		act = hs.dir.Read(line, c.core)
	}
	sharers := c.applyCoherence(hs, line, home, act, write)
	t += sharers

	// The home transaction completes; record its occupancy for later
	// requests to the same line.
	ls.busy += t - txnStart
	ls.count++

	// Data reply to the requester.
	dataBits := m.cfg.CtrlPacketBits + 8*m.cfg.LineBytes
	t4, fh := m.mesh.Traverse(home, c.core, dataBits, t)
	c.energy.FlitHops += uint64(fh)

	// Fill the private L1 while still holding the home stripe: releasing
	// first would let another core's write invalidate a copy that is not
	// inserted yet, losing the invalidation. Home -> core nesting is the
	// global lock order.
	grant := cache.Shared
	if write {
		grant = cache.Modified
	} else if hs.dir.Owner(line) == c.core {
		grant = cache.Exclusive
	}
	cs.l1.Lock()
	v, evicted := cs.l1.Insert(line, grant)
	cs.disp.set(line, dispPresent)
	cs.l1.Unlock()
	hs.l2.Unlock()

	// The victim is homed on an arbitrary tile and two home stripes
	// never nest, so its cleanup runs after this transaction's home lock
	// is released. Likewise the prefetch: line+1 is homed on a different
	// tile.
	if evicted {
		c.dropL1Victim(cs, v)
	}
	if m.cfg.NextLinePrefetch && !write {
		c.prefetchNextLine(cs, line)
	}

	// Attribute the stall (lax virtual time).
	reqReply := (t4 - t) + (busy - start - wait) + m.cfg.L2LatencyCycles
	l1l2 := reqReply
	if m.coreIsOOO(c.core) {
		hideL := uint64(float64(l1l2) * m.cfg.OOOHideFraction)
		hideO := uint64(float64(offchip) * m.cfg.OOOHideFraction)
		l1l2 -= hideL
		offchip -= hideO
	}
	c.brk[exec.CompL1ToL2] += l1l2
	c.brk[exec.CompWaiting] += wait
	c.brk[exec.CompSharers] += sharers
	c.brk[exec.CompOffChip] += offchip
	c.now = start + l1l2 + wait + sharers + offchip
}

// upgradeExclusive performs the silent E->M upgrade under the proper
// home -> core lock order, re-verifying the state observed by the
// lock-free fast path. It reports whether the upgrade completed; false
// means a concurrent transaction took the line between the fast path's
// core-lock scope and this one, and the caller must retry the reference.
// Single-threaded the verification never fails (an Exclusive L1 line
// implies directory ownership), so the operation sequence is exactly the
// pre-sharding SetState + Write.
func (c *ctx) upgradeExclusive(cs *coreShard, hs *homeShard, line uint64) bool {
	hs.l2.Lock()
	if hs.dir.Owner(line) != c.core {
		hs.l2.Unlock()
		return false
	}
	cs.l1.Lock()
	ok := cs.l1.Peek(line) == cache.Exclusive
	if ok {
		cs.l1.SetState(line, cache.Modified)
		hs.dir.Write(line, c.core) // owner write: sets the dirty bit only
	}
	cs.l1.Unlock()
	hs.l2.Unlock()
	return ok
}

// fillFromDRAM fetches line into home's L2 slice starting at cycle t and
// returns the completion cycle. Caller holds hs's home-stripe lock.
func (c *ctx) fillFromDRAM(hs *homeShard, line uint64, home int, t uint64) uint64 {
	m := c.m
	mc := m.controller(line)
	ta, fh := m.mesh.Traverse(home, m.mcTile[mc], m.cfg.CtrlPacketBits, t)
	c.energy.FlitHops += uint64(fh)
	done, _ := m.mcs[mc].Access(ta, m.cfg.LineBytes)
	c.energy.DRAMAccesses++
	tb, fh := m.mesh.Traverse(m.mcTile[mc], home, m.cfg.CtrlPacketBits+8*m.cfg.LineBytes, done)
	c.energy.FlitHops += uint64(fh)
	if v, ok := hs.l2.Insert(m.l2Index(line), cache.Shared); ok {
		c.dropL2Victim(hs, v, home)
	}
	return tb
}

// dropL2Victim back-invalidates private copies of an inclusively evicted
// L2 line and writes dirty data off chip. Caller holds hs's home-stripe
// lock; sharer core locks are taken one at a time underneath it. The
// victim is homed on this same tile (every line in a slice is), so its
// directory entry lives in hs.dir.
func (c *ctx) dropL2Victim(hs *homeShard, v cache.Victim, home int) {
	m := c.m
	line := m.l2Unindex(v.Line, home) // tag arrays store slice-local indices
	cores, broadcast := hs.dir.DropLine(line)
	dirty := v.State == cache.Modified
	inval := func(core int) {
		cs := &m.cores[core]
		cs.l1.Lock()
		if st := cs.l1.Invalidate(line); st != cache.Invalid {
			cs.disp.set(line, dispEvicted)
			if st == cache.Modified {
				dirty = true
			}
		}
		cs.l1.Unlock()
	}
	if broadcast {
		for core := 0; core < m.cfg.Cores; core++ {
			inval(core)
		}
	} else {
		for _, core := range cores {
			inval(core)
		}
	}
	if dirty {
		// Off-critical-path write-back: consumes controller bandwidth
		// and energy but stalls nobody.
		mc := m.controller(line)
		m.mcs[mc].Access(c.now, m.cfg.LineBytes)
		m.extraMu.Lock()
		m.extra.DRAMAccesses++
		m.extra.FlitHops += uint64(m.mesh.Hops(home, m.mcTile[mc]) * m.mesh.Flits(m.cfg.CtrlPacketBits+8*m.cfg.LineBytes))
		m.extraMu.Unlock()
	}
}

// dropL1Victim retires an L1 replacement victim at its own home tile:
// the directory drops this core's pointer and a Modified victim models a
// write-back into the home L2 slice (bandwidth and energy only, off the
// critical path). Caller holds no locks; the victim's home stripe and
// this core's lock are taken in order.
func (c *ctx) dropL1Victim(cs *coreShard, v cache.Victim) {
	m := c.m
	line := v.Line
	home := m.home(line)
	hs := &m.homes[home]
	hs.l2.Lock()
	hs.dir.Evict(line, c.core)
	cs.l1.Lock()
	cs.disp.set(line, dispEvicted)
	cs.l1.Unlock()
	if v.State == cache.Modified {
		c.energy.FlitHops += uint64(m.mesh.Hops(c.core, home) * m.mesh.Flits(m.cfg.CtrlPacketBits+8*m.cfg.LineBytes))
		c.energy.L2Accesses++
		hs.l2.SetState(m.l2Index(line), cache.Modified) // L2 copy now dirty
	}
	hs.l2.Unlock()
}

// applyCoherence performs invalidations/downgrades demanded by act and
// returns the L2Home-Sharers latency: the round trip to the farthest
// involved sharer (invalidations proceed in parallel). Caller holds hs's
// home-stripe lock and no core lock; sharer core locks are taken one at
// a time underneath it.
func (c *ctx) applyCoherence(hs *homeShard, line uint64, home int, act coherence.Action, write bool) uint64 {
	m := c.m
	var worst uint64
	touch := func(core int) {
		rt := m.mesh.RoundTrip(home, core) + m.cfg.L1LatencyCycles
		if rt > worst {
			worst = rt
		}
		flits := m.mesh.Flits(m.cfg.CtrlPacketBits)
		c.energy.FlitHops += uint64(2 * m.mesh.Hops(home, core) * flits)
	}
	if act.FetchFrom >= 0 && act.FetchFrom != c.core {
		touch(act.FetchFrom)
		fs := &m.cores[act.FetchFrom]
		fs.l1.Lock()
		if write {
			if st := fs.l1.Invalidate(line); st != cache.Invalid {
				fs.disp.set(line, dispInvalidated)
			}
		} else {
			fs.l1.SetState(line, cache.Shared)
		}
		fs.l1.Unlock()
		if act.Dirty {
			hs.l2.SetState(m.l2Index(line), cache.Modified)
			c.energy.L2Accesses++
		}
	}
	for _, s := range act.Invalidate {
		if s == c.core {
			continue
		}
		touch(s)
		ss := &m.cores[s]
		ss.l1.Lock()
		if st := ss.l1.Invalidate(line); st != cache.Invalid {
			ss.disp.set(line, dispInvalidated)
		}
		ss.l1.Unlock()
	}
	if act.Broadcast {
		// Overflowed ACKWise pointers: invalidate every private copy;
		// latency is a round trip across the mesh diameter.
		rt := 2*uint64(m.mesh.Diameter())*m.cfg.HopCycles + m.cfg.L1LatencyCycles
		if rt > worst {
			worst = rt
		}
		flits := uint64(m.mesh.Flits(m.cfg.CtrlPacketBits))
		for core := 0; core < m.cfg.Cores; core++ {
			if core == c.core {
				continue
			}
			bs := &m.cores[core]
			bs.l1.Lock()
			if st := bs.l1.Invalidate(line); st != cache.Invalid {
				bs.disp.set(line, dispInvalidated)
				c.energy.FlitHops += uint64(2*m.mesh.Hops(home, core)) * flits
			}
			bs.l1.Unlock()
		}
	}
	return worst
}

// prefetchNextLine models a next-line L1 prefetcher: after a demand read
// miss, the following line is brought into the L1 off the critical path
// when it is already on chip and not exclusively owned elsewhere. Energy
// is charged; no time is. Caller holds no locks — line+1 is homed on a
// different tile than line, so the prefetch runs as its own home-stripe
// transaction.
func (c *ctx) prefetchNextLine(cs *coreShard, line uint64) {
	m := c.m
	nl := line + 1
	cs.l1.Lock()
	present := cs.l1.Peek(nl) != cache.Invalid
	cs.l1.Unlock()
	if present {
		return
	}
	home := m.home(nl)
	hs := &m.homes[home]
	hs.l2.Lock()
	if hs.l2.Peek(m.l2Index(nl)) == cache.Invalid {
		hs.l2.Unlock()
		return // never prefetch off chip
	}
	if hs.dir.Owner(nl) >= 0 {
		hs.l2.Unlock()
		return // never disturb an exclusive owner
	}
	hs.dir.Read(nl, c.core)
	grant := cache.Shared
	if hs.dir.Owner(nl) == c.core {
		grant = cache.Exclusive
	}
	cs.l1.Lock()
	v, evicted := cs.l1.Insert(nl, grant)
	cs.disp.set(nl, dispPresent)
	cs.l1.Unlock()
	hs.l2.Unlock()
	c.energy.L2Accesses++
	c.energy.DirAccesses++
	c.energy.FlitHops += uint64(m.mesh.Hops(c.core, home) * m.mesh.Flits(m.cfg.CtrlPacketBits+8*m.cfg.LineBytes))
	if evicted {
		c.dropL1Victim(cs, v)
	}
}

// remoteAccess serves a low-locality reference at the home tile without
// allocating it in the private L1 (locality-aware coherence ablation,
// Section VII-A). Caller holds no locks.
func (c *ctx) remoteAccess(line uint64, write bool) {
	m := c.m
	start := c.now
	home := m.home(line)
	hs := &m.homes[home]
	t, fh := m.mesh.Traverse(c.core, home, m.cfg.CtrlPacketBits, start)
	c.energy.FlitHops += uint64(fh)
	hs.l2.Lock()
	idx := m.l2Index(line)
	ls := hs.lines.at(idx)
	wait := ls.lineWait(t)
	busy := t + wait
	txnStart := busy
	t = busy + m.cfg.L2LatencyCycles
	c.energy.L2Accesses++
	c.energy.DirAccesses++
	c.stats.L2Accesses++
	var offchip uint64
	if hs.l2.Lookup(idx) == cache.Invalid {
		c.stats.L2Misses++
		t2 := c.fillFromDRAM(hs, line, home, t)
		offchip = t2 - t
		t = t2
	}
	var act coherence.Action
	if write {
		act = hs.dir.RemoteWrite(line)
		hs.l2.SetState(idx, cache.Modified)
	} else {
		act = hs.dir.RemoteRead(line)
	}
	sharers := c.applyCoherence(hs, line, home, act, write)
	t += sharers
	ls.busy += t - txnStart
	ls.count++
	hs.l2.Unlock()
	// Word-granularity reply.
	t4, fh := m.mesh.Traverse(home, c.core, m.cfg.CtrlPacketBits+64, t)
	c.energy.FlitHops += uint64(fh)
	reqReply := (t4 - t) + (busy - start - wait) + m.cfg.L2LatencyCycles
	c.brk[exec.CompL1ToL2] += reqReply
	c.brk[exec.CompWaiting] += wait
	c.brk[exec.CompSharers] += sharers
	c.brk[exec.CompOffChip] += offchip
	c.now = start + reqReply + wait + sharers + offchip
}

// mcpTransact models one synchronization operation routed through the
// centralized sync manager on tile 0, as Graphite's MCP does: a request
// message, a serialized service slot, and a reply. The whole trip is
// charged to Synchronization. When aggregate demand exceeds the MCP's
// capacity the backlog term drains at one op per MCPServiceCycles,
// reproducing the paper's synchronization wall for lock-heavy kernels.
// The MCP aggregates are atomics, so no lock is taken: the horizon is
// raised first, then the service demand is reserved, and the backlog is
// priced against the pre-reservation demand — the same arithmetic the
// serialized model performed.
func (c *ctx) mcpTransact() {
	m := c.m
	// Not counted as an instruction: the lock's futex-word access is the
	// instruction; this is the system half of the same operation.
	start := c.now

	if m.cfg.SerialMemory {
		m.serialMu.Lock()
		defer m.serialMu.Unlock()
	}
	t, fh := m.mesh.Traverse(c.core, 0, m.cfg.CtrlPacketBits, start)
	c.energy.FlitHops += uint64(fh)
	horizon := noc.MaxTo(&m.mcpHorizon, t)
	demand := m.mcpBusy.Add(m.cfg.MCPServiceCycles) - m.cfg.MCPServiceCycles
	var wait uint64
	if demand > horizon {
		// Oversubscribed: the backlog must drain serially.
		wait = demand - horizon
	} else {
		wait = noc.QueueDelay(demand, horizon, m.cfg.MCPServiceCycles)
	}
	t += wait + m.cfg.MCPServiceCycles
	t2, fh2 := m.mesh.Traverse(0, c.core, m.cfg.CtrlPacketBits, t)
	c.energy.FlitHops += uint64(fh2)

	c.brk[exec.CompSync] += t2 - start
	c.now = t2
}

// Lock implements exec.Sync: a synchronization trip to the central sync
// manager plus a utilization-based hand-off wait reflecting how busy
// this particular lock is in virtual time.
func (c *ctx) Lock(l exec.Lock) {
	sl, ok := l.(*simLock)
	if !ok {
		panic("sim: foreign lock handle")
	}
	c.throttle()
	c.m.nows[c.tid].Store(blockedClock)
	sl.mu.Lock()
	c.publish()
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

// Unlock implements exec.Sync.
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
	sl.mu.Unlock()
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
	rc := c.m.run
	select {
	case <-rc.abort:
		runtime.Goexit()
	default:
	}
	c.m.nows[c.tid].Store(blockedClock)
	sb.mu.Lock()
	g := sb.gen
	if c.now > g.maxArr {
		g.maxArr = c.now
	}
	g.waiting++
	if g.waiting == sb.parties {
		if rc.cause.Err() != nil {
			g.waiting--
			sb.mu.Unlock()
			rc.trip()
			runtime.Goexit()
		}
		g.release = g.maxArr + sb.cost
		sb.gen = &barrierGen{ch: make(chan struct{})}
		sb.mu.Unlock()
		close(g.ch)
	} else {
		sb.mu.Unlock()
		select {
		case <-g.ch:
		case <-rc.abort:
			sb.mu.Lock()
			if sb.gen == g {
				g.waiting--
				sb.mu.Unlock()
				runtime.Goexit()
			}
			sb.mu.Unlock()
		}
	}
	if g.release > c.now {
		c.brk[exec.CompSync] += g.release - c.now
		c.now = g.release
	}
	c.publish()
}

// Active implements exec.Model telemetry: deltas are recorded against this
// thread's virtual clock and the global active-vertex series is
// reconstructed by prefix sum when the run completes, so the trace is
// independent of how the host scheduler interleaved the goroutines.
func (c *ctx) Active(delta int) {
	if delta == 0 {
		return
	}
	c.samples = append(c.samples, exec.ActiveSample{Time: c.now, Active: int64(delta)})
}

// Run implements exec.Platform. Threads map one-to-one onto cores
// 0..threads-1; thread counts beyond the core count are rejected.
func (m *Machine) Run(threads int, body func(exec.Ctx)) *exec.Report {
	rep, _ := m.RunCtx(context.Background(), threads, body)
	return rep
}

// RunCtx implements exec.Platform. On cancellation every thread ends at
// its next barrier (waiters end where they wait) or returns at its next
// Checkpoint, window throttling stops sleeping, and the partial timing
// model state of the run is discarded.
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
	m.run = &runControl{cause: goCtx, abort: make(chan struct{})}
	ctxs := make([]*ctx, threads)
	m.nows = make([]atomic.Uint64, threads)
	m.winMin.Store(0)
	var wg sync.WaitGroup
	wg.Add(threads)
	// Host wall-clock of the parallel region, reported out of band for
	// simulator-throughput measurements; it never feeds the model.
	hostStart := time.Now() //crono:vet-ignore simdeterminism
	for t := 0; t < threads; t++ {
		ctxs[t] = &ctx{m: m, tid: t, core: m.placeThread(t, threads), threads: threads}
		go func(c *ctx) {
			// Deferred: a barrier of an aborted run ends the thread. A
			// finished thread must not hold the window back.
			defer func() {
				m.nows[c.tid].Store(blockedClock)
				wg.Done()
			}()
			body(exec.NewThread(c.tid, threads, c, c))
		}(ctxs[t])
	}
	wg.Wait()
	hostNs := uint64(time.Since(hostStart)) //crono:vet-ignore simdeterminism
	if err := goCtx.Err(); err != nil {
		m.extraMu.Lock()
		m.extra = energy.Counter{}
		m.extraMu.Unlock()
		return nil, err
	}

	rep := &exec.Report{
		Platform:     m.Name(),
		Threads:      threads,
		HostNs:       hostNs,
		Instructions: make([]uint64, threads),
		ThreadTime:   make([]uint64, threads),
	}
	var events energy.Counter
	m.extraMu.Lock()
	events.Add(m.extra)
	m.extra = energy.Counter{}
	m.extraMu.Unlock()
	var trace []exec.ActiveSample
	for t, c := range ctxs {
		if c.now > rep.Time {
			rep.Time = c.now
		}
		rep.Breakdown.Add(c.brk)
		rep.Instructions[t] = c.instr
		rep.ThreadTime[t] = c.now
		events.Add(c.energy)
		rep.Cache.L1DAccesses += c.stats.L1DAccesses
		for i := range c.stats.L1DMisses {
			rep.Cache.L1DMisses[i] += c.stats.L1DMisses[i]
		}
		rep.Cache.L2Accesses += c.stats.L2Accesses
		rep.Cache.L2Misses += c.stats.L2Misses
		trace = append(trace, c.samples...)
	}
	rep.ActiveTrace = reconstructTrace(trace, activeTracePoints)
	rep.Energy = m.cfg.Energy.Breakdown(events)
	rep.NetworkFlitHops = events.FlitHops
	return rep, nil
}

// reconstructTrace merges per-thread delta samples by virtual time,
// prefix-sums them into the global active-vertex gauge and downsamples to
// at most maxPoints entries.
func reconstructTrace(deltas []exec.ActiveSample, maxPoints int) []exec.ActiveSample {
	if len(deltas) == 0 {
		return nil
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Time < deltas[j].Time })
	var run int64
	for i := range deltas {
		run += deltas[i].Active
		deltas[i].Active = run
	}
	if len(deltas) <= maxPoints {
		return deltas
	}
	step := (len(deltas) + maxPoints - 1) / maxPoints
	// A fresh slice: writing through deltas[:0] would clobber entries the
	// loop has yet to read once step > 1.
	out := make([]exec.ActiveSample, 0, maxPoints+1)
	for i := 0; i < len(deltas); i += step {
		out = append(out, deltas[i])
	}
	// Always keep the final sample so the trace ends at the true gauge
	// value rather than a stale strided point.
	if (len(deltas)-1)%step != 0 {
		out = append(out, deltas[len(deltas)-1])
	}
	return out
}
