package sim

import (
	"sort"

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
// New; it implements exec.Platform and runs one RunCtx at a time.
//
// The scheduler (sched.go) runs one simulated thread at a time, so every
// piece of model state is a plain field: the per-core shards (private L1
// tags, miss dispositions, reuse counters), the per-home-tile shards (L2
// slice tags, directory, per-line occupancy stats), the mesh links, the
// memory controllers and the MCP aggregates. The memory path is in
// memory.go.
type Machine struct {
	cfg  Config
	mesh *noc.Mesh

	cores []coreShard // per-core private state, indexed by core
	homes []homeShard // per-home-tile shared state, indexed by tile

	mcs    []*dram.Controller
	mcTile []int

	// extra accumulates energy events not tied to one thread (L2 victim
	// write-backs).
	extra energy.Counter

	allocNext exec.Addr

	mcpBusy    uint64 // cumulative MCP service demand
	mcpHorizon uint64 // latest virtual time the MCP has observed

	lineBits       uint
	barrierArrival uint64 // serialized cost per barrier arrival
	barrierRelease uint64 // barrier release broadcast cost
}

// coreShard is the slice of model state owned by one simulated core.
type coreShard struct {
	l1    *cache.Cache
	disp  dispTable        // line dispositions for miss classification
	reuse map[uint64]uint8 // locality-aware touch counters
}

// homeShard is one home tile's slice of shared model state. Exactly the
// lines with line % Cores == tile are homed here; the L2 tags, the
// directory and the line stats all index a line by l2Index(line).
type homeShard struct {
	l2    *cache.Cache
	dir   *coherence.Dir
	lines lineStatTable // per-line home-serialization stats
}

var _ exec.Platform = (*Machine)(nil)

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
	m := &Machine{
		cfg:      cfg,
		mesh:     mesh,
		cores:    make([]coreShard, cfg.Cores),
		homes:    make([]homeShard, cfg.Cores),
		mcs:      make([]*dram.Controller, cfg.MemControllers),
		mcTile:   make([]int, cfg.MemControllers),
		lineBits: 6,
	}
	for c := 0; c < cfg.Cores; c++ {
		cs := &m.cores[c]
		if cs.l1, err = cache.New(cfg.L1DSizeB, cfg.L1DWays, cfg.LineBytes); err != nil {
			return nil, err
		}
		if cfg.LocalityAware {
			cs.reuse = make(map[uint64]uint8)
		}
		hs := &m.homes[c]
		if hs.l2, err = cache.New(cfg.L2SliceSizeB, cfg.L2Ways, cfg.LineBytes); err != nil {
			return nil, err
		}
		if hs.dir, err = coherence.New(cfg.DirPointers, cfg.Cores); err != nil {
			return nil, err
		}
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
	if m.allocNext == 0 {
		m.allocNext = uint64(m.cfg.LineBytes)
	}
	base := m.allocNext
	bytes := uint64(elems) * uint64(elemSize)
	lb := uint64(m.cfg.LineBytes)
	bytes = (bytes + lb - 1) &^ (lb - 1)
	m.allocNext += bytes
	return exec.NewRegion(name, base, elems, elemSize)
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

// Active implements exec.Model telemetry: deltas are recorded against this
// thread's virtual clock and the global active-vertex series is
// reconstructed by prefix sum when the run completes, so the trace
// depends on virtual time, not on the order in which threads ran.
func (c *ctx) Active(delta int) {
	if delta == 0 {
		return
	}
	c.samples = append(c.samples, exec.ActiveSample{Time: c.now, Active: int64(delta)})
}

// report assembles the report of a finished run from its threads'
// contexts and the Threads that counted their instructions. The energy
// model's instruction and L1-D access counts are those totals, not
// counted a second time.
func (m *Machine) report(ctxs []*ctx, ths []*exec.Thread, hostNs uint64) *exec.Report {
	threads := len(ctxs)
	rep := &exec.Report{
		Platform:     m.Name(),
		Threads:      threads,
		HostNs:       hostNs,
		Instructions: make([]uint64, threads),
		ThreadTime:   make([]uint64, threads),
	}
	var events energy.Counter
	events.Add(m.extra)
	m.extra = energy.Counter{}
	var trace []exec.ActiveSample
	for t, c := range ctxs {
		if c.now > rep.Time {
			rep.Time = c.now
		}
		rep.Breakdown.Add(c.brk)
		rep.Instructions[t] = ths[t].Instructions()
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
	events.Instructions, events.L1DAccesses = rep.TotalInstructions(), rep.Cache.L1DAccesses
	rep.ActiveTrace = reconstructTrace(trace, activeTracePoints)
	rep.Energy = m.cfg.Energy.Breakdown(events)
	rep.NetworkFlitHops = events.FlitHops
	return rep
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
