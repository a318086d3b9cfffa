// Package sim implements the futuristic-multicore simulator platform: a
// direct-execution, lax-synchronization timing and dynamic-energy model of
// the Graphite configuration in Table II of the paper (256 tiles, private
// L1s, shared NUCA L2 with an ACKWise-4 MESI directory, electrical 2-D
// mesh with XY routing, 8 memory controllers).
//
// Like Graphite, the simulator relaxes cycle accuracy for speed: each
// simulated thread advances a private virtual clock through the detailed
// memory-system model and clocks reconcile at locks and barriers.
package sim

import (
	"fmt"
	"math"

	"crono/internal/energy"
	"crono/internal/noc"
)

// CoreType selects the compute pipeline model of Table II.
type CoreType int

const (
	// InOrder is the single-issue in-order pipeline (default).
	InOrder CoreType = iota
	// OutOfOrder is the single-issue OOO pipeline with a 168-entry ROB
	// and 64/48 load/store queues. The model lets it overlap a
	// configurable fraction of L1Cache-L2Home and off-chip latency with
	// execution, but — matching the paper's Section V-G finding — none
	// of the coherence serialization (L2Home-Waiting, L2Home-Sharers)
	// or synchronization time.
	OutOfOrder
)

// String names the core type.
func (c CoreType) String() string {
	if c == OutOfOrder {
		return "out-of-order"
	}
	return "in-order"
}

// Config mirrors Table II ("Graphite architectural parameters").
type Config struct {
	// Cores is the tile count; must be a perfect square (256 = 16x16).
	Cores int
	// ClockHz is the core clock (1 GHz).
	ClockHz float64

	// Core model.
	CoreType CoreType
	// OOOHideFraction is the fraction of L1Cache-L2Home and
	// L2Home-OffChip stall cycles the OOO pipeline overlaps with
	// execution.
	OOOHideFraction float64

	// Memory subsystem.
	L1DSizeB, L1DWays    int
	L1LatencyCycles      uint64
	L2SliceSizeB, L2Ways int
	L2LatencyCycles      uint64
	LineBytes            int
	DirPointers          int // ACKWise sharer pointers

	// Off-chip memory.
	MemControllers  int
	DRAMBandwidthBs float64 // per controller
	DRAMLatencyNs   float64

	// Network (electrical 2-D mesh, XY routing, link contention only).
	HopCycles uint64
	FlitBits  int
	// CtrlPacketBits is the size of request/ack packets; data replies
	// carry CtrlPacketBits + 8*LineBytes.
	CtrlPacketBits int
	// Routing selects the mesh routing policy (Section VII-B discusses
	// oblivious routing as a contention-reduction technique).
	Routing noc.Routing

	// WindowCycles bounds how far any thread's virtual clock may run
	// ahead of the slowest runnable thread (Graphite's lax-synchronization
	// quantum): the scheduler runs one simulated thread at a time and
	// passes the baton on once its clock is more than WindowCycles past
	// the lowest clock of the other runnable threads. 0 means unbounded:
	// a thread runs until it blocks on a lock or barrier or ends, so one
	// simulated thread can grab most dynamically distributed work (vertex
	// capture, shared stacks) before its virtually-concurrent peers run.
	WindowCycles uint64

	// MCPServiceCycles is the serialized processing cost of one
	// synchronization operation at the centralized sync manager.
	// Graphite routes every pthread mutex/barrier operation as a network
	// message to a Master Control Program on tile 0 that services them
	// one at a time; this serialization is the first-order reason the
	// paper's lock-heavy kernels (PageRank, SSSP_DIJK, TRI_CNT) stop
	// scaling while lock-free ones (APSP, BETW_CENT) reach 200x.
	MCPServiceCycles uint64

	// HeteroMasterOOO gives core 0 (the master thread's core) an
	// out-of-order pipeline while the rest stay in-order — the
	// heterogeneous design point of Section VII-B ("speeding up master
	// threads using out-of-order cores").
	HeteroMasterOOO bool

	// NextLinePrefetch enables a next-line L1 prefetcher, one of the
	// real-machine optimizations Section VI contrasts with the simulated
	// futuristic multicore ("data prefetching to reduce off-chip
	// bandwidth limitations").
	NextLinePrefetch bool

	// LocalityAware enables the Section VII locality-aware coherence
	// ablation: a line is not allocated in the private L1 until a core
	// has touched it LocalityThreshold times; colder accesses are served
	// remotely at the home L2 with a word-granularity round trip. The
	// per-line touch counters are 8-bit, so the threshold must lie in
	// [1, 255] (Validate enforces this).
	LocalityAware     bool
	LocalityThreshold int

	// Energy is the 11 nm per-event energy model.
	Energy energy.Model
}

// Default returns the Table II configuration.
func Default() Config {
	return Config{
		Cores:           256,
		ClockHz:         1e9,
		CoreType:        InOrder,
		OOOHideFraction: 0.7,
		L1DSizeB:        32 << 10, L1DWays: 4,
		L1LatencyCycles: 1,
		L2SliceSizeB:    256 << 10, L2Ways: 8,
		L2LatencyCycles:   8,
		LineBytes:         64,
		DirPointers:       4,
		MemControllers:    8,
		DRAMBandwidthBs:   5e9,
		DRAMLatencyNs:     100,
		HopCycles:         2,
		FlitBits:          64,
		CtrlPacketBits:    72,
		WindowCycles:      50_000,
		MCPServiceCycles:  10,
		LocalityAware:     false,
		LocalityThreshold: 4,
		Energy:            energy.Default11nm(),
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: cores %d", c.Cores)
	}
	if w := int(math.Sqrt(float64(c.Cores)) + 0.5); w*w != c.Cores {
		// The tiles form a square mesh (noc.New).
		return fmt.Errorf("sim: %d cores is not a perfect square", c.Cores)
	}
	if c.LineBytes != 64 {
		// Regions and the exec address math assume 64-byte lines.
		return fmt.Errorf("sim: line size %d unsupported (want 64)", c.LineBytes)
	}
	if c.MemControllers < 1 || c.MemControllers > c.Cores {
		return fmt.Errorf("sim: %d memory controllers for %d cores", c.MemControllers, c.Cores)
	}
	if c.OOOHideFraction < 0 || c.OOOHideFraction > 1 {
		return fmt.Errorf("sim: OOO hide fraction %g out of [0,1]", c.OOOHideFraction)
	}
	if c.DirPointers < 1 {
		return fmt.Errorf("sim: directory pointers %d", c.DirPointers)
	}
	if c.LocalityAware && (c.LocalityThreshold < 1 || c.LocalityThreshold > 255) {
		// The reuse counters are uint8: a threshold past 255 could never
		// be reached (the counter saturates below it), silently pinning
		// every access to remote service.
		return fmt.Errorf("sim: locality threshold %d out of [1, 255]", c.LocalityThreshold)
	}
	return nil
}
