// Package exec defines the platform-neutral execution abstraction that the
// CRONO kernels are written against.
//
// A kernel performs its real computation on ordinary Go data structures and
// simultaneously annotates every logical memory access, compute burst and
// synchronization event through a Ctx. Ctx is a concrete type (*Thread)
// whose methods inline into the kernel: a platform that models or observes
// the stream — the simulator (internal/sim) with its multicore timing and
// energy model, and the race detector (internal/racecheck) — attaches a
// Model and receives every annotation; the native platform
// (internal/native) attaches none, and an annotation is then one inlined
// counter bump, so the same kernel source runs there within a counter's
// cost of its unannotated loop (DESIGN §2, "What an annotation costs
// natively": frontier BFS on a road graph 6.1 ms against 4.6 clean and
// 8.0 through the interface this type replaced).
package exec

import (
	"context"
	"fmt"
	"math"
)

// Addr is a logical byte address in the platform's address space. The
// simulator maps addresses to cache lines, home tiles and memory
// controllers; the native platform ignores them.
type Addr = uint64

// LineSize is the cache line size in bytes used for region alignment.
// It matches Table II of the paper (64-byte lines).
const LineSize = 64

// Region describes a logical array placed in the platform address space.
// All regions are cache-line aligned, mirroring CRONO's cache-line aligned
// data structures.
//
// A Region is passed by value into every inlined annotation, so it must
// stay within the compiler's limit for keeping a struct in registers: at
// most four fields and four pointer words (cmd/compile's SSA form, see
// canSSAType). Past it, every inlined At copies the struct through the
// stack, which made an annotated union-find loop 1.6 times as slow
// (DESIGN §2). Hence the 32-bit element size and count; NewRegion
// refuses a region they cannot describe.
type Region struct {
	Name     string
	Base     Addr
	ElemSize uint32
	Elems    uint32
}

// NewRegion is the Region of elems elements of elemSize bytes at base,
// the one constructor the platforms' Alloc methods share. It panics
// when either count is negative or does not fit the 32-bit field, so
// nothing truncates silently.
func NewRegion(name string, base Addr, elems, elemSize int) Region {
	if elems < 0 || elemSize < 0 || uint64(elems) > math.MaxUint32 || uint64(elemSize) > math.MaxUint32 {
		panic(fmt.Sprintf("exec: region %q of %d elements of %d bytes is out of range", name, elems, elemSize))
	}
	return Region{Name: name, Base: base, ElemSize: uint32(elemSize), Elems: uint32(elems)}
}

// At returns the address of element i. A negative index panics: the
// uint64 conversion would otherwise wrap it into a huge address far
// outside the region, and the platforms would silently attribute the
// access to whatever region happens to own that line.
//
// At is on every kernel's per-edge path and must inline; the panic's
// formatting lives in negativeIndex to keep it under the budget.
func (r Region) At(i int) Addr {
	if i < 0 {
		negativeIndex(i, r.Name)
	}
	return r.Base + uint64(i)*uint64(r.ElemSize)
}

//go:noinline
func negativeIndex(i int, region string) {
	panic(fmt.Sprintf("exec: negative index %d into region %q", i, region))
}

// Bytes returns the total size of the region in bytes.
func (r Region) Bytes() uint64 { return uint64(r.ElemSize) * uint64(r.Elems) }

// Lock is an opaque platform lock handle created by Platform.NewLock.
// Kernels treat locks as the "atomic locks" of the paper: short critical
// sections guarding one vertex or one shared global. Passing a lock to a
// Ctx from a different platform panics.
type Lock any

// Barrier is an opaque platform barrier handle created by
// Platform.NewBarrier, reusable across phases.
type Barrier any

// Platform creates platform resources and runs parallel regions. A
// platform runs one region at a time: resources may be created at any
// point, but Run/RunCtx calls on one platform must not overlap. Use one
// platform per concurrent run.
type Platform interface {
	// Name identifies the platform ("native" or "sim").
	Name() string
	// Alloc places a logical array of elems elements of elemSize bytes
	// in the address space and returns its region.
	Alloc(name string, elems, elemSize int) Region
	// NewLock creates a lock.
	NewLock() Lock
	// NewBarrier creates a reusable barrier for the given number of
	// parties.
	NewBarrier(parties int) Barrier
	// Run executes body on the given number of threads and returns the
	// run report. Run may be called multiple times; completion time is
	// measured for the parallel region only, as in the paper. It is
	// RunCtx with a background (never-canceled) context.
	Run(threads int, body func(Ctx)) *Report
	// RunCtx executes body on the given number of threads under ctx.
	// Cancellation is cooperative: when ctx is canceled or its deadline
	// expires, the next barrier generation to complete or Ctx.Checkpoint
	// to poll sees it, every thread ends at its next barrier (see Sync)
	// or returns on its Checkpoint's error, and once all threads have
	// ended RunCtx reports (nil, ctx.Err()), discarding the partial
	// counters. A ctx that is never canceled yields exactly Run's
	// behavior.
	RunCtx(ctx context.Context, threads int, body func(Ctx)) (*Report, error)
}

// BreakdownComponent enumerates the completion-time components of
// Section IV-D of the paper.
type BreakdownComponent int

const (
	// CompCompute is pipeline execution including L1 hits.
	CompCompute BreakdownComponent = iota
	// CompL1ToL2 is "L1Cache-L2Cache": L1 miss request/reply network
	// time plus the first access to the L2 home slice.
	CompL1ToL2
	// CompWaiting is "L2Home-Waiting": queueing delay while requests to
	// the same line serialize at the home tile.
	CompWaiting
	// CompSharers is "L2Cache-Sharers": round trips invalidating or
	// downgrading private sharers.
	CompSharers
	// CompOffChip is "L2Home-OffChip": memory-controller queueing and
	// DRAM latency.
	CompOffChip
	// CompSync is lock hand-off and barrier waiting time.
	CompSync

	// NumComponents is the number of breakdown components.
	NumComponents
)

// String returns the paper's name for the component.
func (c BreakdownComponent) String() string {
	switch c {
	case CompCompute:
		return "Compute"
	case CompL1ToL2:
		return "L1Cache-L2Home"
	case CompWaiting:
		return "L2Home-Waiting"
	case CompSharers:
		return "L2Home-Sharers"
	case CompOffChip:
		return "L2Home-OffChip"
	case CompSync:
		return "Synchronization"
	}
	return "?"
}

// Breakdown is a completion-time decomposition in platform time units
// (cycles on the simulator, nanoseconds natively), summed across threads.
type Breakdown [NumComponents]uint64

// Total returns the sum of all components.
func (b Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

// Fractions returns each component as a fraction of the total, or zeros if
// the total is zero.
func (b Breakdown) Fractions() [NumComponents]float64 {
	var f [NumComponents]float64
	t := b.Total()
	if t == 0 {
		return f
	}
	for i, v := range b {
		f[i] = float64(v) / float64(t)
	}
	return f
}

// Add accumulates o into b.
func (b *Breakdown) Add(o Breakdown) {
	for i := range b {
		b[i] += o[i]
	}
}

// ActiveSample is one point of the active-vertex telemetry: the global
// number of active vertices observed at a platform timestamp.
type ActiveSample struct {
	Time   uint64
	Active int64
}

// MissClass classifies private-cache misses per Section IV-D.
type MissClass int

const (
	// MissCold is a miss to a line never previously cached here.
	MissCold MissClass = iota
	// MissCapacity is a miss to a line previously evicted for room.
	MissCapacity
	// MissSharing is a miss to a line previously invalidated or
	// downgraded by another core's request.
	MissSharing

	// NumMissClasses is the number of miss classes.
	NumMissClasses
)

// String returns the paper's name for the miss class.
func (m MissClass) String() string {
	switch m {
	case MissCold:
		return "Cold"
	case MissCapacity:
		return "Capacity"
	case MissSharing:
		return "Sharing"
	}
	return "?"
}

// CacheStats aggregates cache behaviour over a run (simulator only).
type CacheStats struct {
	// L1DAccesses counts L1 data cache accesses.
	L1DAccesses uint64
	// L1DMisses counts L1 data misses by class.
	L1DMisses [NumMissClasses]uint64
	// L2Accesses counts accesses reaching an L2 home slice.
	L2Accesses uint64
	// L2Misses counts L2 misses (off-chip accesses).
	L2Misses uint64
}

// L1MissRate returns the L1-D miss rate in percent.
func (s CacheStats) L1MissRate() float64 {
	if s.L1DAccesses == 0 {
		return 0
	}
	var m uint64
	for _, v := range s.L1DMisses {
		m += v
	}
	return 100 * float64(m) / float64(s.L1DAccesses)
}

// L1MissRateByClass returns per-class L1-D miss rates in percent.
func (s CacheStats) L1MissRateByClass() [NumMissClasses]float64 {
	var r [NumMissClasses]float64
	if s.L1DAccesses == 0 {
		return r
	}
	for i, v := range s.L1DMisses {
		r[i] = 100 * float64(v) / float64(s.L1DAccesses)
	}
	return r
}

// HierarchyMissRate is the paper's cache-hierarchy miss rate: L2 misses
// divided by total L1 accesses, in percent (Figure 4).
func (s CacheStats) HierarchyMissRate() float64 {
	if s.L1DAccesses == 0 {
		return 0
	}
	return 100 * float64(s.L2Misses) / float64(s.L1DAccesses)
}

// EnergyComponent enumerates the memory-system energy consumers of
// Figure 6.
type EnergyComponent int

const (
	// EnergyL1I is instruction cache energy.
	EnergyL1I EnergyComponent = iota
	// EnergyL1D is data cache energy.
	EnergyL1D
	// EnergyL2 is shared L2 slice energy.
	EnergyL2
	// EnergyDir is directory energy.
	EnergyDir
	// EnergyRouter is on-chip network router energy.
	EnergyRouter
	// EnergyLink is on-chip network link energy.
	EnergyLink
	// EnergyDRAM is off-chip access energy.
	EnergyDRAM

	// NumEnergyComponents is the number of energy components.
	NumEnergyComponents
)

// String returns the figure label for the component.
func (c EnergyComponent) String() string {
	switch c {
	case EnergyL1I:
		return "L1-I Cache"
	case EnergyL1D:
		return "L1-D Cache"
	case EnergyL2:
		return "L2 Cache"
	case EnergyDir:
		return "Directory"
	case EnergyRouter:
		return "Network Router"
	case EnergyLink:
		return "Network Link"
	case EnergyDRAM:
		return "DRAM"
	}
	return "?"
}

// EnergyBreakdown is dynamic energy per component in picojoules.
type EnergyBreakdown [NumEnergyComponents]float64

// Total returns total dynamic energy in picojoules.
func (e EnergyBreakdown) Total() float64 {
	var t float64
	for _, v := range e {
		t += v
	}
	return t
}

// Fractions returns each component as a fraction of the total.
func (e EnergyBreakdown) Fractions() [NumEnergyComponents]float64 {
	var f [NumEnergyComponents]float64
	t := e.Total()
	if t == 0 {
		return f
	}
	for i, v := range e {
		f[i] = v / t
	}
	return f
}

// Report is the result of one Platform.Run.
type Report struct {
	// Platform is the platform name.
	Platform string
	// Threads is the thread count of the run.
	Threads int
	// Time is the completion time of the parallel region: cycles on the
	// simulator, nanoseconds natively (max over threads).
	Time uint64
	// HostNs is the host wall-clock duration of the parallel region in
	// nanoseconds, on both platforms (natively it equals Time). It feeds
	// simulator-throughput metrics (simulated cycles per host second)
	// and never enters the timing model.
	HostNs uint64
	// Breakdown decomposes thread time by component (simulator; the
	// native platform fills Compute and Synchronization only).
	Breakdown Breakdown
	// Instructions is the per-thread instruction count.
	Instructions []uint64
	// ThreadTime is each thread's busy time in platform units (virtual
	// cycles on the simulator, wall nanoseconds natively).
	ThreadTime []uint64
	// ActiveTrace samples the number of active vertices over time
	// (simulator only).
	ActiveTrace []ActiveSample
	// Cache carries cache statistics (simulator only).
	Cache CacheStats
	// Energy carries the dynamic energy breakdown (simulator only).
	Energy EnergyBreakdown
	// NetworkFlitHops counts flit-hops traversed (simulator only).
	NetworkFlitHops uint64
}

// Variability computes the paper's load-imbalance metric (Eq. 2):
// (max(thread instructions) - min(thread instructions)) / max.
func (r *Report) Variability() float64 {
	if len(r.Instructions) == 0 {
		return 0
	}
	maxI, minI := r.Instructions[0], r.Instructions[0]
	for _, v := range r.Instructions[1:] {
		if v > maxI {
			maxI = v
		}
		if v < minI {
			minI = v
		}
	}
	if maxI == 0 {
		return 0
	}
	return float64(maxI-minI) / float64(maxI)
}

// TotalInstructions sums instruction counts across threads.
func (r *Report) TotalInstructions() uint64 {
	var t uint64
	for _, v := range r.Instructions {
		t += v
	}
	return t
}
