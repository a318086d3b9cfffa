package core

import (
	"context"
	"math/bits"
	"sync"

	"crono/internal/exec"
)

// This file implements the run-scratch arena: reusable per-kernel
// workspaces so the frontier and pull fast paths allocate nothing in the
// steady state. The paper's kernels are memory-bound; on the serving
// side the biggest recurring allocations are the O(n) level/dist/label
// arrays and the worklist buffers every run rebuilds. A Scratch owns
// them across runs.
//
// Ownership rules:
//
//   - A Scratch is single-run state. It may be reused serially forever,
//     but never shared across concurrent requests; pool instances with
//     ScratchPool (or sync.Pool) instead.
//   - With DetachResults unset (the zero-alloc mode), returned results
//     — the run report included — alias scratch-owned memory and are
//     valid only until the next run on the same Scratch.
//   - With DetachResults set (the serving mode), result-bearing arrays
//     (levels, distances, labels, ranks) and result structs are freshly
//     allocated per run — safe to cache indefinitely — while the
//     internal buffers (worklists, marks, band minima, contributions)
//     still come from the scratch.
//   - Reordered runs always return fresh, un-permuted payload arrays
//     (see order.go), regardless of the mode.

// Scratch is a reusable workspace for the scratch-aware kernels:
// BFSFrontier, SSSPFrontier, ComponentsFrontier and PageRankPull, as
// dispatched by the typed Run path when Request.Scratch is set. The
// zero value is ready to use. Kernels without a scratch-aware path
// ignore it.
type Scratch struct {
	// DetachResults switches the scratch to serving mode: result-bearing
	// arrays and result structs are freshly allocated each run so they
	// may outlive the scratch (e.g. in a response cache), while internal
	// buffers stay pooled.
	DetachResults bool

	// class is the ScratchPool size class this scratch came from.
	class int

	// One cached barrier, keyed by platform and party count; barriers
	// are generation-based and reusable, so consecutive runs on the
	// same platform and thread count share one instead of allocating.
	bar        exec.Barrier
	barPl      exec.Platform
	barParties int

	// Per-kernel reusable run states, created on first use.
	bfsf  *bfsFrontierRun
	ssspf *ssspFrontierRun
	ccf   *afforestRun
	prp   *pageRankPullRun

	// res is the reusable typed-Run result wrapper and rep the reusable
	// run report (zero-alloc mode only).
	res Result
	rep exec.Report
}

// NewScratch returns an empty scratch workspace.
func NewScratch() *Scratch { return &Scratch{} }

// detached reports whether result-bearing buffers must be freshly
// allocated. A nil scratch means the caller keeps the legacy
// allocate-per-run behavior, where results are always independently
// owned.
func (s *Scratch) detached() bool { return s == nil || s.DetachResults }

// run executes body on pl for a scratch-aware kernel. In the zero-alloc
// mode, on a platform that can fill a caller's report (the native one),
// the report is scratch-owned like every other result the mode returns:
// valid until the next run on s. Otherwise — nil or detached scratch,
// or any other platform — it is RunCtx and the report is fresh.
func (s *Scratch) run(goCtx context.Context, pl exec.Platform, threads int, body func(exec.Ctx)) (*exec.Report, error) {
	into, ok := pl.(interface {
		RunInto(context.Context, int, func(exec.Ctx), *exec.Report) error
	})
	if !ok || s.detached() {
		return pl.RunCtx(goCtx, threads, body)
	}
	if err := into.RunInto(goCtx, threads, body, &s.rep); err != nil {
		return nil, err
	}
	return &s.rep, nil
}

// barrierFor returns a reusable barrier for the platform and party
// count, allocating only when either changed since the last run.
func (s *Scratch) barrierFor(pl exec.Platform, parties int) exec.Barrier {
	if s == nil {
		return pl.NewBarrier(parties)
	}
	if s.bar == nil || s.barPl != pl || s.barParties != parties {
		s.bar = pl.NewBarrier(parties)
		s.barPl = pl
		s.barParties = parties
	}
	return s.bar
}

// bfsFrontier returns the reusable BFSFrontier state (fresh when s is
// nil).
func (s *Scratch) bfsFrontier() *bfsFrontierRun {
	if s == nil {
		return &bfsFrontierRun{}
	}
	if s.bfsf == nil {
		s.bfsf = &bfsFrontierRun{}
	}
	return s.bfsf
}

// ssspFrontier returns the reusable SSSPFrontier state.
func (s *Scratch) ssspFrontier() *ssspFrontierRun {
	if s == nil {
		return &ssspFrontierRun{}
	}
	if s.ssspf == nil {
		s.ssspf = &ssspFrontierRun{}
	}
	return s.ssspf
}

// afforest returns the reusable ComponentsFrontier state.
func (s *Scratch) afforest() *afforestRun {
	if s == nil {
		return &afforestRun{}
	}
	if s.ccf == nil {
		s.ccf = &afforestRun{}
	}
	return s.ccf
}

// pageRankPull returns the reusable PageRankPull state.
func (s *Scratch) pageRankPull() *pageRankPullRun {
	if s == nil {
		return &pageRankPullRun{}
	}
	if s.prp == nil {
		s.prp = &pageRankPullRun{}
	}
	return s.prp
}

// newResult returns the typed-Run result wrapper: scratch-owned and
// reused in the zero-alloc mode, fresh otherwise.
func newResult(s *Scratch) *Result {
	if s != nil && !s.DetachResults {
		s.res = Result{}
		return &s.res
	}
	return &Result{}
}

// grow32 returns a length-n int32 buffer: buf resliced when its capacity
// suffices, a fresh allocation otherwise. fresh forces a new allocation
// (the DetachResults discipline for result-bearing arrays).
func grow32(buf []int32, n int, fresh bool) []int32 {
	if fresh || cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// grow64 is grow32 for int64 buffers.
func grow64(buf []int64, n int, fresh bool) []int64 {
	if fresh || cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

// growF64 is grow32 for float64 buffers.
func growF64(buf []float64, n int, fresh bool) []float64 {
	if fresh || cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// scratchClasses is the number of power-of-two size classes ScratchPool
// partitions by (class i holds graphs with n up to 2^i).
const scratchClasses = 32

// ScratchPool pools Scratch workspaces by power-of-two graph-size class,
// so a mixed workload does not hand giant warm buffers to small-graph
// runs (and vice versa, small buffers that immediately regrow). It is
// safe for concurrent use; idle scratches are reclaimed by the garbage
// collector per sync.Pool semantics.
type ScratchPool struct {
	pools [scratchClasses]sync.Pool
}

// sizeClass buckets a vertex count into its power-of-two class.
func sizeClass(n int) int {
	if n < 1 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c >= scratchClasses {
		c = scratchClasses - 1
	}
	return c
}

// Get returns a scratch from n's size class, creating one if the class
// is empty. The caller owns it until Put.
func (p *ScratchPool) Get(n int) *Scratch {
	c := sizeClass(n)
	if s, ok := p.pools[c].Get().(*Scratch); ok {
		return s
	}
	return &Scratch{class: c}
}

// Put returns s to its size class for reuse.
func (p *ScratchPool) Put(s *Scratch) {
	if s == nil {
		return
	}
	p.pools[s.class].Put(s)
}
