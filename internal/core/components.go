package core

import (
	"context"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// ComponentsResult carries the output of the CONN_COMP benchmark.
type ComponentsResult struct {
	// Labels assigns each vertex the minimum vertex id of its connected
	// component.
	Labels []int32
	// Components is the number of connected components.
	Components int
	// Iterations is the number of label-propagation sweeps executed.
	Iterations int
	// Report is the platform run report.
	Report *exec.Report
}

// ConnectedComponents runs the CONN_COMP benchmark (Section III-7):
// iterative label propagation. Labels are initialized to the vertex id,
// then sweeps statically divided among threads pull the minimum neighbor
// label under per-vertex atomic locks; barriers separate the set and
// update phases, and the algorithm stops when a sweep changes nothing.
// Cancellation is polled once per sweep.
func ConnectedComponents(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int) (*ComponentsResult, error) {
	if err := validate(g, 0, threads); err != nil {
		return nil, err
	}
	n := g.N
	labels := make([]int32, n)
	changed := make([]int32, threads)
	iters := 0

	rLbl := pl.Alloc("cc.labels", n, 4)
	rOff := pl.Alloc("cc.offsets", n+1, 8)
	rTgt := pl.Alloc("cc.targets", g.M(), 4)
	rChg := pl.Alloc("cc.changed", threads, 4)
	locks := exec.NewLocks(pl, n)
	bar := pl.NewBarrier(threads)
	done := int32(0)

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo, hi := chunk(tid, threads, n)
		// Phase 1: initialization sweep.
		for v := lo; v < hi; v++ {
			labels[v] = int32(v)
			ctx.Store(rLbl.At(v))
		}
		ctx.Barrier(bar)
		// Phase 2: propagation sweeps.
		for {
			changed[tid] = 0
			swept := 0
			for v := lo; v < hi; v++ {
				ctx.AtomicLoad(rLbl.At(v))
				m := atomic.LoadInt32(&labels[v])
				ctx.Load(rOff.At(v))
				ts, _ := g.Neighbors(v)
				ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
				for _, u := range ts {
					ctx.AtomicLoad(rLbl.At(int(u)))
					ctx.Compute(1)
					if l := atomic.LoadInt32(&labels[u]); l < m {
						m = l
					}
				}
				if m < atomic.LoadInt32(&labels[v]) {
					ctx.Lock(locks[v])
					ctx.AtomicLoad(rLbl.At(v))
					if m < atomic.LoadInt32(&labels[v]) {
						atomic.StoreInt32(&labels[v], m)
						ctx.AtomicStore(rLbl.At(v))
						changed[tid] = 1
						ctx.Active(1) // label still settling
						swept++
					}
					ctx.Unlock(locks[v])
				}
			}
			ctx.Active(-swept)
			ctx.Store(rChg.At(tid))
			ctx.Barrier(bar)
			// Phase 3: reduction, then continue or stop.
			if tid == 0 {
				iters++
				any := int32(0)
				for t := 0; t < threads; t++ {
					ctx.Load(rChg.At(t))
					any |= changed[t]
				}
				atomic.StoreInt32(&done, 1-any)
			}
			ctx.Barrier(bar)
			if atomic.LoadInt32(&done) == 1 {
				return
			}
			if ctx.Checkpoint() != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}

	seen := make(map[int32]bool)
	for _, l := range labels {
		seen[l] = true
	}
	return &ComponentsResult{Labels: labels, Components: len(seen), Iterations: iters, Report: rep}, nil
}

// ComponentsRef is the sequential oracle: union-find with path halving.
func ComponentsRef(g *graph.CSR) []int32 {
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < g.N; v++ {
		ts, _ := g.Neighbors(v)
		for _, u := range ts {
			a, b := find(int32(v)), find(u)
			if a != b {
				if a < b {
					parent[b] = a
				} else {
					parent[a] = b
				}
			}
		}
	}
	labels := make([]int32, g.N)
	for v := range labels {
		labels[v] = find(int32(v))
	}
	return labels
}
