package core

import (
	"context"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// SSSPResult carries the output of the SSSP_DIJK benchmark.
type SSSPResult struct {
	// Dist is the shortest-path cost from the source to every vertex,
	// graph.Inf where unreachable.
	Dist []int32
	// Relaxations counts successful distance updates.
	Relaxations int64
	// Rounds is the number of pareto fronts opened: by the scan, one
	// per front; by the frontier strategy, one per bucket round (per
	// BFS level on a unit-weight graph).
	Rounds int
	// Report is the platform run report.
	Report *exec.Report
}

// SSSP runs the SSSP_DIJK benchmark: Dijkstra single-source shortest
// paths parallelized by graph division over dynamically opened pareto
// fronts (Section III-1), in the scan-based style of the original CRONO
// kernels. Each round the threads find the minimum tentative distance
// among unsettled marked vertices (the next pareto front), then relax
// the neighbors of exactly that front under per-vertex atomic locks.
// Fronts are settled Dijkstra-fashion, so every vertex is processed
// once; the price — as the paper's characterization shows — is a
// barrier-synchronized round per front, which caps scalability at high
// thread counts. A canceled run ends at its next barrier.
func SSSP(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int) (*SSSPResult, error) {
	if err := validate(g, src, threads); err != nil {
		return nil, err
	}
	n := g.N
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[src] = 0
	exist := make([]int32, n)
	exist[src] = 1
	mins := make([]int32, threads)
	relax := make([]int64, threads)
	rounds := 0
	front := int32(0) // current pareto-front distance, Inf when done

	rDist := pl.Alloc("sssp.dist", n, 4)
	rOff := pl.Alloc("sssp.offsets", n+1, 8)
	rTgt := pl.Alloc("sssp.targets", g.M(), 4)
	rWgt := pl.Alloc("sssp.weights", g.M(), 4)
	rExist := pl.Alloc("sssp.exist", n, 4)
	rMins := pl.Alloc("sssp.mins", threads, 4)
	locks := exec.NewLocks(pl, n)
	bar := pl.NewBarrier(threads)

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo, hi := chunk(tid, threads, n)
		for {
			// Phase 1: find the next pareto front (minimum tentative
			// distance among marked vertices).
			local := graph.Inf
			for v := lo; v < hi; v++ {
				ctx.AtomicLoad(rExist.At(v))
				ctx.Compute(1)
				if atomic.LoadInt32(&exist[v]) == 0 {
					continue
				}
				ctx.AtomicLoad(rDist.At(v))
				if d := atomic.LoadInt32(&dist[v]); d < local {
					local = d
				}
			}
			mins[tid] = local
			ctx.Store(rMins.At(tid))
			ctx.Barrier(bar)
			if tid == 0 {
				rounds++
				gmin := graph.Inf
				for t := 0; t < threads; t++ {
					ctx.Load(rMins.At(t))
					if mins[t] < gmin {
						gmin = mins[t]
					}
				}
				atomic.StoreInt32(&front, gmin)
			}
			ctx.Barrier(bar)
			gmin := atomic.LoadInt32(&front)
			if gmin >= graph.Inf {
				return
			}
			// Phase 2: settle and expand the front.
			for v := lo; v < hi; v++ {
				ctx.AtomicLoad(rExist.At(v))
				ctx.Compute(1)
				if atomic.LoadInt32(&exist[v]) == 0 {
					continue
				}
				ctx.AtomicLoad(rDist.At(v))
				dv := atomic.LoadInt32(&dist[v])
				if dv != gmin {
					continue
				}
				atomic.StoreInt32(&exist[v], 0)
				ctx.AtomicStore(rExist.At(v))
				ctx.Active(-1) // vertex settled, leaves the front pool
				ctx.Load(rOff.At(v))
				ts, ws := g.Neighbors(v)
				ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
				ctx.LoadSpan(rWgt.At(int(g.Offsets[v])), len(ts), 4)
				for e, u := range ts {
					nd := dv + ws[e]
					ctx.AtomicLoad(rDist.At(int(u)))
					ctx.Compute(1)
					// Optimistic unlocked check, as in the paper's
					// racy-read-then-locked-recheck pattern.
					if nd >= atomic.LoadInt32(&dist[u]) {
						continue
					}
					ctx.Lock(locks[u])
					ctx.AtomicLoad(rDist.At(int(u)))
					if nd < atomic.LoadInt32(&dist[u]) {
						atomic.StoreInt32(&dist[u], nd)
						ctx.AtomicStore(rDist.At(int(u)))
						relax[tid]++
						if atomic.SwapInt32(&exist[u], 1) == 0 {
							ctx.Active(1) // vertex joins the front pool
						}
						ctx.AtomicRMW(rExist.At(int(u)))
					}
					ctx.Unlock(locks[u])
				}
			}
			ctx.Barrier(bar)
		}
	})
	if err != nil {
		return nil, err
	}

	var total int64
	for _, r := range relax {
		total += r
	}
	return &SSSPResult{Dist: dist, Relaxations: total, Rounds: rounds, Report: rep}, nil
}

// SSSPRef is the sequential Dijkstra oracle used by tests: a simple
// O(V^2 + E) implementation with no heap dependence.
func SSSPRef(g *graph.CSR, src int) []int32 {
	n := g.N
	dist := make([]int32, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		best, bestD := -1, graph.Inf
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < bestD {
				best, bestD = v, dist[v]
			}
		}
		if best < 0 {
			break
		}
		done[best] = true
		ts, ws := g.Neighbors(best)
		for e, u := range ts {
			if nd := bestD + ws[e]; nd < dist[u] {
				dist[u] = nd
			}
		}
	}
	return dist
}
