package core

import (
	"context"
	"sort"

	"crono/internal/exec"
	"crono/internal/graph"
)

// TriangleCountResult carries the output of the TRI_CNT benchmark.
type TriangleCountResult struct {
	// PerVertex counts the triangles each vertex participates in.
	PerVertex []int64
	// Total is the number of distinct triangles in the graph.
	Total int64
	// Report is the platform run report.
	Report *exec.Report
}

// TriangleCount runs the exact triangle-counting benchmark
// (Section III-8): the graph is statically divided among threads; a first
// phase registers vertex connections into a global structure under atomic
// locks, a barrier follows, and a second statically divided phase
// enumerates neighbor pairs and updates per-vertex triangle counts under
// atomic locks. Each triangle {v,u,w} with v<u<w is found exactly once
// from its smallest vertex. A canceled run ends at the phase barrier, or at
// a poll every 256 vertices of the barrier-free wedge-closing phase.
func TriangleCount(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int) (*TriangleCountResult, error) {
	if err := validate(g, 0, threads); err != nil {
		return nil, err
	}
	n := g.N
	conn := make([]int64, n) // global connection counts (phase 1 output)
	tri := make([]int64, n)

	rConn := pl.Alloc("tri.conn", n, 8)
	rTri := pl.Alloc("tri.counts", n, 8)
	rOff := pl.Alloc("tri.offsets", n+1, 8)
	rTgt := pl.Alloc("tri.targets", g.M(), 4)
	locks := exec.NewLocks(pl, n)
	bar := pl.NewBarrier(threads)

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo, hi := chunk(tid, threads, n)
		// Phase 1: register connections into the global structure.
		ctx.Active(hi - lo)
		for v := lo; v < hi; v++ {
			ctx.Load(rOff.At(v))
			ts, _ := g.Neighbors(v)
			ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
			for _, u := range ts {
				ctx.Lock(locks[u])
				ctx.Load(rConn.At(int(u)))
				conn[u]++
				ctx.Store(rConn.At(int(u)))
				ctx.Unlock(locks[u])
			}
			ctx.Active(-1)
		}
		ctx.Barrier(bar)
		// Phase 2: enumerate wedges from each vertex's sorted neighbor
		// list and close them by binary search.
		ctx.Active(hi - lo)
		for v := lo; v < hi; v++ {
			if (v-lo)&255 == 0 && ctx.Checkpoint() != nil {
				return
			}
			ctx.Load(rOff.At(v))
			ts, _ := g.Neighbors(v)
			// Only neighbors greater than v: each triangle is counted
			// once from its smallest vertex.
			start := sort.Search(len(ts), func(i int) bool { return ts[i] > int32(v) })
			for i := start; i < len(ts); i++ {
				ctx.Load(rTgt.At(int(g.Offsets[v]) + i))
				ctx.LoadSpan(rTgt.At(int(g.Offsets[v])+i+1), len(ts)-i-1, 4)
				for j := i + 1; j < len(ts); j++ {
					u, x := ts[i], ts[j]
					// Binary search over u's neighbor list for x.
					uts, _ := g.Neighbors(int(u))
					steps := 1
					for lo2, hi2 := 0, len(uts); lo2 < hi2; steps++ {
						mid := (lo2 + hi2) / 2
						ctx.Load(rTgt.At(int(g.Offsets[u]) + mid))
						if uts[mid] < x {
							lo2 = mid + 1
						} else {
							hi2 = mid
						}
						if lo2 >= hi2 {
							break
						}
					}
					ctx.Compute(steps)
					if !g.HasEdge(int(u), int(x)) {
						continue
					}
					// Triangle {v,u,x}: update all three counts under
					// their atomic locks.
					for _, y := range [3]int32{int32(v), u, x} {
						ctx.Lock(locks[y])
						ctx.Load(rTri.At(int(y)))
						tri[y]++
						ctx.Store(rTri.At(int(y)))
						ctx.Unlock(locks[y])
					}
				}
			}
			ctx.Active(-1)
		}
	})
	if err != nil {
		return nil, err
	}

	var total int64
	for _, t := range tri {
		total += t
	}
	return &TriangleCountResult{PerVertex: tri, Total: total / 3, Report: rep}, nil
}

// TriangleCountRef is the sequential oracle: brute-force enumeration of
// ordered triples over sorted adjacency lists.
func TriangleCountRef(g *graph.CSR) int64 {
	var total int64
	for v := 0; v < g.N; v++ {
		ts, _ := g.Neighbors(v)
		for i := 0; i < len(ts); i++ {
			if ts[i] <= int32(v) {
				continue
			}
			for j := i + 1; j < len(ts); j++ {
				if g.HasEdge(int(ts[i]), int(ts[j])) {
					total++
				}
			}
		}
	}
	return total
}
