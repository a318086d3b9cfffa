package core

import (
	"context"
	"fmt"

	"crono/internal/exec"
	"crono/internal/graph"
)

// BetweennessResult carries the output of the BETW_CENT benchmark.
type BetweennessResult struct {
	// Centrality counts, for each vertex v, the (s,t) pairs whose
	// shortest path passes through v: #{(s,t): s!=v!=t,
	// d(s,v)+d(v,t)=d(s,t) < Inf}.
	Centrality []int64
	// Dist is the all-pairs distance matrix computed in phase one.
	Dist []int32
	// Report is the platform run report.
	Report *exec.Report
}

// Betweenness runs the BETW_CENT benchmark exactly as Section III-3
// describes: an APSP phase (vertex capture), then a barrier, then a final
// loop statically divided among threads that reads shortest-path values
// and updates vertex centralities under atomic locks. Cancellation is
// polled per captured vertex in phase one and per source in phase two.
func Betweenness(goCtx context.Context, pl exec.Platform, d *graph.Dense, threads int) (*BetweennessResult, error) {
	if d == nil || d.N == 0 {
		return nil, fmt.Errorf("core: Betweenness needs a non-empty matrix")
	}
	if threads < 1 {
		return nil, fmt.Errorf("core: thread count %d < 1", threads)
	}
	n := d.N
	st := newAPSPState(pl, d, threads)
	cent := make([]int64, n)
	rCent := pl.Alloc("betw.centrality", n, 8)
	locks := exec.NewLocks(pl, n)
	bar := pl.NewBarrier(threads)

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		// Phase 1: all-pairs shortest paths by vertex capture.
		st.kernel(ctx)
		ctx.Barrier(bar)
		// Phase 2: centrality counting, outer loop statically divided.
		tid := ctx.TID()
		lo, hi := chunk(tid, threads, n)
		local := make([]int64, n)
		dist := st.dist
		for s := lo; s < hi; s++ {
			if ctx.Checkpoint() != nil {
				return
			}
			ctx.Active(1)
			for i := range local {
				local[i] = 0
			}
			for v := 0; v < n; v++ {
				if v == s {
					continue
				}
				ctx.Load(st.rDist.At(s*n + v))
				dsv := dist[s*n+v]
				if dsv >= graph.Inf {
					continue
				}
				// Scan v's and s's distance rows in lockstep.
				ctx.LoadSpan(st.rDist.At(v*n), n, 4)
				ctx.LoadSpan(st.rDist.At(s*n), n, 4)
				ctx.Compute(n)
				for t := 0; t < n; t++ {
					if t == s || t == v {
						continue
					}
					dvt, dst := dist[v*n+t], dist[s*n+t]
					if dvt < graph.Inf && dst < graph.Inf && dsv+dvt == dst {
						local[v]++
					}
				}
			}
			// Flush this source's contributions under atomic locks.
			for v := 0; v < n; v++ {
				if local[v] == 0 {
					continue
				}
				ctx.Lock(locks[v])
				ctx.Load(rCent.At(v))
				cent[v] += local[v]
				ctx.Store(rCent.At(v))
				ctx.Unlock(locks[v])
			}
			ctx.Active(-1)
		}
	})
	if err != nil {
		return nil, err
	}

	return &BetweennessResult{Centrality: cent, Dist: st.dist, Report: rep}, nil
}

// BetweennessRef is the sequential oracle: the same pair-counting
// definition evaluated over Floyd-Warshall distances.
func BetweennessRef(d *graph.Dense) []int64 {
	n := d.N
	dist := FloydWarshallRef(d)
	cent := make([]int64, n)
	for s := 0; s < n; s++ {
		for v := 0; v < n; v++ {
			if v == s || dist[s*n+v] >= graph.Inf {
				continue
			}
			for t := 0; t < n; t++ {
				if t == s || t == v {
					continue
				}
				if dist[v*n+t] < graph.Inf && dist[s*n+t] < graph.Inf &&
					dist[s*n+v]+dist[v*n+t] == dist[s*n+t] {
					cent[v]++
				}
			}
		}
	}
	return cent
}
