package core

import (
	"context"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// BFSResult carries the output of the BFS benchmark.
type BFSResult struct {
	// Level is the breadth-first level of each vertex from the source,
	// -1 where unreachable.
	Level []int32
	// Visited is the number of reached vertices.
	Visited int
	// Levels is the number of levels traversed (eccentricity + 1).
	Levels int
	// Report is the platform run report.
	Report *exec.Report
}

// BFS runs the level-synchronous breadth-first search benchmark
// (Section III-4) in the scan-based style of the original CRONO kernels:
// each level, every thread scans its static vertex range (graph
// division) for vertices on the current level, claims their unvisited
// neighbors under per-vertex atomic locks, and a barrier separates
// levels. A canceled run ends at its next barrier.
//
// The scan tests each level unannotated and flushes the skipped stretch
// with one AtomicLoadSweep: a round writes only level cur+1, so no thread
// changes the outcome of another's "== cur" test during the sweep.
func BFS(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int) (*BFSResult, error) {
	if err := validate(g, src, threads); err != nil {
		return nil, err
	}
	n := g.N
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	changed := make([]int32, threads)
	done := int32(0)
	depth := 0

	rLvl := pl.Alloc("bfs.level", n, 4)
	rOff := pl.Alloc("bfs.offsets", n+1, 8)
	rTgt := pl.Alloc("bfs.targets", g.M(), 4)
	rChg := pl.Alloc("bfs.changed", threads, 4)
	locks := exec.NewLocks(pl, n)
	bar := pl.NewBarrier(threads)

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo, hi := chunk(tid, threads, n)
		cur := int32(0)
		for {
			changed[tid] = 0
			skip := lo
			for v := lo; v < hi; v++ {
				if atomic.LoadInt32(&level[v]) != cur {
					continue
				}
				ctx.AtomicLoadSweep(rLvl, skip, v+1)
				skip = v + 1
				ctx.Load(rOff.At(v))
				ts, _ := g.Neighbors(v)
				ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
				for _, u := range ts {
					ctx.AtomicLoad(rLvl.At(int(u)))
					ctx.Compute(1)
					if atomic.LoadInt32(&level[u]) != -1 {
						continue
					}
					ctx.Lock(locks[u])
					ctx.AtomicLoad(rLvl.At(int(u)))
					if atomic.LoadInt32(&level[u]) == -1 {
						atomic.StoreInt32(&level[u], cur+1)
						ctx.AtomicStore(rLvl.At(int(u)))
						ctx.Active(1) // vertex joins the frontier
						changed[tid] = 1
					}
					ctx.Unlock(locks[u])
				}
				ctx.Active(-1) // vertex explored, leaves the frontier
			}
			ctx.AtomicLoadSweep(rLvl, skip, hi)
			ctx.Store(rChg.At(tid))
			ctx.Barrier(bar)
			if tid == 0 {
				any := int32(0)
				for t := 0; t < threads; t++ {
					ctx.Load(rChg.At(t))
					any |= changed[t]
				}
				if any == 1 {
					depth++
				}
				atomic.StoreInt32(&done, 1-any)
			}
			ctx.Barrier(bar)
			if atomic.LoadInt32(&done) == 1 {
				return
			}
			cur++
		}
	})
	if err != nil {
		return nil, err
	}

	visited := 0
	for _, l := range level {
		if l >= 0 {
			visited++
		}
	}
	return &BFSResult{Level: level, Visited: visited, Levels: depth + 1, Report: rep}, nil
}

// BFSRef is the sequential oracle: textbook queue-based BFS levels.
func BFSRef(g *graph.CSR, src int) []int32 {
	level := make([]int32, g.N)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		ts, _ := g.Neighbors(int(v))
		for _, u := range ts {
			if level[u] == -1 {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return level
}
