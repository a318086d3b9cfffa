package core

import (
	"context"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// dfsDonateThreshold is the local-stack depth above which a thread donates
// half of its branch to the shared stack, exposing branch-level
// parallelism (Section III-5: "branches can be searched in parallel").
const dfsDonateThreshold = 64

// DFSResult carries the output of the DFS benchmark.
type DFSResult struct {
	// Visited marks the vertices reached from the source.
	Visited []bool
	// Count is the number of visited vertices.
	Count int
	// Report is the platform run report.
	Report *exec.Report
}

// DFS runs the depth-first search benchmark. Parallelism is branch level:
// threads capture branch roots from a shared stack guarded by an atomic
// lock, explore their branch depth first, and donate outward-extending
// sub-branches back to the shared stack when their own branch grows long.
// Vertices are claimed under per-vertex locks since branches share
// vertices (the source of the benchmark's high L2Home-Sharers time).
// Cancellation is polled per captured branch, which also breaks the idle
// spin of threads waiting for work.
func DFS(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int) (*DFSResult, error) {
	if err := validate(g, src, threads); err != nil {
		return nil, err
	}
	n := g.N
	visited := make([]int32, n)
	shared := make([]int32, 0, 1024)
	var active int // claimed branches being explored, guarded by stackLock

	rVis := pl.Alloc("dfs.visited", n, 4)
	rOff := pl.Alloc("dfs.offsets", n+1, 8)
	rTgt := pl.Alloc("dfs.targets", g.M(), 4)
	rStack := pl.Alloc("dfs.stack", n, 4)
	locks := exec.NewLocks(pl, n)
	stackLock := pl.NewLock()

	// Claim the source up front so the parallel region starts with one
	// branch on the shared stack.
	visited[src] = 1
	shared = append(shared, int32(src))

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		local := make([]int32, 0, 256)
		for {
			if ctx.Checkpoint() != nil {
				return
			}
			// Capture a branch root from the shared stack.
			ctx.Lock(stackLock)
			ctx.Load(rStack.At(0))
			if len(shared) > 0 {
				v := shared[len(shared)-1]
				shared = shared[:len(shared)-1]
				active++
				ctx.Load(rStack.At(len(shared)))
				ctx.Unlock(stackLock)
				local = append(local[:0], v)
			} else if active == 0 {
				ctx.Unlock(stackLock)
				return
			} else {
				ctx.Unlock(stackLock)
				ctx.Compute(1) // brief spin before re-checking
				continue
			}

			// Explore the branch depth first.
			for len(local) > 0 {
				v := int(local[len(local)-1])
				local = local[:len(local)-1]
				ctx.Load(rOff.At(v))
				ts, _ := g.Neighbors(v)
				for e := len(ts) - 1; e >= 0; e-- {
					u := ts[e]
					ctx.Load(rTgt.At(int(g.Offsets[v]) + e))
					ctx.AtomicLoad(rVis.At(int(u)))
					ctx.Compute(1)
					if atomic.LoadInt32(&visited[u]) != 0 {
						continue
					}
					ctx.Lock(locks[u])
					ctx.AtomicLoad(rVis.At(int(u)))
					claimed := false
					if atomic.LoadInt32(&visited[u]) == 0 {
						atomic.StoreInt32(&visited[u], 1)
						ctx.AtomicStore(rVis.At(int(u)))
						ctx.Active(1) // vertex joins the branch pool
						claimed = true
					}
					ctx.Unlock(locks[u])
					if claimed {
						local = append(local, u)
					}
				}
				ctx.Active(-1) // vertex explored
				// Donate half of an overgrown branch.
				if len(local) > dfsDonateThreshold {
					half := len(local) / 2
					ctx.Lock(stackLock)
					for i := 0; i < half; i++ {
						shared = append(shared, local[i])
						ctx.Store(rStack.At(len(shared) - 1))
					}
					ctx.Unlock(stackLock)
					local = append(local[:0], local[half:]...)
				}
			}
			ctx.Lock(stackLock)
			active--
			ctx.Unlock(stackLock)
		}
	})
	if err != nil {
		return nil, err
	}

	vis := make([]bool, n)
	count := 0
	for i, v := range visited {
		if v != 0 {
			vis[i] = true
			count++
		}
	}
	return &DFSResult{Visited: vis, Count: count, Report: rep}, nil
}

// DFSRef is the sequential oracle: iterative depth-first traversal
// returning the reachable set.
func DFSRef(g *graph.CSR, src int) []bool {
	visited := make([]bool, g.N)
	stack := []int32{int32(src)}
	visited[src] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ts, _ := g.Neighbors(int(v))
		for e := len(ts) - 1; e >= 0; e-- {
			if u := ts[e]; !visited[u] {
				visited[u] = true
				stack = append(stack, u)
			}
		}
	}
	return visited
}
