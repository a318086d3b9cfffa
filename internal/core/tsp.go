package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// tspBoundCheckEvery is the node-expansion threshold between refreshes of
// the global bound into a thread's local copy ("global costs are updated
// via locks at threshold based iterations", Section IV-A).
const tspBoundCheckEvery = 64

// TSPResult carries the output of the TSP benchmark.
type TSPResult struct {
	// Cost is the best tour cost found (optimal: the search is exact).
	Cost int32
	// Tour is the city order of the best tour, starting at city 0.
	Tour []int32
	// Nodes is the number of branch-and-bound tree nodes expanded.
	Nodes int64
	// Report is the platform run report.
	Report *exec.Report
}

// TSP runs the travelling-salesman benchmark with parallel branch and
// bound (Section III-6): first-level branches (the choice of second city)
// are designated statically across threads; each thread searches its
// branches depth first, pruning against a global bound maintained behind
// an atomic lock. Cancellation is polled at the same threshold as bound
// refreshes and unwinds the recursive search; a canceled run's Cost is
// discarded, as the search is no longer exact.
func TSP(goCtx context.Context, pl exec.Platform, cities *graph.Dense, threads int) (*TSPResult, error) {
	if cities == nil || cities.N < 2 {
		return nil, fmt.Errorf("core: TSP needs at least 2 cities")
	}
	if threads < 1 {
		return nil, fmt.Errorf("core: thread count %d < 1", threads)
	}
	n := cities.N
	w := cities.W

	// Admissible lower-bound helper: the cheapest edge out of each city.
	minEdge := make([]int32, n)
	for i := 0; i < n; i++ {
		m := graph.Inf
		for j := 0; j < n; j++ {
			if i != j && w[i*n+j] < m {
				m = w[i*n+j]
			}
		}
		minEdge[i] = m
	}

	// Greedy nearest-neighbour tour seeds the global bound.
	bound, bestTour := greedyTour(cities)

	rMat := pl.Alloc("tsp.matrix", n*n, 4)
	rBound := pl.Alloc("tsp.bound", 1, 4)
	rTour := pl.Alloc("tsp.tour", n, 4)
	boundLock := pl.NewLock()
	nodes := make([]int64, threads)
	globalBound := bound

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		localBound := atomic.LoadInt32(&globalBound)
		ctx.AtomicLoad(rBound.At(0))
		visited := make([]bool, n)
		path := make([]int32, 1, n)
		path[0] = 0
		visited[0] = true
		sinceCheck := 0
		aborted := false

		var search func(cost int32, lb int32)
		search = func(cost int32, lb int32) {
			if aborted {
				return
			}
			nodes[tid]++
			ctx.Compute(1)
			sinceCheck++
			if sinceCheck >= tspBoundCheckEvery {
				sinceCheck = 0
				if ctx.Checkpoint() != nil {
					// Unwind the recursion; the outer loops observe
					// aborted and return.
					aborted = true
					return
				}
				ctx.AtomicLoad(rBound.At(0))
				if b := atomic.LoadInt32(&globalBound); b < localBound {
					localBound = b
				}
			}
			last := int(path[len(path)-1])
			if len(path) == n {
				ctx.Load(rMat.At(last*n + 0))
				total := cost + w[last*n+0]
				if total < localBound {
					localBound = total
					ctx.Lock(boundLock)
					ctx.AtomicLoad(rBound.At(0))
					if total < atomic.LoadInt32(&globalBound) {
						atomic.StoreInt32(&globalBound, total)
						ctx.AtomicStore(rBound.At(0))
						copy(bestTour, path)
						for i := range path {
							ctx.Store(rTour.At(i))
						}
					} else {
						localBound = atomic.LoadInt32(&globalBound)
					}
					ctx.Unlock(boundLock)
				}
				return
			}
			for next := 1; next < n; next++ {
				if aborted {
					return
				}
				if visited[next] {
					continue
				}
				ctx.Load(rMat.At(last*n + next))
				ctx.Compute(1)
				step := w[last*n+next]
				nlb := lb - minEdge[next]
				if cost+step+nlb >= localBound {
					continue // bound: this branch cannot beat the best tour
				}
				visited[next] = true
				path = append(path, int32(next))
				search(cost+step, nlb)
				path = path[:len(path)-1]
				visited[next] = false
			}
		}

		// Static branch designation over the first two tour legs
		// (second and third city): (n-1)(n-2) branches round-robin
		// across threads, so parallelism survives thread counts well
		// beyond the city count.
		baseLB := int32(0)
		for c := 1; c < n; c++ {
			baseLB += minEdge[c]
		}
		if n == 2 {
			if tid == 0 {
				ctx.Active(1)
				visited[1] = true
				path = append(path, 1)
				search(w[0*n+1], baseLB-minEdge[1])
				path = path[:len(path)-1]
				visited[1] = false
				ctx.Active(-1)
			}
			return
		}
		idx := 0
		for second := 1; second < n; second++ {
			for third := 1; third < n; third++ {
				if aborted {
					return
				}
				if third == second {
					continue
				}
				if idx%threads != tid {
					idx++
					continue
				}
				idx++
				ctx.Active(1)
				ctx.Load(rMat.At(0*n + second))
				ctx.Load(rMat.At(second*n + third))
				visited[second], visited[third] = true, true
				path = append(path, int32(second), int32(third))
				cost := w[0*n+second] + w[second*n+third]
				lb := baseLB - minEdge[second] - minEdge[third]
				if cost+lb < localBound {
					search(cost, lb)
				}
				path = path[:len(path)-2]
				visited[second], visited[third] = false, false
				ctx.Active(-1)
			}
		}
	})
	if err != nil {
		return nil, err
	}

	var total int64
	for _, c := range nodes {
		total += c
	}
	// Of a tour and its mirror, which the search reaches first depends on
	// the schedule: return the one whose second city is below its last.
	if bestTour[1] > bestTour[n-1] {
		slices.Reverse(bestTour[1:])
	}
	return &TSPResult{Cost: globalBound, Tour: bestTour, Nodes: total, Report: rep}, nil
}

// greedyTour builds a nearest-neighbour tour from city 0 and returns its
// cost and city order.
func greedyTour(cities *graph.Dense) (int32, []int32) {
	n := cities.N
	w := cities.W
	tour := make([]int32, 0, n)
	visited := make([]bool, n)
	cur := 0
	visited[0] = true
	tour = append(tour, 0)
	var cost int32
	for len(tour) < n {
		best, bestW := -1, graph.Inf
		for j := 0; j < n; j++ {
			if !visited[j] && w[cur*n+j] < bestW {
				best, bestW = j, w[cur*n+j]
			}
		}
		visited[best] = true
		tour = append(tour, int32(best))
		cost += bestW
		cur = best
	}
	cost += w[cur*n+0]
	return cost, tour
}

// TSPRef is the exhaustive oracle: tries every permutation. Only viable
// for small instances (n <= 10).
func TSPRef(cities *graph.Dense) int32 {
	n := cities.N
	w := cities.W
	perm := make([]int, 0, n)
	used := make([]bool, n)
	used[0] = true
	best := graph.Inf
	var rec func(last int, cost int32, depth int)
	rec = func(last int, cost int32, depth int) {
		if depth == n {
			if t := cost + w[last*n+0]; t < best {
				best = t
			}
			return
		}
		for c := 1; c < n; c++ {
			if used[c] {
				continue
			}
			used[c] = true
			perm = append(perm, c)
			rec(c, cost+w[last*n+c], depth+1)
			perm = perm[:len(perm)-1]
			used[c] = false
		}
	}
	rec(0, 0, 1)
	return best
}
