package core

import (
	"context"

	"crono/internal/exec"
	"crono/internal/graph"
)

// PageRank constants from Section III-9, Equation (1): r is the
// probability of a random page visit.
const (
	// DampingR is the paper's r in Equation (1).
	DampingR = 0.15
	// DefaultPageRankIters is the default number of rank iterations.
	DefaultPageRankIters = 10
)

// PageRankResult carries the output of the PageRank benchmark.
type PageRankResult struct {
	// Ranks is the final page rank of each vertex per Equation (1).
	Ranks []float64
	// Iterations is the number of rank updates performed.
	Iterations int
	// Report is the platform run report.
	Report *exec.Report
}

// PageRank runs the PageRank benchmark exactly as Section III-9
// describes: the graph is statically divided among threads; each
// iteration pushes every vertex's contribution PR(j)/degree(j) to its
// neighbors, with rank updates done under per-vertex atomic locks because
// threads converge on common neighbors; barriers separate the reset, push
// and swap phases. A canceled run ends at its next barrier.
func PageRank(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads, iters int) (*PageRankResult, error) {
	if err := validate(g, 0, threads); err != nil {
		return nil, err
	}
	if iters < 1 {
		iters = 1
	}
	n := g.N
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}

	rPR := pl.Alloc("pr.ranks", n, 8)
	rNext := pl.Alloc("pr.next", n, 8)
	rOff := pl.Alloc("pr.offsets", n+1, 8)
	rTgt := pl.Alloc("pr.targets", g.M(), 4)
	locks := exec.NewLocks(pl, n)
	bar := pl.NewBarrier(threads)

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo, hi := chunk(tid, threads, n)
		for it := 0; it < iters; it++ {
			// Reset phase: next = r over this thread's chunk.
			for v := lo; v < hi; v++ {
				next[v] = DampingR
				ctx.Store(rNext.At(v))
			}
			ctx.Barrier(bar)
			// Push phase: contribute (1-r)*PR(v)/deg(v) to neighbors.
			ctx.Active(hi - lo)
			for v := lo; v < hi; v++ {
				ctx.Load(rPR.At(v))
				ctx.Load(rOff.At(v))
				deg := g.Degree(v)
				if deg == 0 {
					ctx.Active(-1)
					continue
				}
				contrib := (1 - DampingR) * pr[v] / float64(deg)
				ctx.Compute(2)
				ts, _ := g.Neighbors(v)
				ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
				for _, u := range ts {
					ctx.Lock(locks[u])
					ctx.Load(rNext.At(int(u)))
					next[u] += contrib
					ctx.Store(rNext.At(int(u)))
					ctx.Unlock(locks[u])
				}
				ctx.Active(-1)
			}
			ctx.Barrier(bar)
			// Swap phase: adopt the new ranks over this thread's chunk.
			for v := lo; v < hi; v++ {
				pr[v] = next[v]
				ctx.Load(rNext.At(v))
				ctx.Store(rPR.At(v))
			}
			ctx.Barrier(bar)
		}
	})
	if err != nil {
		return nil, err
	}

	return &PageRankResult{Ranks: pr, Iterations: iters, Report: rep}, nil
}

// PageRankRef is the sequential oracle: the same Equation (1) iteration
// in pull form.
func PageRankRef(g *graph.CSR, iters int) []float64 {
	n := g.N
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			next[v] = DampingR
		}
		for v := 0; v < n; v++ {
			deg := g.Degree(v)
			if deg == 0 {
				continue
			}
			contrib := (1 - DampingR) * pr[v] / float64(deg)
			ts, _ := g.Neighbors(v)
			for _, u := range ts {
				next[u] += contrib
			}
		}
		pr, next = next, pr
	}
	return pr
}
