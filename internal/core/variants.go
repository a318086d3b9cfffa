package core

import (
	"context"
	"fmt"

	"crono/internal/exec"
	"crono/internal/graph"
)

// This file contains kernel variants beyond the paper's Table I set:
// pull PageRank (pageRankPull), PageRank's frontier strategy, which shows
// how much of the paper's lock cost is the push formulation, and an
// exact Brandes betweenness for unweighted graphs (BetweennessBrandes),
// the work-efficient counterpart of the matrix-based BETW_CENT.

// BrandesResult carries exact betweenness centralities for unweighted
// graphs.
type BrandesResult struct {
	// Centrality is the Brandes betweenness: sum over pairs (s,t) of the
	// fraction of shortest s-t paths through each vertex.
	Centrality []float64
	// Report is the platform run report.
	Report *exec.Report
}

// BetweennessBrandes computes exact betweenness centrality on an
// unweighted interpretation of g (every edge hop counts 1) using the
// Brandes algorithm: one BFS plus a reverse dependency accumulation per
// source, sources distributed by vertex capture, centralities merged
// under per-vertex locks. It is the modern work-efficient counterpart of
// the paper's matrix-based BETW_CENT. Cancellation is polled per
// captured source.
func BetweennessBrandes(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int) (*BrandesResult, error) {
	if err := validate(g, 0, threads); err != nil {
		return nil, err
	}
	n := g.N
	cent := make([]float64, n)
	nextSrc := 0

	rCent := pl.Alloc("brandes.centrality", n, 8)
	rOff := pl.Alloc("brandes.offsets", n+1, 8)
	rTgt := pl.Alloc("brandes.targets", g.M(), 4)
	rCur := pl.Alloc("brandes.cursor", 1, 8)
	rLoc := make([]exec.Region, threads)
	for t := 0; t < threads; t++ {
		rLoc[t] = pl.Alloc(fmt.Sprintf("brandes.local.%d", t), 4*n, 8)
	}
	capt := pl.NewLock()
	locks := exec.NewLocks(pl, n)

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		rl := rLoc[tid]
		distL := make([]int32, n)
		sigma := make([]float64, n)
		delta := make([]float64, n)
		order := make([]int32, 0, n)
		for {
			if ctx.Checkpoint() != nil {
				return
			}
			ctx.Lock(capt)
			ctx.Load(rCur.At(0))
			s := nextSrc
			nextSrc++
			ctx.Store(rCur.At(0))
			ctx.Unlock(capt)
			if s >= n {
				return
			}
			ctx.Active(1)
			// Forward BFS counting shortest paths.
			for i := 0; i < n; i++ {
				distL[i] = -1
				sigma[i] = 0
				delta[i] = 0
			}
			ctx.StoreSpan(rl.At(0), 3*n, 8)
			distL[s] = 0
			sigma[s] = 1
			order = order[:0]
			order = append(order, int32(s))
			for head := 0; head < len(order); head++ {
				v := order[head]
				ctx.Load(rl.At(int(v)))
				ctx.Load(rOff.At(int(v)))
				ts, _ := g.Neighbors(int(v))
				ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
				for _, u := range ts {
					ctx.Load(rl.At(int(u)))
					ctx.Compute(1)
					if distL[u] == -1 {
						distL[u] = distL[v] + 1
						ctx.Store(rl.At(int(u)))
						order = append(order, u)
					}
					if distL[u] == distL[v]+1 {
						sigma[u] += sigma[v]
						ctx.Store(rl.At(n + int(u)))
					}
				}
			}
			// Reverse dependency accumulation.
			for i := len(order) - 1; i >= 0; i-- {
				w := order[i]
				ts, _ := g.Neighbors(int(w))
				ctx.LoadSpan(rTgt.At(int(g.Offsets[w])), len(ts), 4)
				for _, u := range ts {
					ctx.Load(rl.At(int(u)))
					ctx.Compute(2)
					if distL[u] == distL[w]+1 && sigma[u] > 0 {
						delta[w] += sigma[w] / sigma[u] * (1 + delta[u])
						ctx.Store(rl.At(2*n + int(w)))
					}
				}
				if int(w) != s && delta[w] != 0 {
					ctx.Lock(locks[w])
					ctx.Load(rCent.At(int(w)))
					cent[w] += delta[w]
					ctx.Store(rCent.At(int(w)))
					ctx.Unlock(locks[w])
				}
			}
			ctx.Active(-1)
		}
	})

	if err != nil {
		return nil, err
	}

	return &BrandesResult{Centrality: cent, Report: rep}, nil
}

// BrandesRef is the sequential oracle for BetweennessBrandes: the pair
// formulation BC(v) = sum over s!=v!=t with d(s,v)+d(v,t)=d(s,t) of
// sigma_sv*sigma_vt/sigma_st, computed from per-source BFS counts.
func BrandesRef(g *graph.CSR) []float64 {
	n := g.N
	dist := make([][]int32, n)
	sigma := make([][]float64, n)
	for s := 0; s < n; s++ {
		d := make([]int32, n)
		sg := make([]float64, n)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		sg[s] = 1
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			ts, _ := g.Neighbors(int(v))
			for _, u := range ts {
				if d[u] == -1 {
					d[u] = d[v] + 1
					queue = append(queue, u)
				}
				if d[u] == d[v]+1 {
					sg[u] += sg[v]
				}
			}
		}
		dist[s] = d
		sigma[s] = sg
	}
	cent := make([]float64, n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t || dist[s][t] < 0 {
				continue
			}
			for v := 0; v < n; v++ {
				if v == s || v == t || dist[s][v] < 0 || dist[v][t] < 0 {
					continue
				}
				if dist[s][v]+dist[v][t] == dist[s][t] {
					cent[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
				}
			}
		}
	}
	return cent
}

// pageRankPullRun is the reusable state of one pageRankPull execution
// (see bfsFrontierRun).
type pageRankPullRun struct {
	g       *graph.CSR
	in      *graph.CSR
	threads int
	iters   int
	pr      []float64
	next    []float64
	contrib []float64 // pr[v]/outdeg(v), published per iteration

	rPR, rNext, rCon, rOff, rTgt exec.Region
	bar                          exec.Barrier
	body                         func(exec.Ctx)
	res                          PageRankResult
}

// pageRankPull runs PageRank in pull form: each vertex sums the
// published contributions of its in-neighbors (read off the cached
// transpose, graph.CSR.InCSR) and writes only its own entry, eliminating
// the per-edge atomic locks of the paper's push formulation. It computes
// exactly the same Equation (1) iteration — rank flows along out-edges,
// so the puller must read sources of in-edges — and serves as the
// software-level answer to the lock bottleneck the paper characterizes.
// On directed graphs this now matches PageRankRef exactly; earlier
// revisions pulled over the out-CSR, which was only correct for the
// symmetric generator graphs. A canceled run ends at its next barrier.
func pageRankPull(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads, iters int, s *Scratch) (*PageRankResult, error) {
	if err := validate(g, 0, threads); err != nil {
		return nil, err
	}
	if iters < 1 {
		iters = 1
	}
	n := g.N
	k := s.pageRankPull()
	k.g = g
	k.in = g.InCSR()
	k.threads = threads
	k.iters = iters
	k.pr = growF64(k.pr, n, s.DetachResults)
	k.next = growF64(k.next, n, false)
	k.contrib = growF64(k.contrib, n, false)
	for i := range k.pr {
		k.pr[i] = 1 / float64(n)
	}
	k.rPR = pl.Alloc("prp.ranks", n, 8)
	k.rNext = pl.Alloc("prp.next", n, 8)
	k.rCon = pl.Alloc("prp.contrib", n, 8)
	k.rOff = pl.Alloc("prp.inoffsets", n+1, 8)
	k.rTgt = pl.Alloc("prp.intargets", k.in.M(), 4)
	k.bar = s.barrierFor(pl, threads)
	if k.body == nil {
		k.body = k.run
	}

	rep, err := s.run(goCtx, pl, threads, k.body)
	if err != nil {
		return nil, err
	}

	res, ranks := &k.res, k.pr
	if s.DetachResults {
		res, k.pr = &PageRankResult{}, nil // the payload leaves with the result
	}
	*res = PageRankResult{Ranks: ranks, Iterations: iters, Report: rep}
	return res, nil
}

func (k *pageRankPullRun) run(ctx exec.Ctx) {
	g, in, pr, next, contrib := k.g, k.in, k.pr, k.next, k.contrib
	threads, iters, n := k.threads, k.iters, k.g.N
	rPR, rNext, rCon, rOff, rTgt, bar := k.rPR, k.rNext, k.rCon, k.rOff, k.rTgt, k.bar
	tid := ctx.TID()
	lo, hi := chunk(tid, threads, n)
	for it := 0; it < iters; it++ {
		// Publish contributions for this iteration. The divisor is
		// the out-degree of the contributor, from the forward graph.
		for v := lo; v < hi; v++ {
			ctx.Load(rPR.At(v))
			if d := g.Degree(v); d > 0 {
				contrib[v] = pr[v] / float64(d)
			} else {
				contrib[v] = 0
			}
			ctx.Compute(1)
			ctx.Store(rCon.At(v))
		}
		ctx.Barrier(bar)
		// Pull: sum in-neighbor contributions, no locks.
		ctx.Active(hi - lo)
		for v := lo; v < hi; v++ {
			sum := 0.0
			ctx.Load(rOff.At(v))
			ts, _ := in.Neighbors(v)
			ctx.LoadSpan(rTgt.At(int(in.Offsets[v])), len(ts), 4)
			ctx.LoadGather(rCon, ts, 1)
			for _, u := range ts {
				sum += contrib[u]
			}
			next[v] = DampingR + (1-DampingR)*sum
			ctx.Store(rNext.At(v))
			ctx.Active(-1)
		}
		ctx.Barrier(bar)
		for v := lo; v < hi; v++ {
			pr[v] = next[v]
			ctx.Load(rNext.At(v))
			ctx.Store(rPR.At(v))
		}
		ctx.Barrier(bar)
	}
}
