package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// DefaultSSSPDelta is the delta-stepping band width Request.WithDefaults
// applies when none is given; it matches the sweet spot of the
// delta-ablation experiment.
const DefaultSSSPDelta = 32

// AutoSSSPDelta derives a delta-stepping band width from the graph
// itself: average edge weight times average degree, the classic
// heuristic for balancing band population against wasted re-relaxation
// (a band should admit roughly one hop's worth of distance progress).
// Weights are sampled on an even stride capped at 1024 edges so the
// estimate costs O(1) on large graphs. Falls back to DefaultSSSPDelta
// for edgeless graphs or degenerate estimates.
func AutoSSSPDelta(g *graph.CSR) int32 {
	if g == nil || g.M() == 0 || g.N == 0 {
		return DefaultSSSPDelta
	}
	m := g.M()
	samples := m
	if samples > 1024 {
		samples = 1024
	}
	stride := m / samples
	var sum int64
	for i := 0; i < samples; i++ {
		sum += int64(g.Weights[i*stride])
	}
	avgW := float64(sum) / float64(samples)
	avgDeg := float64(m) / float64(g.N)
	d := int64(avgW * avgDeg)
	if d < 1 {
		return 1
	}
	if d > int64(graph.Inf)/4 {
		return graph.Inf / 4
	}
	return int32(d)
}

// This file contains kernel variants beyond the paper's Table I set.
// They exist for the design-space questions the paper raises: how much of
// SSSP's synchronization wall is the strict pareto-front discipline
// (SSSPDelta), how much of PageRank's lock cost is the push formulation
// (PageRankPull), what a search-shaped BFS looks like (BFSTarget), and an
// exact Brandes betweenness for unweighted graphs (BetweennessBrandes).

// SSSPDelta runs delta-stepping single-source shortest paths: pareto
// fronts widen to distance bands of width delta, trading extra
// relaxations for far fewer barrier-synchronized rounds. delta=1 with
// integer weights degenerates to (a band-exact variant of) the paper's
// SSSP_DIJK; larger deltas relax the synchronization wall that caps
// SSSP_DIJK at high thread counts. A canceled run ends at its next barrier.
func SSSPDelta(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int, delta int32) (*SSSPResult, error) {
	if err := validate(g, src, threads); err != nil {
		return nil, err
	}
	if delta < 1 {
		return nil, fmt.Errorf("core: delta %d < 1", delta)
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
	changed := make([]int32, threads)
	relax := make([]int64, threads)
	rounds := 0
	bandEnd := int32(0) // exclusive upper bound of the current band
	phase := int32(0)   // 0: keep sweeping band, 1: advance band, 2: done

	rDist := pl.Alloc("dsssp.dist", n, 4)
	rOff := pl.Alloc("dsssp.offsets", n+1, 8)
	rTgt := pl.Alloc("dsssp.targets", g.M(), 4)
	rWgt := pl.Alloc("dsssp.weights", g.M(), 4)
	rExist := pl.Alloc("dsssp.exist", n, 4)
	rMins := pl.Alloc("dsssp.mins", threads, 4)
	locks := exec.NewLocks(pl, n)
	bar := pl.NewBarrier(threads)

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo, hi := chunk(tid, threads, n)
		for {
			// Find the next band start among marked vertices.
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
				gmin := graph.Inf
				for t := 0; t < threads; t++ {
					ctx.Load(rMins.At(t))
					if mins[t] < gmin {
						gmin = mins[t]
					}
				}
				if gmin >= graph.Inf {
					atomic.StoreInt32(&phase, 2)
				} else {
					atomic.StoreInt32(&bandEnd, gmin+delta)
					atomic.StoreInt32(&phase, 0)
				}
			}
			ctx.Barrier(bar)
			if atomic.LoadInt32(&phase) == 2 {
				return
			}
			end := atomic.LoadInt32(&bandEnd)
			// Sweep the band to a fixed point: relaxations may re-mark
			// vertices inside the band.
			for {
				changed[tid] = 0
				if tid == 0 {
					rounds++
				}
				for v := lo; v < hi; v++ {
					ctx.AtomicLoad(rExist.At(v))
					ctx.Compute(1)
					if atomic.LoadInt32(&exist[v]) == 0 {
						continue
					}
					ctx.AtomicLoad(rDist.At(v))
					dv := atomic.LoadInt32(&dist[v])
					if dv >= end {
						continue
					}
					atomic.StoreInt32(&exist[v], 0)
					ctx.AtomicStore(rExist.At(v))
					ctx.Active(-1)
					ctx.Load(rOff.At(v))
					ts, ws := g.Neighbors(v)
					ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
					ctx.LoadSpan(rWgt.At(int(g.Offsets[v])), len(ts), 4)
					for e, u := range ts {
						nd := dv + ws[e]
						ctx.AtomicLoad(rDist.At(int(u)))
						ctx.Compute(1)
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
								ctx.Active(1)
							}
							ctx.AtomicRMW(rExist.At(int(u)))
							if nd < end {
								changed[tid] = 1
							}
						}
						ctx.Unlock(locks[u])
					}
				}
				ctx.Store(rMins.At(tid))
				ctx.Barrier(bar)
				if tid == 0 {
					any := int32(0)
					for t := 0; t < threads; t++ {
						any |= changed[t]
					}
					atomic.StoreInt32(&phase, 1-any)
				}
				ctx.Barrier(bar)
				if atomic.LoadInt32(&phase) == 1 {
					break
				}
			}
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

// BFSTargetResult carries the output of a targeted breadth-first search.
type BFSTargetResult struct {
	// Found reports whether the target was reached.
	Found bool
	// Level is the target's BFS level from the source, -1 if unreached.
	Level int32
	// Explored counts the vertices assigned levels before termination.
	Explored int
	// Report is the platform run report.
	Report *exec.Report
}

// BFSTarget searches for a target vertex as the paper's Section III-4
// describes BFS ("the algorithm searches for a target vertex"): a
// level-synchronous sweep that stops at the level where the target is
// claimed. A canceled run ends at its next barrier.
func BFSTarget(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, target, threads int) (*BFSTargetResult, error) {
	if err := validate(g, src, threads); err != nil {
		return nil, err
	}
	if target < 0 || target >= g.N {
		return nil, fmt.Errorf("core: target %d out of range [0,%d)", target, g.N)
	}
	n := g.N
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	changed := make([]int32, threads)
	done := int32(0)

	rLvl := pl.Alloc("bfst.level", n, 4)
	rOff := pl.Alloc("bfst.offsets", n+1, 8)
	rTgt := pl.Alloc("bfst.targets", g.M(), 4)
	rChg := pl.Alloc("bfst.changed", threads, 4)
	locks := exec.NewLocks(pl, n)
	bar := pl.NewBarrier(threads)

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo, hi := chunk(tid, threads, n)
		cur := int32(0)
		for {
			changed[tid] = 0
			for v := lo; v < hi; v++ {
				ctx.AtomicLoad(rLvl.At(v))
				ctx.Compute(1)
				if atomic.LoadInt32(&level[v]) != cur {
					continue
				}
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
						ctx.Active(1)
						changed[tid] = 1
					}
					ctx.Unlock(locks[u])
				}
				ctx.Active(-1)
			}
			ctx.Store(rChg.At(tid))
			ctx.Barrier(bar)
			if tid == 0 {
				any := int32(0)
				for t := 0; t < threads; t++ {
					ctx.Load(rChg.At(t))
					any |= changed[t]
				}
				stop := int32(0)
				// Early exit: the target has a level assigned.
				if any == 0 || atomic.LoadInt32(&level[target]) >= 0 {
					stop = 1
				}
				atomic.StoreInt32(&done, stop)
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

	explored := 0
	for _, l := range level {
		if l >= 0 {
			explored++
		}
	}
	lv := level[target]
	return &BFSTargetResult{Found: lv >= 0, Level: lv, Explored: explored, Report: rep}, nil
}

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

// PageRankPull runs PageRank in pull form: each vertex sums the
// published contributions of its in-neighbors (read off the cached
// transpose, graph.CSR.InCSR) and writes only its own entry, eliminating
// the per-edge atomic locks of the paper's push formulation. It computes
// exactly the same Equation (1) iteration — rank flows along out-edges,
// so the puller must read sources of in-edges — and serves as the
// software-level answer to the lock bottleneck the paper characterizes.
// On directed graphs this now matches PageRankRef exactly; earlier
// revisions pulled over the out-CSR, which was only correct for the
// symmetric generator graphs. A canceled run ends at its next barrier.
func PageRankPull(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads, iters int) (*PageRankResult, error) {
	return pageRankPull(goCtx, pl, g, threads, iters, nil)
}

// pageRankPullRun is the reusable state of one PageRankPull execution
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

// pageRankPull is PageRankPull with an optional scratch workspace.
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
	k.pr = growF64(k.pr, n, s.detached())
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
	if s.detached() {
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
