package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// SSSPFrontier runs single-source shortest paths with the frontier
// strategy: delta-stepping-style bucketed fronts over a compact worklist
// of marked vertices. Each outer round opens a distance band
// [gmin, gmin+delta); inner sweeps settle worklist members inside the
// band to a fixed point (relaxations may re-mark vertices in the band),
// while members beyond the band are carried in the worklist — never
// rescanned from the full vertex range, which is what makes this
// strategy win on road-class graphs where SSSP's scan formulation pays
// O(n) per pareto front. Distances are exact, matching SSSP and
// SSSPRef; only the schedule differs.
func SSSPFrontier(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int, delta int32) (*SSSPResult, error) {
	return ssspFrontier(goCtx, pl, g, src, threads, delta, nil)
}

// fallbackDelta is AutoSSSPDelta's band width for a graph with no
// edges to sample.
const fallbackDelta = 32

// AutoSSSPDelta is the band width SSSP_DIJK's frontier strategy uses
// when Request.Delta is unset: average edge weight times average degree,
// the classic heuristic for balancing band population against wasted
// re-relaxation (a band should admit roughly one hop's worth of distance
// progress). Weights are sampled on an even stride capped at 1024 edges
// so the estimate costs O(1) on large graphs.
func AutoSSSPDelta(g *graph.CSR) int32 {
	if g == nil || g.M() == 0 || g.N == 0 {
		return fallbackDelta
	}
	m := g.M()
	samples := m
	if samples > 1024 {
		samples = 1024
	}
	stride := m / samples
	var sum int64
	for i := 0; i < samples; i++ {
		sum += int64(g.Weight(i * stride))
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

// ssspFrontierRun is the reusable state of one SSSPFrontier execution
// (see bfsFrontierRun).
type ssspFrontierRun struct {
	g       *graph.CSR
	threads int
	delta   int32
	dist    []int32
	exist   []int32 // 1 while the vertex is marked (in the worklist)
	mins    []int32
	changed []int32
	relax   []int64
	wl      worklist
	ctrl    int32
	rounds  int
	bandEnd int32

	rDist, rOff, rTgt, rWgt, rExist, rMins, rChg, rFront exec.Region
	bar                                                  exec.Barrier
	body                                                 func(exec.Ctx)
	res                                                  SSSPResult
}

// ssspFrontier is SSSPFrontier with an optional scratch workspace.
func ssspFrontier(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int, delta int32, s *Scratch) (*SSSPResult, error) {
	if err := validate(g, src, threads); err != nil {
		return nil, err
	}
	if delta < 1 {
		return nil, fmt.Errorf("core: delta %d < 1", delta)
	}
	n := g.N
	k := s.ssspFrontier()
	k.g = g
	k.threads = threads
	k.delta = delta
	k.dist = grow32(k.dist, n, s.detached())
	for i := range k.dist {
		k.dist[i] = graph.Inf
	}
	k.dist[src] = 0
	k.exist = grow32(k.exist, n, false)
	for i := range k.exist {
		k.exist[i] = 0
	}
	k.exist[src] = 1
	k.mins = grow32(k.mins, threads, false)
	k.changed = grow32(k.changed, threads, false)
	k.relax = grow64(k.relax, threads, false)
	for t := 0; t < threads; t++ {
		k.relax[t] = 0
	}
	k.rounds = 0
	k.bandEnd = 0
	k.ctrl = ctrlContinue
	k.wl.reset(threads, int32(src))
	k.rDist = pl.Alloc("ssspf.dist", n, 4)
	k.rOff = pl.Alloc("ssspf.offsets", n+1, 8)
	k.rTgt = pl.Alloc("ssspf.targets", g.M(), 4)
	k.rWgt = pl.Alloc("ssspf.weights", g.M(), 4)
	k.rExist = pl.Alloc("ssspf.exist", n, 4)
	k.rMins = pl.Alloc("ssspf.mins", threads, 4)
	k.rChg = pl.Alloc("ssspf.changed", threads, 4)
	k.rFront = pl.Alloc("ssspf.frontier", n, 4)
	k.bar = s.barrierFor(pl, threads)
	if k.body == nil {
		k.body = k.run
	}

	rep, err := s.run(goCtx, pl, threads, k.body)
	if err != nil {
		return nil, err
	}

	var total int64
	for _, r := range k.relax {
		total += r
	}
	res, dist := &k.res, k.dist
	if s.detached() {
		res, k.dist = &SSSPResult{}, nil // the payload leaves with the result
	}
	*res = SSSPResult{Dist: dist, Relaxations: total, Rounds: k.rounds, Report: rep}
	return res, nil
}

func (k *ssspFrontierRun) run(ctx exec.Ctx) {
	g, dist, exist, mins, changed, relax := k.g, k.dist, k.exist, k.mins, k.changed, k.relax
	wl, threads, delta := &k.wl, k.threads, k.delta
	rDist, rOff, rTgt, rWgt := k.rDist, k.rOff, k.rTgt, k.rWgt
	rExist, rMins, rChg, rFront, bar := k.rExist, k.rMins, k.rChg, k.rFront, k.bar
	tid := ctx.TID()
	// Round verdict: sweep the band again while any thread relaxed into
	// it; at the band fixpoint, open the next band.
	decide := func(int) int32 {
		any := int32(0)
		for t := 0; t < threads; t++ {
			ctx.Load(rChg.At(t))
			any |= changed[t]
		}
		if any == 0 {
			return ctrlNewBand
		}
		return ctrlContinue
	}
	newBand := true
	for {
		f := wl.frontier()
		lo, hi := chunk(tid, threads, len(f))
		if newBand {
			// Find the next band start: minimum tentative distance
			// over the worklist (not over all n vertices).
			local := graph.Inf
			ctx.LoadSpan(rFront.At(lo), hi-lo, 4)
			for i := lo; i < hi; i++ {
				v := int(f[i])
				ctx.AtomicLoad(rDist.At(v))
				ctx.Compute(1)
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
				st := ctrlDone
				if gmin < graph.Inf {
					st = ctrlContinue
					k.rounds++
					atomic.StoreInt32(&k.bandEnd, gmin+delta)
				}
				atomic.StoreInt32(&k.ctrl, st)
			}
			ctx.Barrier(bar)
			if atomic.LoadInt32(&k.ctrl) != ctrlContinue {
				return
			}
			newBand = false
		}
		end := atomic.LoadInt32(&k.bandEnd)
		// Band sweep: settle and expand worklist members inside the
		// band; carry the rest to the next round unprocessed.
		changed[tid] = 0
		settled, marked := 0, 0
		ctx.LoadSpan(rFront.At(lo), hi-lo, 4)
		for i := lo; i < hi; i++ {
			v := int(f[i])
			ctx.AtomicLoad(rDist.At(v))
			ctx.Compute(1)
			dv := atomic.LoadInt32(&dist[v])
			if dv >= end {
				wl.push(tid, int32(v))
				continue
			}
			atomic.StoreInt32(&exist[v], 0)
			ctx.AtomicStore(rExist.At(v))
			settled++
			ctx.Load(rOff.At(v))
			ts, ws := g.Neighbors(v)
			ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
			ctx.LoadSpan(rWgt.At(int(g.Offsets[v])), len(ts), 4)
			for e, u := range ts {
				nd := dv + ws[e]
				ctx.AtomicLoad(rDist.At(int(u)))
				ctx.Compute(1)
				// Lock-free CAS-min relaxation replaces the scan
				// kernel's racy-read-then-locked-recheck.
				for {
					old := atomic.LoadInt32(&dist[u])
					if nd >= old {
						break
					}
					if atomic.CompareAndSwapInt32(&dist[u], old, nd) {
						ctx.AtomicRMW(rDist.At(int(u)))
						relax[tid]++
						if atomic.CompareAndSwapInt32(&exist[u], 0, 1) {
							ctx.AtomicRMW(rExist.At(int(u)))
							marked++
							wl.push(tid, u)
						}
						if nd < end {
							changed[tid] = 1
						}
						break
					}
				}
			}
		}
		ctx.Active(marked - settled)
		ctx.Store(rChg.At(tid))
		newBand = wl.endRound(ctx, bar, rFront, decide) == ctrlNewBand
	}
}
