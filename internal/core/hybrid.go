package core

import (
	"context"
	"sort"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// This file implements the hybrid execution strategy (StrategyHybrid):
// the GAP/GBBS playbook layered on the frontier worklist machinery of
// frontier.go.
//
//   - BFSHybrid is Beamer-style direction-optimizing BFS: push rounds
//     run exactly like BFSFrontier; when the frontier grows dense the
//     round flips to a bottom-up pull over the in-CSR (graph.CSR.InCSR),
//     where each unvisited vertex probes its in-neighbors for a parent
//     and stops at the first hit instead of the push side's exhaustive
//     out-edge scan.
//   - ComponentsAfforest is Shiloach-Vishkin-style lock-free union-find
//     with Afforest's sampled short-circuit: link a constant number of
//     neighbors per vertex, identify the (almost certainly giant)
//     most-frequent component from a sample, then finish linking only
//     the vertices outside it.
//
// BFSHybrid ends its rounds through worklist.endRound, ComponentsAfforest
// polls at its phase barriers, and both produce results bit-identical to the
// scan kernels' oracles: BFS levels are fully determined by the
// level-synchronous structure, and min-hooking union-find converges to
// the minimum vertex id of each component regardless of schedule.
//
// The strategy's third member, the pull-based PageRank over the in-CSR,
// lives in variants.go (PageRankPull) and is dispatched here via Suite.

// Direction-switch thresholds, from Beamer et al.'s direction-optimizing
// BFS as tuned in the GAP benchmark suite. Thread 0 decides at the end
// of the round, where it already sees the merged frontier:
// switch push->pull when the edges incident to the next frontier exceed
// 1/HybridAlpha of the edges incident to still-unexplored vertices
// (an exhaustive push scan would touch more edges than a pull probe is
// likely to); switch pull->push when the frontier shrinks below
// n/HybridBeta vertices (a pull round's O(n) vertex sweep stops paying).
const (
	HybridAlpha = 14
	HybridBeta  = 24
)

// round directions published by thread 0 alongside the ctrl word.
const (
	dirPush int32 = iota
	dirPull
)

// BFSHybrid runs direction-optimizing breadth-first search: push rounds
// process the compact worklist with CAS claims (identical to
// BFSFrontier); dense rounds flip to a bottom-up pull over the in-CSR in
// which every unvisited vertex scans its in-neighbors for one on the
// current level and claims itself on the first hit. Discoveries are
// pushed to the worklist in both directions, so the frontier, the
// switch statistics and the endRound cancellation discipline stay
// exact across flips. Levels are identical to BFS's and BFSRef's —
// the level-synchronous structure fully determines them.
func BFSHybrid(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int) (*BFSResult, error) {
	if err := validate(g, src, threads); err != nil {
		return nil, err
	}
	n := g.N
	in := g.InCSR() // pull rounds probe in-edges; built lazily, cached on g
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	wl := newWorklist(threads, []int32{int32(src)})
	dir := dirPush

	// Per-thread out-degree sums of this round's discoveries: thread 0
	// folds them at the end of the round into mf (edges incident to the next
	// frontier) and keeps mu (edges incident to unexplored vertices) as a
	// running remainder. Both are heuristic inputs only — they never
	// affect results, just which direction the next round runs.
	frontDeg := make([]int64, threads)
	unexplored := int64(g.M()) - int64(g.Degree(src))

	rLvl := pl.Alloc("bfsh.level", n, 4)
	rOff := pl.Alloc("bfsh.offsets", n+1, 8)
	rTgt := pl.Alloc("bfsh.targets", g.M(), 4)
	rInOff := pl.Alloc("bfsh.inoffsets", n+1, 8)
	rInTgt := pl.Alloc("bfsh.intargets", in.M(), 4)
	rFront := pl.Alloc("bfsh.frontier", n, 4)
	rDeg := pl.Alloc("bfsh.frontdeg", threads, 8)
	bar := pl.NewBarrier(threads)

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		decide := func(total int) int32 {
			mf := int64(0)
			for t := 0; t < threads; t++ {
				ctx.Load(rDeg.At(t))
				mf += frontDeg[t]
			}
			unexplored -= mf
			if total == 0 {
				return ctrlDone
			}
			// Direction decision for the next round, on the GAP
			// thresholds. Hysteresis comes from the two distinct
			// conditions: a dense frontier flips to pull, and only a
			// clearly sparse one flips back.
			next := atomic.LoadInt32(&dir)
			if next == dirPush && mf > unexplored/HybridAlpha {
				next = dirPull
			} else if next == dirPull && int64(total)*HybridBeta < int64(n) {
				next = dirPush
			}
			atomic.StoreInt32(&dir, next)
			return ctrlContinue
		}
		cur := int32(0)
		for {
			found := 0
			deg := int64(0)
			if atomic.LoadInt32(&dir) == dirPush {
				// Push round: explore the worklist's out-edges, exactly
				// like BFSFrontier.
				f := wl.frontier()
				lo, hi := chunk(tid, threads, len(f))
				ctx.LoadSpan(rFront.At(lo), hi-lo, 4)
				for i := lo; i < hi; i++ {
					v := int(f[i])
					ctx.Load(rOff.At(v))
					ts, _ := g.Neighbors(v)
					ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
					for _, u := range ts {
						ctx.AtomicLoad(rLvl.At(int(u)))
						ctx.Compute(1)
						if atomic.LoadInt32(&level[u]) != -1 {
							continue
						}
						if atomic.CompareAndSwapInt32(&level[u], -1, cur+1) {
							ctx.AtomicRMW(rLvl.At(int(u)))
							found++
							deg += int64(g.Degree(int(u)))
							wl.push(tid, u)
						}
					}
				}
				ctx.Active(found - (hi - lo))
			} else {
				// Pull round: every unvisited vertex in my static chunk
				// probes its in-neighbors for a parent on the current
				// level, stopping at the first hit. My chunk is mine
				// alone, so the level store needs no CAS — but it stays
				// atomic because other threads' probes read it.
				flo, fhi := chunk(tid, threads, len(wl.frontier()))
				lo, hi := chunk(tid, threads, n)
				for v := lo; v < hi; v++ {
					ctx.AtomicLoad(rLvl.At(v))
					ctx.Compute(1)
					if atomic.LoadInt32(&level[v]) != -1 {
						continue
					}
					ctx.Load(rInOff.At(v))
					ts, _ := in.Neighbors(v)
					for j, u := range ts {
						ctx.Load(rInTgt.At(int(in.Offsets[v]) + j))
						ctx.AtomicLoad(rLvl.At(int(u)))
						ctx.Compute(1)
						if atomic.LoadInt32(&level[u]) == cur {
							atomic.StoreInt32(&level[v], cur+1)
							ctx.AtomicStore(rLvl.At(v))
							found++
							deg += int64(g.Degree(v))
							wl.push(tid, int32(v))
							break
						}
					}
				}
				ctx.Active(found - (fhi - flo))
			}
			frontDeg[tid] = deg
			ctx.Store(rDeg.At(tid))
			if wl.endRound(ctx, bar, rFront, decide) != ctrlContinue {
				return
			}
			cur++
		}
	})
	if err != nil {
		return nil, err
	}
	visited, levels := bfsSummary(level)
	return &BFSResult{Level: level, Visited: visited, Levels: levels, Report: rep}, nil
}

// Afforest tuning constants: the number of per-vertex neighbor links in
// the subgraph-sampling phase and the number of vertices sampled to
// identify the giant component, per Sutton et al.'s Afforest.
const (
	afforestNeighborRounds = 2
	afforestSampleSize     = 1024
)

// ComponentsAfforest runs connected components as lock-free union-find
// with Afforest's sampled short-circuit. Phase 1 links the first
// afforestNeighborRounds out-edges of every vertex — enough to capture
// the giant component on real-world degree distributions. Thread 0 then
// samples vertex roots at a fixed stride and picks the most frequent
// component. Phase 2 finishes only the vertices outside it, linking
// their remaining out-edges and all their in-edges (via the cached
// transpose), so edges whose tail landed in the giant component are
// still observed from the other endpoint on directed inputs. Hooking
// always points the larger root at the smaller, so after final
// compression every label is the minimum vertex id of its component —
// bit-identical to ConnectedComponents and ComponentsRef.
func ComponentsAfforest(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int) (*ComponentsResult, error) {
	if err := validate(g, 0, threads); err != nil {
		return nil, err
	}
	n := g.N
	in := g.InCSR()
	parent := make([]int32, n)
	sample := make([]int32, 0, afforestSampleSize)
	giant := int32(-1)

	rPar := pl.Alloc("ccaf.parent", n, 4)
	rOff := pl.Alloc("ccaf.offsets", n+1, 8)
	rTgt := pl.Alloc("ccaf.targets", g.M(), 4)
	rInOff := pl.Alloc("ccaf.inoffsets", n+1, 8)
	rInTgt := pl.Alloc("ccaf.intargets", in.M(), 4)
	bar := pl.NewBarrier(threads)

	// findRoot chases parent pointers with path halving. Halving stores
	// are benign races (they rewrite a pointer to one of its ancestors,
	// which is always a valid, smaller id) but stay atomic for soundness.
	findRoot := func(ctx exec.Ctx, x int32) int32 {
		for {
			ctx.AtomicLoad(rPar.At(int(x)))
			p := atomic.LoadInt32(&parent[x])
			if p == x {
				return x
			}
			ctx.AtomicLoad(rPar.At(int(p)))
			gp := atomic.LoadInt32(&parent[p])
			if gp != p {
				atomic.StoreInt32(&parent[x], gp)
				ctx.AtomicStore(rPar.At(int(x)))
			}
			x = p
		}
	}
	// link unites the components of a and b by hooking the larger root
	// under the smaller. Only roots are hooked and only onto smaller
	// ids, so the minimum vertex of a component is never displaced —
	// that is what pins the final labels to the oracle's.
	link := func(ctx exec.Ctx, a, b int32) {
		for {
			p, q := findRoot(ctx, a), findRoot(ctx, b)
			if p == q {
				return
			}
			if p > q {
				p, q = q, p
			}
			ctx.Compute(1)
			if atomic.CompareAndSwapInt32(&parent[q], q, p) {
				ctx.AtomicRMW(rPar.At(int(q)))
				return
			}
		}
	}

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo, hi := chunk(tid, threads, n)
		for v := lo; v < hi; v++ {
			parent[v] = int32(v)
			ctx.Store(rPar.At(v))
		}
		ctx.Barrier(bar)
		// Phase 1: neighbor rounds — link the r-th out-edge of every
		// vertex, one round per r so contention stays spread out.
		for r := 0; r < afforestNeighborRounds; r++ {
			if ctx.Checkpoint() != nil {
				return
			}
			ctx.Active(hi - lo)
			for v := lo; v < hi; v++ {
				ctx.Load(rOff.At(v))
				if g.Degree(v) > r {
					ctx.Load(rTgt.At(int(g.Offsets[v]) + r))
					link(ctx, int32(v), g.Targets[g.Offsets[v]+int64(r)])
				}
				ctx.Active(-1)
			}
			ctx.Barrier(bar)
		}
		// Compress so the sample reads near-final roots cheaply.
		for v := lo; v < hi; v++ {
			findRoot(ctx, int32(v))
		}
		ctx.Barrier(bar)
		if tid == 0 {
			// Sample at a fixed stride (deterministic — no RNG feeds the
			// annotation stream) and take the most frequent root.
			stride := n / afforestSampleSize
			if stride < 1 {
				stride = 1
			}
			sample = sample[:0]
			for v := 0; v < n && len(sample) < afforestSampleSize; v += stride {
				sample = append(sample, findRoot(ctx, int32(v)))
			}
			sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
			best, bestLen, runLen := sample[0], 1, 1
			for i := 1; i < len(sample); i++ {
				if sample[i] == sample[i-1] {
					runLen++
				} else {
					runLen = 1
				}
				if runLen > bestLen {
					best, bestLen = sample[i], runLen
				}
			}
			atomic.StoreInt32(&giant, best)
		}
		ctx.Barrier(bar)
		if ctx.Checkpoint() != nil {
			return
		}
		// Phase 2: finish vertices outside the sampled giant component.
		// Their remaining out-edges plus all in-edges cover every edge
		// the skip could otherwise lose on directed inputs.
		skip := atomic.LoadInt32(&giant)
		ctx.Active(hi - lo)
		for v := lo; v < hi; v++ {
			if findRoot(ctx, int32(v)) != skip {
				ctx.Load(rOff.At(v))
				ts, _ := g.Neighbors(v)
				for j := afforestNeighborRounds; j < len(ts); j++ {
					ctx.Load(rTgt.At(int(g.Offsets[v]) + j))
					link(ctx, int32(v), ts[j])
				}
				ctx.Load(rInOff.At(v))
				its, _ := in.Neighbors(v)
				ctx.LoadSpan(rInTgt.At(int(in.Offsets[v])), len(its), 4)
				for _, u := range its {
					link(ctx, int32(v), u)
				}
			}
			ctx.Active(-1)
		}
		ctx.Barrier(bar)
		if ctx.Checkpoint() != nil {
			return
		}
		// Final compression: every label becomes its component's root,
		// which min-hooking guarantees is the minimum vertex id.
		for v := lo; v < hi; v++ {
			root := findRoot(ctx, int32(v))
			atomic.StoreInt32(&parent[v], root)
			ctx.AtomicStore(rPar.At(v))
		}
	})
	if err != nil {
		return nil, err
	}

	return &ComponentsResult{
		Labels:     parent,
		Components: countRoots(parent),
		// Link phases executed: the neighbor rounds plus the finish pass.
		Iterations: afforestNeighborRounds + 1,
		Report:     rep,
	}, nil
}
