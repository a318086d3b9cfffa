package core

import (
	"context"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// CommunityFrontier runs the COMM benchmark with the frontier strategy:
// the same bounded single-level Louvain move rule as Community, but over
// a worklist of active vertices instead of full sweeps. All vertices are
// seeded active; when a vertex moves, it and its neighbors are
// re-enqueued (deduplicated by a mark flag) because their best community
// may have changed. Rounds end when no vertex is active or after
// maxPasses rounds. Unlike the scan kernel there is no per-pass
// modularity-plateau test — the shrinking worklist plays that role — so
// the two strategies can settle on different (both valid) partitions;
// the reported Modularity is computed from the final assignment either
// way.
func CommunityFrontier(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads, maxPasses int) (*CommunityResult, error) {
	if err := validate(g, 0, threads); err != nil {
		return nil, err
	}
	n := g.N
	k := &communityFrontierRun{comm: make([]int32, n), mark: make([]int32, n)}
	for v := 0; v < n; v++ {
		k.comm[v] = int32(v)
		k.mark[v] = 1
	}
	k.wl.resetIota(threads, n)
	return k.execute(goCtx, pl, g, threads, maxPasses)
}

// communityFrontierRun is the state of one CommunityFrontier execution.
type communityFrontierRun struct {
	g         *graph.CSR
	threads   int
	maxPasses int
	comm      []int32
	kdeg      []int64 // weighted degree per vertex
	ktot      []int64 // total weighted degree per community
	m2        float64
	mark      []int32 // 1 while the vertex sits in a buffer or the worklist
	wl        worklist
	passes    int

	rComm, rKtot, rOff, rTgt, rWgt, rMark, rFront exec.Region
	locks                                         []exec.Lock
	bar                                           exec.Barrier
}

// execute runs the move rounds from the state the caller seeded: k.comm
// is the starting assignment (every id in [0,n)) and k.wl (mirrored by
// k.mark) the active vertices. A full run seeds singletons with every
// vertex active; a repair seeds the previous assignment and the delta's
// neighborhood (CommunityIncremental). Degree totals are O(n+m) sums,
// rebuilt here from the graph either way.
func (k *communityFrontierRun) execute(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads, maxPasses int) (*CommunityResult, error) {
	if maxPasses < 1 {
		maxPasses = 1
	}
	n := g.N
	k.g, k.threads, k.maxPasses = g, threads, maxPasses
	k.kdeg = make([]int64, n)
	k.ktot = make([]int64, n)
	var m2i int64
	for v := 0; v < n; v++ {
		_, ws := g.Neighbors(v)
		for _, w := range ws {
			k.kdeg[v] += int64(w)
		}
		k.ktot[k.comm[v]] += k.kdeg[v]
		m2i += k.kdeg[v]
	}
	if m2i == 0 {
		rep, err := pl.RunCtx(goCtx, threads, func(exec.Ctx) {})
		if err != nil {
			return nil, err
		}
		return communityResultFromComm(g, k.comm, 0, rep), nil
	}
	k.m2 = float64(m2i)

	k.rComm = pl.Alloc("commf.community", n, 4)
	k.rKtot = pl.Alloc("commf.ktot", n, 8)
	k.rOff = pl.Alloc("commf.offsets", n+1, 8)
	k.rTgt = pl.Alloc("commf.targets", g.M(), 4)
	k.rWgt = pl.Alloc("commf.weights", g.M(), 4)
	k.rMark = pl.Alloc("commf.mark", n, 4)
	k.rFront = pl.Alloc("commf.frontier", n, 4)
	k.locks = exec.NewLocks(pl, n)
	k.bar = pl.NewBarrier(threads)

	rep, err := pl.RunCtx(goCtx, threads, k.run)
	if err != nil {
		return nil, err
	}
	return communityResultFromComm(g, k.comm, k.passes, rep), nil
}

// communityResultFromComm derives the summary fields from a final
// assignment: Modularity is always recomputed from it.
func communityResultFromComm(g *graph.CSR, comm []int32, passes int, rep *exec.Report) *CommunityResult {
	seen := make(map[int32]bool)
	for _, c := range comm {
		seen[c] = true
	}
	return &CommunityResult{
		Community:   comm,
		Communities: len(seen),
		Modularity:  Modularity(g, comm),
		Passes:      passes,
		Report:      rep,
	}
}

func (k *communityFrontierRun) run(ctx exec.Ctx) {
	g, comm, kdeg, ktot, m2, mark, wl, threads := k.g, k.comm, k.kdeg, k.ktot, k.m2, k.mark, &k.wl, k.threads
	rComm, rKtot, rOff, rTgt, rWgt, rMark, rFront := k.rComm, k.rKtot, k.rOff, k.rTgt, k.rWgt, k.rMark, k.rFront
	locks, bar := k.locks, k.bar
	tid := ctx.TID()
	decide := func(total int) int32 {
		k.passes++ // the sweep that just ran
		if total == 0 || k.passes >= k.maxPasses {
			return ctrlDone
		}
		return ctrlContinue
	}
	// Neighboring-community weights, with keys kept in a slice in
	// discovery order: map iteration order is randomized, and the
	// annotation sequence (and gain tie-breaks) below must be
	// deterministic for the simulator.
	nbrW := make(map[int32]int64, 16)
	nbrC := make([]int32, 0, 16)
	for {
		f := wl.frontier()
		lo, hi := chunk(tid, threads, len(f))
		ctx.LoadSpan(rFront.At(lo), hi-lo, 4)
		found := 0
		for i := lo; i < hi; i++ {
			v := int(f[i])
			atomic.StoreInt32(&mark[v], 0)
			ctx.AtomicStore(rMark.At(v))
			ctx.AtomicLoad(rComm.At(v))
			cur := atomic.LoadInt32(&comm[v])
			// Gather edge weight from v to each neighboring
			// community. The worklist dedup guarantees a single
			// mover per vertex per round, matching the scan
			// kernel's static-ownership guarantee.
			clear(nbrW)
			nbrC = nbrC[:0]
			ctx.Load(rOff.At(v))
			ts, ws := g.Neighbors(v)
			ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
			ctx.LoadSpan(rWgt.At(int(g.Offsets[v])), len(ts), 4)
			for e, u := range ts {
				ctx.AtomicLoad(rComm.At(int(u)))
				ctx.Compute(1)
				cu := atomic.LoadInt32(&comm[u])
				if _, seen := nbrW[cu]; !seen {
					nbrC = append(nbrC, cu)
				}
				nbrW[cu] += int64(ws[e])
			}
			// Same bounded-heuristic gain rule as Community: totals
			// are read without holding their locks.
			kv := float64(kdeg[v])
			ctx.AtomicLoad(rKtot.At(int(cur)))
			stay := float64(nbrW[cur]) - float64(atomic.LoadInt64(&ktot[cur])-kdeg[v])*kv/m2
			best, bestGain := cur, stay
			for _, c := range nbrC {
				if c == cur {
					continue
				}
				ctx.AtomicLoad(rKtot.At(int(c)))
				ctx.Compute(2)
				gain := float64(nbrW[c]) - float64(atomic.LoadInt64(&ktot[c]))*kv/m2
				if gain > bestGain+communityEps {
					best, bestGain = c, gain
				}
			}
			if best != cur {
				a, b := cur, best
				if a > b {
					a, b = b, a
				}
				ctx.Lock(locks[a])
				ctx.Lock(locks[b])
				ctx.AtomicLoad(rKtot.At(int(cur)))
				ctx.AtomicLoad(rKtot.At(int(best)))
				atomic.AddInt64(&ktot[cur], -kdeg[v])
				atomic.AddInt64(&ktot[best], kdeg[v])
				ctx.AtomicRMW(rKtot.At(int(cur)))
				ctx.AtomicRMW(rKtot.At(int(best)))
				atomic.StoreInt32(&comm[v], best)
				ctx.AtomicStore(rComm.At(v))
				ctx.Unlock(locks[b])
				ctx.Unlock(locks[a])
				// The move changes the landscape for v and its
				// neighborhood: re-enqueue whoever is not already
				// queued.
				if atomic.CompareAndSwapInt32(&mark[v], 0, 1) {
					ctx.AtomicRMW(rMark.At(v))
					found++
					wl.push(tid, int32(v))
				}
				for _, u := range ts {
					if atomic.CompareAndSwapInt32(&mark[u], 0, 1) {
						ctx.AtomicRMW(rMark.At(int(u)))
						found++
						wl.push(tid, u)
					}
				}
			}
		}
		ctx.Active(found - (hi - lo))
		if wl.endRound(ctx, bar, rFront, decide) != ctrlContinue {
			return
		}
	}
}
