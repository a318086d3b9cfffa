package core

import (
	"context"
	"slices"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// ComponentsResult carries the output of the CONN_COMP benchmark.
type ComponentsResult struct {
	// Labels assigns each vertex the minimum vertex id of its connected
	// component.
	Labels []int32
	// Components is the number of connected components.
	Components int
	// Iterations is the number of label-propagation sweeps executed.
	Iterations int
	// Report is the platform run report.
	Report *exec.Report
}

// ConnectedComponents runs the CONN_COMP benchmark (Section III-7):
// iterative label propagation. Labels are initialized to the vertex id,
// then sweeps statically divided among threads pull the minimum neighbor
// label under per-vertex atomic locks; barriers separate the set and
// update phases, and the algorithm stops when a sweep changes nothing.
// A canceled run ends at its next barrier.
func ConnectedComponents(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int) (*ComponentsResult, error) {
	if err := validate(g, 0, threads); err != nil {
		return nil, err
	}
	n := g.N
	labels := make([]int32, n)
	changed := make([]int32, threads)
	iters := 0

	rLbl := pl.Alloc("cc.labels", n, 4)
	rOff := pl.Alloc("cc.offsets", n+1, 8)
	rTgt := pl.Alloc("cc.targets", g.M(), 4)
	rChg := pl.Alloc("cc.changed", threads, 4)
	locks := exec.NewLocks(pl, n)
	bar := pl.NewBarrier(threads)
	done := int32(0)

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo, hi := chunk(tid, threads, n)
		// Phase 1: initialization sweep.
		for v := lo; v < hi; v++ {
			labels[v] = int32(v)
			ctx.Store(rLbl.At(v))
		}
		ctx.Barrier(bar)
		// Phase 2: propagation sweeps.
		for {
			changed[tid] = 0
			swept := 0
			for v := lo; v < hi; v++ {
				ctx.AtomicLoad(rLbl.At(v))
				m := atomic.LoadInt32(&labels[v])
				ctx.Load(rOff.At(v))
				ts, _ := g.Neighbors(v)
				ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
				for _, u := range ts {
					ctx.AtomicLoad(rLbl.At(int(u)))
					ctx.Compute(1)
					if l := atomic.LoadInt32(&labels[u]); l < m {
						m = l
					}
				}
				if m < atomic.LoadInt32(&labels[v]) {
					ctx.Lock(locks[v])
					ctx.AtomicLoad(rLbl.At(v))
					if m < atomic.LoadInt32(&labels[v]) {
						atomic.StoreInt32(&labels[v], m)
						ctx.AtomicStore(rLbl.At(v))
						changed[tid] = 1
						ctx.Active(1) // label still settling
						swept++
					}
					ctx.Unlock(locks[v])
				}
			}
			ctx.Active(-swept)
			ctx.Store(rChg.At(tid))
			ctx.Barrier(bar)
			// Phase 3: reduction, then continue or stop.
			if tid == 0 {
				iters++
				any := int32(0)
				for t := 0; t < threads; t++ {
					ctx.Load(rChg.At(t))
					any |= changed[t]
				}
				atomic.StoreInt32(&done, 1-any)
			}
			ctx.Barrier(bar)
			if atomic.LoadInt32(&done) == 1 {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}

	seen := make(map[int32]bool)
	for _, l := range labels {
		seen[l] = true
	}
	return &ComponentsResult{Labels: labels, Components: len(seen), Iterations: iters, Report: rep}, nil
}

// Afforest tuning constants: the number of per-vertex neighbor links in
// the subgraph-sampling phase and the number of vertices sampled to
// identify the giant component, per Sutton et al.'s Afforest.
const (
	afforestNeighborRounds = 2
	afforestSampleSize     = 1024
)

// ComponentsFrontier runs connected components with the frontier
// strategy: lock-free union-find with Afforest's sampled short-circuit.
// Phase 1 links the first afforestNeighborRounds out-edges of every
// vertex — enough to capture the giant component on real-world degree
// distributions. Thread 0 then samples vertex roots at a fixed stride and
// picks the most frequent component. Phase 2 finishes only the vertices
// outside it, linking their remaining out-edges and all their in-edges
// (via the cached transpose), so edges whose tail landed in the giant
// component are still observed from the other endpoint on directed
// inputs. Hooking always points the larger root at the smaller, so after
// final compression every label is the minimum vertex id of its
// component — bit-identical to ConnectedComponents and ComponentsRef.
func ComponentsFrontier(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int) (*ComponentsResult, error) {
	return componentsFrontier(goCtx, pl, g, threads, nil)
}

// afforestRun is the reusable state of one ComponentsFrontier execution
// (see bfsFrontierRun).
type afforestRun struct {
	g, in   *graph.CSR
	threads int
	parent  []int32
	sample  []int32
	giant   int32
	hooked  int32 // a repair linked two components (ComponentsIncremental)

	rPar, rOff, rTgt, rInOff, rInTgt exec.Region
	bar                              exec.Barrier
	body                             func(exec.Ctx)
	res                              ComponentsResult
}

// componentsFrontier is ComponentsFrontier with an optional scratch
// workspace.
func componentsFrontier(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int, s *Scratch) (*ComponentsResult, error) {
	if err := validate(g, 0, threads); err != nil {
		return nil, err
	}
	n := g.N
	k := s.afforest()
	k.g, k.in, k.threads = g, g.InCSR(), threads
	k.parent = grow32(k.parent, n, s.detached())
	if cap(k.sample) < afforestSampleSize {
		k.sample = make([]int32, 0, afforestSampleSize)
	}
	k.rPar = pl.Alloc("ccaf.parent", n, 4)
	k.rOff = pl.Alloc("ccaf.offsets", n+1, 8)
	k.rTgt = pl.Alloc("ccaf.targets", g.M(), 4)
	k.rInOff = pl.Alloc("ccaf.inoffsets", n+1, 8)
	k.rInTgt = pl.Alloc("ccaf.intargets", k.in.M(), 4)
	k.bar = s.barrierFor(pl, threads)
	if k.body == nil {
		k.body = k.run
	}

	rep, err := s.run(goCtx, pl, threads, k.body)
	if err != nil {
		return nil, err
	}

	res := &k.res
	if s.detached() {
		res = &ComponentsResult{}
	}
	*res = ComponentsResult{
		Labels:     k.parent,
		Components: countRoots(k.parent),
		// Link phases executed: the neighbor rounds plus the finish pass.
		Iterations: afforestNeighborRounds + 1,
		Report:     rep,
	}
	return res, nil
}

// findRoot chases parent pointers with path halving. Halving stores are
// benign races (they rewrite a pointer to one of its ancestors, which is
// always a valid, smaller id) but stay atomic for soundness.
func (k *afforestRun) findRoot(ctx exec.Ctx, x int32) int32 {
	parent, rPar := k.parent, k.rPar
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

// link unites the components of a and b by hooking the larger root under
// the smaller, and reports whether it hooked (false: already one
// component). Only roots are hooked and only onto smaller ids, so the
// minimum vertex of a component is never displaced — that is what pins
// the final labels to the oracle's.
func (k *afforestRun) link(ctx exec.Ctx, a, b int32) bool {
	for {
		p, q := k.findRoot(ctx, a), k.findRoot(ctx, b)
		if p == q {
			return false
		}
		if p > q {
			p, q = q, p
		}
		ctx.Compute(1)
		if atomic.CompareAndSwapInt32(&k.parent[q], q, p) {
			ctx.AtomicRMW(k.rPar.At(int(q)))
			return true
		}
	}
}

func (k *afforestRun) run(ctx exec.Ctx) {
	g, in, parent, threads, n := k.g, k.in, k.parent, k.threads, k.g.N
	rPar, rOff, rTgt, rInOff, rInTgt, bar := k.rPar, k.rOff, k.rTgt, k.rInOff, k.rInTgt, k.bar
	tid := ctx.TID()
	lo, hi := chunk(tid, threads, n)
	for v := lo; v < hi; v++ {
		parent[v] = int32(v)
		ctx.Store(rPar.At(v))
	}
	ctx.Barrier(bar)
	// Phase 1: neighbor rounds — link the r-th out-edge of every vertex,
	// one round per r so contention stays spread out.
	for r := 0; r < afforestNeighborRounds; r++ {
		ctx.Active(hi - lo)
		for v := lo; v < hi; v++ {
			ctx.Load(rOff.At(v))
			if g.Degree(v) > r {
				ctx.Load(rTgt.At(int(g.Offsets[v]) + r))
				k.link(ctx, int32(v), g.Targets[g.Offsets[v]+int64(r)])
			}
			ctx.Active(-1)
		}
		ctx.Barrier(bar)
	}
	// Compress so the sample reads near-final roots cheaply.
	for v := lo; v < hi; v++ {
		k.findRoot(ctx, int32(v))
	}
	ctx.Barrier(bar)
	if tid == 0 {
		// Sample at a fixed stride (deterministic — no RNG feeds the
		// annotation stream) and take the most frequent root.
		stride := max(n/afforestSampleSize, 1)
		sample := k.sample[:0]
		for v := 0; v < n && len(sample) < afforestSampleSize; v += stride {
			sample = append(sample, k.findRoot(ctx, int32(v)))
		}
		slices.Sort(sample)
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
		atomic.StoreInt32(&k.giant, best)
	}
	ctx.Barrier(bar)
	// Phase 2: finish vertices outside the sampled giant component. Their
	// remaining out-edges plus all in-edges cover every edge the skip
	// could otherwise lose on directed inputs.
	skip := atomic.LoadInt32(&k.giant)
	ctx.Active(hi - lo)
	for v := lo; v < hi; v++ {
		if k.findRoot(ctx, int32(v)) != skip {
			ctx.Load(rOff.At(v))
			ts, _ := g.Neighbors(v)
			for j := afforestNeighborRounds; j < len(ts); j++ {
				ctx.Load(rTgt.At(int(g.Offsets[v]) + j))
				k.link(ctx, int32(v), ts[j])
			}
			ctx.Load(rInOff.At(v))
			its, _ := in.Neighbors(v)
			ctx.LoadSpan(rInTgt.At(int(in.Offsets[v])), len(its), 4)
			for _, u := range its {
				k.link(ctx, int32(v), u)
			}
		}
		ctx.Active(-1)
	}
	ctx.Barrier(bar)
	// Final compression: every label becomes its component's root, which
	// min-hooking guarantees is the minimum vertex id.
	for v := lo; v < hi; v++ {
		root := k.findRoot(ctx, int32(v))
		atomic.StoreInt32(&parent[v], root)
		ctx.AtomicStore(rPar.At(v))
	}
}

// repair is ComponentsIncremental's body over a forest seeded with the
// previous labels: link the endpoints of my share of the inserted edges,
// then, if any thread hooked a root, relabel my chunk of the vertices.
// Only vertices whose old root was hooked move, so the rest cost two
// loads and no store.
func (k *afforestRun) repair(ctx exec.Ctx, inserts []graph.Edge) {
	parent, rPar := k.parent, k.rPar
	lo, hi := chunk(ctx.TID(), k.threads, len(inserts))
	for _, e := range inserts[lo:hi] {
		if k.link(ctx, e.From, e.To) {
			atomic.StoreInt32(&k.hooked, 1)
		}
	}
	ctx.Barrier(k.bar)
	if atomic.LoadInt32(&k.hooked) == 0 {
		return
	}
	lo, hi = chunk(ctx.TID(), k.threads, k.g.N)
	for v := lo; v < hi; v++ {
		ctx.AtomicLoad(rPar.At(v))
		p := atomic.LoadInt32(&parent[v])
		if root := k.findRoot(ctx, p); root != p {
			atomic.StoreInt32(&parent[v], root)
			ctx.AtomicStore(rPar.At(v))
		}
	}
}

// countRoots counts the components of a converged labeling. Labels
// converge to the minimum vertex id of each component, so the
// representatives are exactly the fixpoints labels[v] == v — counting
// them needs no set allocation.
func countRoots(labels []int32) int {
	comps := 0
	for v, l := range labels {
		if l == int32(v) {
			comps++
		}
	}
	return comps
}

// ComponentsRef is the sequential oracle: union-find with path halving.
func ComponentsRef(g *graph.CSR) []int32 {
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < g.N; v++ {
		ts, _ := g.Neighbors(v)
		for _, u := range ts {
			a, b := find(int32(v)), find(u)
			if a != b {
				if a < b {
					parent[b] = a
				} else {
					parent[a] = b
				}
			}
		}
	}
	labels := make([]int32, g.N)
	for v := range labels {
		labels[v] = find(int32(v))
	}
	return labels
}
