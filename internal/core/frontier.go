package core

import (
	"context"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// This file implements the frontier execution strategy (StrategyFrontier):
// instead of scanning every thread's whole static vertex range each round
// for frontier members (the paper-faithful scan style), threads accumulate
// discovered vertices in private buffers and merge them into one shared
// compact worklist at each barrier. Work per round is then proportional to
// the frontier, not to n — the explicit-worklist lever the GAP benchmark
// suite and Dhulipala et al. identify as the biggest single win for these
// kernels on sparse frontiers.
//
// A round is: process my chunk of wl.frontier(), wl.push(tid, ...) the
// discoveries, then wl.endRound — the one function that owns the merge
// barriers and the cancellation discipline. The expansion loops stay
// hand-written per kernel; only the round end is shared.

// ctrl words: the verdict thread 0 publishes at the end of a round.
const (
	ctrlContinue int32 = iota
	ctrlDone
	ctrlNewBand // SSSPFrontier only: band fixpoint reached, open the next
	ctrlAbort
)

// worklist is the shared compact frontier. cur is rebuilt from the
// per-thread next buffers at each merge; the previous round's array is
// recycled to keep the steady state allocation-free.
type worklist struct {
	cur   []int32
	next  [][]int32
	off   []int
	spare []int32
	ctrl  int32 // this round's verdict, thread 0 -> all (endRound)
}

func newWorklist(threads int, seed []int32) *worklist {
	return &worklist{
		cur:  seed,
		next: make([][]int32, threads),
		off:  make([]int, threads),
	}
}

// prepare grows (never shrinks) w's owned buffers for a new run with a
// seed frontier of the given length. The per-thread buffers, the offsets
// and the spare array all keep their capacity, so a warm worklist goes
// through entire runs without allocating. cur and spare identities stay
// distinct — the non-aliasing invariant seal relies on.
func (w *worklist) prepare(threads, seedLen int) {
	for len(w.next) < threads {
		w.next = append(w.next, nil)
	}
	w.next = w.next[:threads]
	for t := range w.next {
		w.next[t] = w.next[t][:0]
	}
	if cap(w.off) < threads {
		w.off = make([]int, threads)
	}
	w.off = w.off[:threads]
	if cap(w.cur) < seedLen {
		w.cur = make([]int32, seedLen)
	}
	w.cur = w.cur[:seedLen]
}

// reset reinitializes w in place for a new run seeded with the given
// vertices (copied into a worklist-owned array).
func (w *worklist) reset(threads int, seed ...int32) {
	w.prepare(threads, len(seed))
	copy(w.cur, seed)
}

// resetIota reinitializes w with the full-vertex seed 0..n-1 (the
// CONN_COMP start state) without materializing a separate seed slice.
func (w *worklist) resetIota(threads, n int) {
	w.prepare(threads, n)
	for i := range w.cur {
		w.cur[i] = int32(i)
	}
}

// seed appends v to the initial frontier: between prepare (or a reset)
// and the run, for start states built one vertex at a time.
func (w *worklist) seed(v int32) { w.cur = append(w.cur, v) }

// frontier returns the current shared worklist. Valid from one endRound
// to the next.
func (w *worklist) frontier() []int32 { return w.cur }

// push records a discovered vertex in tid's private buffer.
func (w *worklist) push(tid int, v int32) { w.next[tid] = append(w.next[tid], v) }

// seal computes the per-thread copy offsets and installs a fresh (or
// recycled) frontier array of the merged size, returning that size.
// The outgoing array is kept as the recycle candidate for the next seal;
// by then no thread references it.
func (w *worklist) seal() int {
	total := 0
	for t := range w.next {
		w.off[t] = total
		total += len(w.next[t])
	}
	old := w.cur
	if cap(w.spare) >= total {
		w.cur = w.spare[:total]
	} else {
		w.cur = make([]int32, total)
	}
	w.spare = old
	return total
}

// copyOut copies tid's buffer into its sealed slot of the shared
// frontier and resets the buffer.
func (w *worklist) copyOut(ctx exec.Ctx, r exec.Region) {
	tid := ctx.TID()
	if n := len(w.next[tid]); n > 0 {
		copy(w.cur[w.off[tid]:], w.next[tid])
		ctx.StoreSpan(r.At(w.off[tid]), n, 4)
		w.next[tid] = w.next[tid][:0]
	}
}

// endRound closes a round for every thread; it is the only caller of seal
// and copyOut:
//
//	Barrier A — all pushes for the round are published
//	tid 0:      seal (always, before any control decision), poll Checkpoint
//	            and, if the run is live, ask decide(total) for the verdict
//	Barrier B — offsets, the new frontier array and the verdict are published
//	tid != 0:   poll Checkpoint
//	ctrlDone or ctrlAbort -> stop; any other verdict -> copyOut
//	Barrier C — frontier contents are complete
//
// It returns the verdict; on ctrlDone and ctrlAbort the caller returns
// without touching the worklist again.
//
// Cancellation discipline: only thread 0 polls before the copy phase, and
// it seals first, so copy offsets are always from the current round even
// when the run is dying. Threads that pass Barrier B on the abort channel
// poll before touching the worklist, so no thread ever copies with stale
// offsets; a straggler survives at most one round past the abort and its
// partial state is discarded by RunCtx.
func (w *worklist) endRound(ctx exec.Ctx, bar exec.Barrier, rFront exec.Region, decide func(total int) int32) int32 {
	tid := ctx.TID()
	ctx.Barrier(bar)
	if tid == 0 {
		total := w.seal()
		st := ctrlAbort
		if ctx.Checkpoint() == nil {
			st = decide(total)
		}
		atomic.StoreInt32(&w.ctrl, st)
	}
	ctx.Barrier(bar)
	if tid != 0 && ctx.Checkpoint() != nil {
		return ctrlAbort
	}
	st := atomic.LoadInt32(&w.ctrl)
	if st == ctrlDone || st == ctrlAbort {
		return st
	}
	w.copyOut(ctx, rFront)
	ctx.Barrier(bar)
	return st
}

// untilEmpty is the decide rule of kernels that run until the worklist
// drains.
func untilEmpty(total int) int32 {
	if total == 0 {
		return ctrlDone
	}
	return ctrlContinue
}

// BFSFrontier runs level-synchronous breadth-first search with the
// frontier strategy: each level processes only the compact worklist of
// current-level vertices, claiming unvisited neighbors with lock-free
// compare-and-swap instead of per-vertex locks. Levels are identical to
// BFS's — the level-synchronous structure fully determines them — so
// the two strategies are result-interchangeable.
func BFSFrontier(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int) (*BFSResult, error) {
	return bfsFrontier(goCtx, pl, g, src, threads, nil)
}

// bfsFrontierRun is the reusable state of one BFSFrontier execution.
// With a Scratch it persists across runs so warm runs allocate nothing:
// the level array, the worklist buffers, the barrier and the kernel body
// closure are all reused; only regions (value types) are re-placed.
type bfsFrontierRun struct {
	g       *graph.CSR
	threads int
	level   []int32
	wl      worklist
	base    int32 // level of the seed frontier

	rLvl, rOff, rTgt, rFront exec.Region
	bar                      exec.Barrier
	body                     func(exec.Ctx)
	res                      BFSResult
}

// bfsFrontier is BFSFrontier with an optional scratch workspace.
func bfsFrontier(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int, s *Scratch) (*BFSResult, error) {
	if err := validate(g, src, threads); err != nil {
		return nil, err
	}
	k := s.bfsFrontier()
	k.level = grow32(k.level, g.N, s.detached())
	for i := range k.level {
		k.level[i] = -1
	}
	k.level[src] = 0
	k.wl.reset(threads, int32(src))
	return k.execute(goCtx, pl, g, threads, 0, s)
}

// execute runs the frontier BFS from the state the caller seeded: k.level
// holds every level known exact (-1 elsewhere) and k.wl the vertices at
// level base. A full run seeds the source at level 0; a repair seeds the
// last level its delta cannot have changed (BFSIncremental).
func (k *bfsFrontierRun) execute(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int, base int32, s *Scratch) (*BFSResult, error) {
	n := g.N
	k.g, k.threads, k.base = g, threads, base
	k.rLvl = pl.Alloc("bfsf.level", n, 4)
	k.rOff = pl.Alloc("bfsf.offsets", n+1, 8)
	k.rTgt = pl.Alloc("bfsf.targets", g.M(), 4)
	k.rFront = pl.Alloc("bfsf.frontier", n, 4)
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
		res = &BFSResult{}
	}
	visited, levels := bfsSummary(k.level)
	*res = BFSResult{Level: k.level, Visited: visited, Levels: levels, Report: rep}
	return res, nil
}

// bfsSummary derives a BFS result's summary fields from its final level
// array: Visited counts reached vertices and Levels is max(level)+1.
func bfsSummary(level []int32) (visited, levels int) {
	deepest := int32(0)
	for _, l := range level {
		if l >= 0 {
			visited++
			if l > deepest {
				deepest = l
			}
		}
	}
	return visited, int(deepest) + 1
}

func (k *bfsFrontierRun) run(ctx exec.Ctx) {
	g, level, wl, threads := k.g, k.level, &k.wl, k.threads
	rLvl, rOff, rTgt, rFront, bar := k.rLvl, k.rOff, k.rTgt, k.rFront, k.bar
	tid := ctx.TID()
	cur := k.base
	for {
		f := wl.frontier()
		lo, hi := chunk(tid, threads, len(f))
		ctx.LoadSpan(rFront.At(lo), hi-lo, 4)
		found := 0
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
				// Lock-free claim: the CAS plays the role of the scan
				// kernel's per-vertex atomic lock.
				if atomic.CompareAndSwapInt32(&level[u], -1, cur+1) {
					ctx.AtomicRMW(rLvl.At(int(u)))
					found++
					wl.push(tid, u)
				}
			}
		}
		ctx.Active(found - (hi - lo)) // discoveries join, explored leave
		if wl.endRound(ctx, bar, rFront, untilEmpty) != ctrlContinue {
			return
		}
		cur++
	}
}

// ComponentsFrontier runs connected components with the frontier
// strategy: push-based min-label propagation over a worklist that starts
// as all vertices and shrinks to the still-settling ones. A vertex whose
// label improves is re-enqueued (deduplicated by a mark flag), so each
// round touches only the active part of the graph instead of sweeping
// all n vertices. Labels converge to the minimum vertex id of each
// component, exactly as ConnectedComponents and ComponentsRef do.
func ComponentsFrontier(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int) (*ComponentsResult, error) {
	return componentsFrontier(goCtx, pl, g, threads, nil)
}

// componentsFrontierRun is the reusable state of one ComponentsFrontier
// execution (see bfsFrontierRun).
type componentsFrontierRun struct {
	g       *graph.CSR
	threads int
	labels  []int32
	mark    []int32 // 1 while the vertex sits in a buffer or the worklist
	wl      worklist
	iters   int

	rLbl, rOff, rTgt, rMark, rFront exec.Region
	bar                             exec.Barrier
	body                            func(exec.Ctx)
	res                             ComponentsResult
}

// componentsFrontier is ComponentsFrontier with an optional scratch
// workspace.
func componentsFrontier(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int, s *Scratch) (*ComponentsResult, error) {
	if err := validate(g, 0, threads); err != nil {
		return nil, err
	}
	n := g.N
	k := s.componentsFrontier()
	k.labels = grow32(k.labels, n, s.detached())
	k.mark = grow32(k.mark, n, false)
	for v := 0; v < n; v++ {
		k.labels[v] = int32(v)
		k.mark[v] = 1
	}
	k.wl.resetIota(threads, n)
	return k.execute(goCtx, pl, g, threads, s)
}

// execute runs min-label propagation from the state the caller seeded:
// k.labels is the starting labeling and k.wl (mirrored by k.mark) the
// vertices whose label may still improve a neighbor's. A full run seeds
// every vertex with its own id; a repair seeds the previous labels and
// the tails of the inserted edges (ComponentsIncremental).
func (k *componentsFrontierRun) execute(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int, s *Scratch) (*ComponentsResult, error) {
	n := g.N
	k.g, k.threads, k.iters = g, threads, 0
	k.rLbl = pl.Alloc("ccf.labels", n, 4)
	k.rOff = pl.Alloc("ccf.offsets", n+1, 8)
	k.rTgt = pl.Alloc("ccf.targets", g.M(), 4)
	k.rMark = pl.Alloc("ccf.mark", n, 4)
	k.rFront = pl.Alloc("ccf.frontier", n, 4)
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
	*res = ComponentsResult{Labels: k.labels, Components: countRoots(k.labels), Iterations: k.iters + 1, Report: rep}
	return res, nil
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

func (k *componentsFrontierRun) run(ctx exec.Ctx) {
	g, labels, mark, wl, threads := k.g, k.labels, k.mark, &k.wl, k.threads
	rLbl, rOff, rTgt, rMark, rFront, bar := k.rLbl, k.rOff, k.rTgt, k.rMark, k.rFront, k.bar
	tid := ctx.TID()
	decide := func(total int) int32 {
		if total == 0 {
			return ctrlDone
		}
		k.iters++
		return ctrlContinue
	}
	for {
		f := wl.frontier()
		lo, hi := chunk(tid, threads, len(f))
		ctx.LoadSpan(rFront.At(lo), hi-lo, 4)
		found := 0
		for i := lo; i < hi; i++ {
			v := int(f[i])
			atomic.StoreInt32(&mark[v], 0)
			ctx.AtomicStore(rMark.At(v))
			ctx.AtomicLoad(rLbl.At(v))
			lv := atomic.LoadInt32(&labels[v])
			ctx.Load(rOff.At(v))
			ts, _ := g.Neighbors(v)
			ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
			for _, u := range ts {
				ctx.AtomicLoad(rLbl.At(int(u)))
				ctx.Compute(1)
				for {
					lu := atomic.LoadInt32(&labels[u])
					if lv >= lu {
						break
					}
					if atomic.CompareAndSwapInt32(&labels[u], lu, lv) {
						ctx.AtomicRMW(rLbl.At(int(u)))
						if atomic.CompareAndSwapInt32(&mark[u], 0, 1) {
							ctx.AtomicRMW(rMark.At(int(u)))
							found++
							wl.push(tid, u)
						}
						break
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
