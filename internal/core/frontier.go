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
// barriers. The expansion loops stay hand-written per kernel; only the
// round end is shared. Cancellation needs nothing here: in an aborted run
// every thread ends at its next barrier (exec.Sync).

// ctrl words: the verdict thread 0 publishes at the end of a round.
const (
	ctrlContinue int32 = iota
	ctrlDone
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

// adopt swaps *buf with thread t's push buffer. A kernel that keeps its
// discoveries elsewhere lends one batch of them to the merge this way,
// without copying: thread 0 adopts in decide, between the pushes and the
// seal, and after endRound thread t adopts again to take its emptied
// array back.
func (w *worklist) adopt(t int, buf *[]int32) { w.next[t], *buf = *buf, w.next[t] }

// pending returns the number of vertices pushed this round.
func (w *worklist) pending() int {
	total := 0
	for _, b := range w.next {
		total += len(b)
	}
	return total
}

// seal computes the per-thread copy offsets and installs a fresh (or
// recycled) frontier array of the merged size. The outgoing array is
// kept as the recycle candidate for the next seal; by then no thread
// references it.
func (w *worklist) seal() {
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
//	tid 0:      decide(total) for the verdict (it may adopt), then seal
//	Barrier B — offsets, the new frontier array and the verdict are published
//	ctrlDone -> stop; any other verdict -> copyOut
//	Barrier C — frontier contents are complete
//
// total is the number of vertices pushed in the round. It returns the
// verdict; on ctrlDone the caller returns without touching the worklist
// again.
func (w *worklist) endRound(ctx exec.Ctx, bar exec.Barrier, rFront exec.Region, decide func(total int) int32) int32 {
	ctx.Barrier(bar)
	if ctx.TID() == 0 {
		st := decide(w.pending())
		if st != ctrlDone {
			w.seal()
		}
		atomic.StoreInt32(&w.ctrl, st)
	}
	ctx.Barrier(bar)
	st := atomic.LoadInt32(&w.ctrl)
	if st == ctrlDone {
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

// Direction-switch thresholds of the frontier BFS, from Beamer et al.'s
// direction-optimizing BFS as tuned in the GAP benchmark suite. Thread 0
// decides at the end of each round, where it already sees the merged
// frontier. Push->pull needs the edges incident to the next frontier (mf)
// to exceed 1/HybridAlpha of the edges incident to still-unexplored
// vertices — an exhaustive push scan would touch more edges than a pull
// probe is likely to — and to exceed n: a pull round sweeps all n levels,
// so it cannot beat a push round touching fewer than n edges. Pull->push
// happens when the frontier shrinks below n/HybridBeta vertices, where a
// pull round's O(n) sweep stops paying.
const (
	HybridAlpha = 14
	HybridBeta  = 24
)

// round directions of a direction-optimizing traversal.
const (
	dirPush int32 = iota
	dirPull
)

// direction is the push/pull state of a direction-optimizing traversal
// (the frontier BFS and BFSBatch). Each thread stores its own frontDeg
// slot before endRound; everything else is thread 0's, in verdict. Like
// the worklist offsets it is round bookkeeping, not annotated.
type direction struct {
	in         *graph.CSR // the transpose, fetched by the first pull round
	frontDeg   []int64    // out-degree sum of each thread's discoveries this round
	unexplored int64      // edges incident to undiscovered vertices (over-estimated for a seeded run)
	dir        int32      // direction of the current round
	pulls      int        // pull rounds run
}

// reset readies d for a traversal of g from a seed frontier: it pushes
// first and has fetched no transpose.
func (d *direction) reset(g *graph.CSR, threads int, seed []int32) {
	d.frontDeg = grow64(d.frontDeg, threads, false)
	d.unexplored = int64(g.M())
	for _, v := range seed {
		d.unexplored -= int64(g.Degree(int(v)))
	}
	d.in, d.dir, d.pulls = nil, dirPush, 0
}

// verdict is the round verdict of a direction-optimizing traversal of g,
// run by thread 0 in endRound: done once the frontier is empty, otherwise
// the direction of the next round by the HybridAlpha/HybridBeta rule.
// Hysteresis comes from the two distinct conditions: a dense frontier
// flips to pull, and only a clearly sparse one flips back. The in-CSR is
// fetched for the first pull round only, so a run that never pulls never
// builds a transpose.
func (d *direction) verdict(g *graph.CSR, total int) int32 {
	if total == 0 {
		return ctrlDone
	}
	mf := int64(0)
	for _, deg := range d.frontDeg {
		mf += deg
	}
	d.unexplored -= mf
	n := int64(g.N)
	switch {
	case d.dir == dirPush && mf > d.unexplored/HybridAlpha && mf > n:
		d.dir = dirPull
	case d.dir == dirPull && int64(total)*HybridBeta < n:
		d.dir = dirPush
	}
	if d.dir == dirPull {
		d.pulls++
		if d.in == nil {
			d.in = g.InCSR()
		}
	}
	return ctrlContinue
}

// bfsFrontierRun is the reusable state of one bfsFrontier execution.
// With a Scratch it persists across runs so warm runs allocate nothing:
// the level array, the worklist buffers, the barrier and the kernel body
// and decide method values are all reused; only regions (value types)
// are re-placed.
type bfsFrontierRun struct {
	g       *graph.CSR
	threads int
	level   []int32
	wl      worklist
	base    int32 // level of the seed frontier
	direction

	rLvl, rOff, rTgt, rFront, rInOff, rInTgt exec.Region
	bar                                      exec.Barrier
	body                                     func(exec.Ctx)
	decide                                   func(total int) int32
	res                                      BFSResult
}

// bfsFrontier runs level-synchronous, direction-optimizing breadth-first
// search with the frontier strategy. A push round processes the compact
// worklist of current-level vertices, claiming unvisited out-neighbors
// with lock-free compare-and-swap instead of per-vertex locks. Once the
// frontier is dense (HybridAlpha) the rounds flip to a bottom-up pull
// over the in-CSR, in which every unvisited vertex probes its
// in-neighbors for one on the current level and claims itself on the
// first hit, and they flip back when it thins (HybridBeta). Discoveries
// are pushed to the worklist in both directions, so the frontier, the
// switch statistics and the endRound discipline stay exact across flips.
// Levels are identical to BFS's — the level-synchronous structure fully
// determines them — so the strategies are result-interchangeable.
func bfsFrontier(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int, s *Scratch) (*BFSResult, error) {
	if err := validate(g, src, threads); err != nil {
		return nil, err
	}
	k := s.bfsFrontier()
	k.seedSource(g.N, src, threads, s)
	return k.execute(goCtx, pl, g, threads, 0, s)
}

// seedSource readies k for a full run from src: src at level 0, every
// other level unknown.
func (k *bfsFrontierRun) seedSource(n, src, threads int, s *Scratch) {
	k.level = grow32(k.level, n, s.DetachResults)
	for i := range k.level {
		k.level[i] = -1
	}
	k.level[src] = 0
	k.wl.reset(threads, int32(src))
}

// execute runs the frontier BFS from the state the caller seeded (see
// traverse) and summarizes the levels into a result.
func (k *bfsFrontierRun) execute(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int, base int32, s *Scratch) (*BFSResult, error) {
	rep, err := k.traverse(goCtx, pl, g, threads, base, s)
	if err != nil {
		return nil, err
	}
	res, level := &k.res, k.level
	if s.DetachResults {
		res, k.level = &BFSResult{}, nil // the payload leaves with the result
	}
	visited, levels := bfsSummary(level)
	*res = BFSResult{Level: level, Visited: visited, Levels: levels, Report: rep}
	return res, nil
}

// traverse runs the frontier BFS from the state the caller seeded: k.level
// holds every level known exact (-1 elsewhere) and k.wl the vertices at
// level base. A full run seeds the source at level 0; a repair seeds the
// last level its delta cannot have changed (bfsIncremental). The levels
// are left in k.level.
func (k *bfsFrontierRun) traverse(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int, base int32, s *Scratch) (*exec.Report, error) {
	n := g.N
	k.g, k.threads, k.base = g, threads, base
	k.reset(g, threads, k.wl.frontier())
	k.rLvl = pl.Alloc("bfsf.level", n, 4)
	k.rOff = pl.Alloc("bfsf.offsets", n+1, 8)
	k.rTgt = pl.Alloc("bfsf.targets", g.M(), 4)
	k.rFront = pl.Alloc("bfsf.frontier", n, 4)
	k.rInOff = pl.Alloc("bfsf.inoffsets", n+1, 8)
	k.rInTgt = pl.Alloc("bfsf.intargets", g.M(), 4)
	k.bar = s.barrierFor(pl, threads)
	if k.body == nil {
		k.body, k.decide = k.run, k.decideRound
	}

	return s.run(goCtx, pl, threads, k.body)
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
		found, deg := 0, int64(0)
		if k.dir == dirPush {
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
					// Lock-free claim: the CAS plays the role of the scan
					// kernel's per-vertex atomic lock.
					if atomic.CompareAndSwapInt32(&level[u], -1, cur+1) {
						ctx.AtomicRMW(rLvl.At(int(u)))
						found++
						deg += int64(g.Degree(int(u)))
						wl.push(tid, u)
					}
				}
			}
			ctx.Active(found - (hi - lo)) // discoveries join, explored leave
		} else {
			// Pull round: every unvisited vertex in my static chunk probes
			// its in-neighbors for a parent on the current level, stopping
			// at the first hit. My chunk is mine alone, so the level store
			// needs no CAS — but it stays atomic because other threads'
			// probes read it.
			in, rInOff, rInTgt := k.in, k.rInOff, k.rInTgt
			flo, fhi := chunk(tid, threads, len(wl.frontier()))
			lo, hi := chunk(tid, threads, g.N)
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
		k.frontDeg[tid] = deg
		if wl.endRound(ctx, bar, rFront, k.decide) != ctrlContinue {
			return
		}
		cur++
	}
}

// decideRound is the frontier BFS's round verdict (direction.verdict).
func (k *bfsFrontierRun) decideRound(total int) int32 { return k.verdict(k.g, total) }
