package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// BFSBatchWidth is the number of sources one BFSBatch pass carries: one
// bit per source in a uint64 visited word per vertex.
const BFSBatchWidth = 64

// BFSBatchResult carries the outputs of one bit-parallel multi-source
// BFS pass: one full BFSResult-shaped payload per source.
type BFSBatchResult struct {
	// Sources echoes the request order; Level[i], Visited[i] and
	// Levels[i] describe the traversal from Sources[i], with exactly the
	// values a standalone BFS from that source produces.
	Sources []int
	Level   [][]int32
	Visited []int
	Levels  []int
	// Report is the single shared platform report of the pass.
	Report *exec.Report
}

// BFSBatch runs up to BFSBatchWidth breadth-first searches in one
// level-synchronous wavefront: every vertex carries a uint64 whose bit i
// means "reached from sources[i]", so one edge traversal advances all
// sources at once (the multi-source BFS of Then et al., the kernel
// behind the service's cross-request batching). The frontier worklist
// holds vertices with any newly arrived bits; rounds end through
// worklist.endRound like every frontier kernel's. Per-source
// levels are bit-identical to BFSRef's — bit arrival rounds are exactly
// the single-source BFS levels, and OR-propagation is schedule-
// independent.
func BFSBatch(goCtx context.Context, pl exec.Platform, g *graph.CSR, sources []int, threads int) (*BFSBatchResult, error) {
	if len(sources) == 0 || len(sources) > BFSBatchWidth {
		return nil, fmt.Errorf("core: batch of %d sources outside [1, %d]", len(sources), BFSBatchWidth)
	}
	for _, src := range sources {
		if err := validate(g, src, threads); err != nil {
			return nil, err
		}
	}
	n := g.N
	k := len(sources)
	visited := make([]uint64, n) // bits settled up to the previous round
	front := make([]uint64, n)   // bits that arrived last round, per frontier vertex
	next := make([]uint64, n)    // bits arriving this round, CAS-merged
	levels := make([][]int32, k)
	for i := range levels {
		levels[i] = make([]int32, n)
		for v := range levels[i] {
			levels[i][v] = -1
		}
	}

	// Seed: distinct source vertices enter the worklist once; duplicate
	// sources just share a vertex's bits.
	var seed []int32
	for i, src := range sources {
		bit := uint64(1) << uint(i)
		if visited[src] == 0 {
			seed = append(seed, int32(src))
		}
		visited[src] |= bit
		front[src] |= bit
		levels[i][src] = 0
	}
	wl := newWorklist(threads, seed)

	rVis := pl.Alloc("bfsb.visited", n, 8)
	rCur := pl.Alloc("bfsb.front", n, 8)
	rNext := pl.Alloc("bfsb.next", n, 8)
	rLvl := pl.Alloc("bfsb.levels", k*n, 4)
	rOff := pl.Alloc("bfsb.offsets", n+1, 8)
	rTgt := pl.Alloc("bfsb.targets", g.M(), 4)
	rFront := pl.Alloc("bfsb.frontier", n, 4)
	bar := pl.NewBarrier(threads)

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		cur := int32(0)
		for {
			// Scan phase: push every frontier vertex's new bits to its
			// neighbors; the CAS winner that turns a pending word
			// non-zero enqueues the vertex, so worklist entries stay
			// unique.
			f := wl.frontier()
			lo, hi := chunk(tid, threads, len(f))
			ctx.LoadSpan(rFront.At(lo), hi-lo, 4)
			found := 0
			for i := lo; i < hi; i++ {
				v := int(f[i])
				ctx.Load(rCur.At(v))
				w := front[v]
				ctx.Load(rOff.At(v))
				ts, _ := g.Neighbors(v)
				ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
				for _, u := range ts {
					ctx.Load(rVis.At(int(u)))
					ctx.Compute(1)
					add := w &^ visited[u]
					if add == 0 {
						continue
					}
					for {
						old := atomic.LoadUint64(&next[u])
						if old|add == old {
							break
						}
						if atomic.CompareAndSwapUint64(&next[u], old, old|add) {
							ctx.AtomicRMW(rNext.At(int(u)))
							if old == 0 {
								found++
								wl.push(tid, u)
							}
							break
						}
					}
				}
			}
			ctx.Active(found - (hi - lo))
			if wl.endRound(ctx, bar, rFront, untilEmpty) != ctrlContinue {
				return
			}
			// Settle phase: fold the pending bits of my chunk of the new
			// frontier into visited, record per-source arrival levels,
			// and stage the bits as the next round's front. Worklist
			// entries are unique and the scan phase chunks the same
			// array identically, so each vertex has one owner.
			nf := wl.frontier()
			slo, shi := chunk(tid, threads, len(nf))
			for i := slo; i < shi; i++ {
				u := int(nf[i])
				ctx.Load(rNext.At(u))
				bitsU := next[u]
				visited[u] |= bitsU
				// The single-owner invariant above is outside the vet
				// approximation (u is read from the shared worklist);
				// the racecheck sweep proves these stores conflict-free.
				ctx.Store(rVis.At(u)) //crono:vet-ignore unguardedstore
				front[u] = bitsU
				ctx.Store(rCur.At(u)) //crono:vet-ignore unguardedstore
				next[u] = 0
				ctx.Store(rNext.At(u)) //crono:vet-ignore unguardedstore
				for b := bitsU; b != 0; b &= b - 1 {
					s := bits.TrailingZeros64(b)
					levels[s][u] = cur + 1
					ctx.Store(rLvl.At(s*n + u)) //crono:vet-ignore unguardedstore
				}
			}
			ctx.Barrier(bar)
			cur++
		}
	})
	if err != nil {
		return nil, err
	}

	res := &BFSBatchResult{
		Sources: append([]int(nil), sources...),
		Level:   levels,
		Visited: make([]int, k),
		Levels:  make([]int, k),
		Report:  rep,
	}
	for i := 0; i < k; i++ {
		res.Visited[i], res.Levels[i] = bfsSummary(levels[i])
	}
	return res, nil
}
