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
	// values a standalone BFS from that source produces. Each Level row
	// is an n-element window (cap n) of one array, the rows an odd number
	// of cache lines apart, so keeping any row keeps them all: copy a row
	// that must outlive the others.
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
// worklist.endRound like every frontier kernel's, and they change
// direction by the frontier BFS's rule applied to that union frontier. A
// push round CAS-merges each frontier vertex's new bits into its
// out-neighbors; a pull round lets every vertex still missing a bit OR
// together the new bits of its in-neighbors and write only its own word.
// Per-source levels are bit-identical to BFSRef's — bit arrival rounds
// are exactly the single-source BFS levels, and OR-propagation is
// schedule-independent.
func BFSBatch(goCtx context.Context, pl exec.Platform, g *graph.CSR, sources []int, threads int) (*BFSBatchResult, error) {
	return bfsBatch(goCtx, pl, g, sources, threads, &direction{})
}

// bfsBatch is BFSBatch with the caller's direction state, which tests
// read after the run, finished or aborted.
func bfsBatch(goCtx context.Context, pl exec.Platform, g *graph.CSR, sources []int, threads int, d *direction) (*BFSBatchResult, error) {
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
	// Bits that arrived in a round, double-buffered by its parity: a round
	// reads the previous round's array as its front and collects into the
	// other, and each array is zero off its own frontier.
	arrived := [2][]uint64{make([]uint64, n), make([]uint64, n)}
	all := ^uint64(0) >> uint(BFSBatchWidth-k) // one bit per source
	// moved[t] is the union of the bits thread t settled last round: only
	// those can travel one more edge. A source whose component is
	// exhausted drops out, so pulls stop waiting for its bit.
	moved := make([]uint64, threads)
	moved[0] = all
	// Level of vertex v from source s is lvl[s*stride+v], the layout rLvl
	// describes: settling a bit stores at a computed index, with no
	// per-source row header to load first. The rows are an odd number of
	// cache lines apart, so the lines the settle loop writes in turn fall
	// in different cache sets (DESIGN §5b). Every cell of a row is written
	// once: a source's here, a settled bit's in the run, and -1 after it
	// where the bit never arrived.
	stride := levelStride(n)
	lvl := make([]int32, k*stride)
	levels := make([][]int32, k)
	for i := range levels {
		levels[i] = lvl[i*stride : i*stride+n : i*stride+n]
	}
	// depth[i] is one more than the deepest level bit i has settled at,
	// kept by thread 0 from the moved unions.
	depth := make([]int, k)

	// Seed: distinct source vertices enter the worklist once; duplicate
	// sources just share a vertex's bits.
	var seed []int32
	for i, src := range sources {
		bit := uint64(1) << uint(i)
		if visited[src] == 0 {
			seed = append(seed, int32(src))
		}
		visited[src] |= bit
		arrived[0][src] |= bit
		levels[i][src] = 0
	}
	wl := newWorklist(threads, seed)
	d.reset(g, threads, seed)
	decide := func(total int) int32 { return d.verdict(g, total) }

	rVis := pl.Alloc("bfsb.visited", n, 8)
	rArr := [2]exec.Region{pl.Alloc("bfsb.arrived0", n, 8), pl.Alloc("bfsb.arrived1", n, 8)}
	rLvl := pl.Alloc("bfsb.levels", k*stride, 4)
	rOff := pl.Alloc("bfsb.offsets", n+1, 8)
	rTgt := pl.Alloc("bfsb.targets", g.M(), 4)
	rFront := pl.Alloc("bfsb.frontier", n, 4)
	rInOff := pl.Alloc("bfsb.inoffsets", n+1, 8)
	rInTgt := pl.Alloc("bfsb.intargets", g.M(), 4)
	bar := pl.NewBarrier(threads)

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		for cur := int32(0); ; cur++ {
			p := cur & 1
			front, next := arrived[p], arrived[p^1]
			rCur, rNext := rArr[p], rArr[p^1]
			f := wl.frontier()
			flo, fhi := chunk(tid, threads, len(f))
			found, deg := 0, int64(0)
			live := uint64(0)
			for _, b := range moved {
				live |= b
			}
			if tid == 0 {
				// live holds the bits settled at level cur.
				for b := live; b != 0; b &= b - 1 {
					depth[bits.TrailingZeros64(b)] = int(cur) + 1
				}
			}
			if d.dir == dirPush {
				// Push every frontier vertex's new bits to its
				// neighbors; the CAS winner that turns a pending word
				// non-zero enqueues the vertex, so worklist entries stay
				// unique.
				ctx.LoadSpan(rFront.At(flo), fhi-flo, 4)
				for i := flo; i < fhi; i++ {
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
									deg += int64(g.Degree(int(u)))
									wl.push(tid, u)
								}
								break
							}
						}
					}
				}
			} else {
				// Pull: every vertex of my static chunk still missing a
				// bit that moved last round ORs together the bits its
				// in-neighbors received, stopping once it has every one it
				// was missing. It is the only writer of its own word, so
				// no CAS. visited changes only in the settle phase, so
				// the test is made unannotated and the skipped stretch
				// flushed with one sweep.
				in := d.in
				lo, hi := chunk(tid, threads, n)
				skip := lo
				for v := lo; v < hi; v++ {
					need := live &^ visited[v]
					if need == 0 {
						continue
					}
					ctx.LoadSweep(rVis, skip, v+1)
					skip = v + 1
					ctx.Load(rInOff.At(v))
					ts, _ := in.Neighbors(v)
					acc, j := uint64(0), 0
					for j < len(ts) && acc&need != need {
						acc |= front[ts[j]]
						j++
					}
					ctx.LoadSpan(rInTgt.At(int(in.Offsets[v])), j, 4)
					ctx.LoadGather(rCur, ts[:j], 1)
					if add := acc & need; add != 0 {
						next[v] = add
						ctx.Store(rNext.At(v))
						found++
						deg += int64(g.Degree(v))
						wl.push(tid, int32(v))
					}
				}
				ctx.LoadSweep(rVis, skip, hi)
			}
			ctx.Active(found - (fhi - flo))
			d.frontDeg[tid] = deg
			if wl.endRound(ctx, bar, rFront, decide) != ctrlContinue {
				return
			}
			// Settle: fold the new bits of my chunk of the new frontier
			// into visited and record per-source arrival levels; they
			// stay in next as the next round's front, and their union in
			// moved. Then clear my chunk of the consumed frontier from
			// front, which collects the round after. Worklist entries are
			// unique and both loops chunk the arrays the rounds did, so
			// each vertex has one owner.
			nf := wl.frontier()
			slo, shi := chunk(tid, threads, len(nf))
			settled := uint64(0)
			for i := slo; i < shi; i++ {
				u := int(nf[i])
				ctx.Load(rNext.At(u))
				bitsU := next[u]
				settled |= bitsU
				visited[u] |= bitsU
				// The single-owner invariant above is outside the vet
				// approximation (u is read from the shared worklist);
				// the racecheck sweep proves these stores conflict-free.
				ctx.Store(rVis.At(u)) //crono:vet-ignore unguardedstore
				for b := bitsU; b != 0; b &= b - 1 {
					s := bits.TrailingZeros64(b)
					lvl[s*stride+u] = cur + 1
					ctx.Store(rLvl.At(s*stride + u)) //crono:vet-ignore unguardedstore
				}
			}
			moved[tid] = settled
			for i := flo; i < fhi; i++ {
				front[f[i]] = 0
				ctx.Store(rCur.At(int(f[i]))) //crono:vet-ignore unguardedstore
			}
			ctx.Barrier(bar)
		}
	})
	if err != nil {
		return nil, err
	}

	// Mark the bits that never arrived: visited holds every settled bit,
	// so this touches only the unreached cells, and counts them.
	reached := make([]int, k)
	for i := range reached {
		reached[i] = n
	}
	for v, w := range visited {
		for b := all &^ w; b != 0; b &= b - 1 {
			s := bits.TrailingZeros64(b)
			lvl[s*stride+v] = -1
			reached[s]--
		}
	}
	return &BFSBatchResult{
		Sources: append([]int(nil), sources...),
		Level:   levels,
		Visited: reached,
		Levels:  depth,
		Report:  rep,
	}, nil
}

// levelStride is the distance in int32s between consecutive BFSBatch
// level rows: n rounded up to a whole, odd number of 64-byte lines.
func levelStride(n int) int {
	const perLine = 64 / 4
	return ((n+perLine-1)/perLine | 1) * perLine
}
