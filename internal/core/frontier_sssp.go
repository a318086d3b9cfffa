package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// fallbackDelta is AutoSSSPDelta's bucket width for a graph with no
// edges to sample.
const fallbackDelta = 32

// AutoSSSPDelta is the bucket width SSSP_DIJK's frontier strategy uses
// when Request.Delta is unset: average edge weight times average degree,
// the classic heuristic for balancing bucket population against wasted
// re-relaxation (a bucket should admit roughly one hop's worth of
// distance progress). Weights are sampled on an even stride capped at
// 1024 edges so the estimate costs O(1) on large graphs.
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

const (
	// bucketFusion is GAP's kBinSizeThreshold: after a round a thread
	// expands its own bin of the current bucket again, with no barrier,
	// while that bin holds fewer vertices than this.
	bucketFusion = 1000
	// ringBins is how many buckets, from the current one on, a thread's
	// ring of bins covers. A vertex queued further ahead waits in the
	// thread's far list until the ring reaches its bucket.
	ringBins = 64
	// noBucket is the bucket of nothing queued.
	noBucket = math.MaxInt32
)

// ssspBins is one thread's queued vertices. ring[b%ringBins] holds the
// vertices it queued in bucket b, for b from the current bucket up to
// ringBins-1 ahead; far holds (vertex, bucket) pairs beyond that. Every
// bin keeps its own array from run to run, so a warm run allocates
// nothing.
type ssspBins struct {
	ring   [ringBins][]int32
	far    []int32
	farMin int32 // lowest bucket in far, noBucket when far is empty
	next   int32 // lowest non-empty bucket, published for the verdict
	relax  int64 // successful distance updates
}

// add queues v in bucket bk, which is at or after cur.
func (b *ssspBins) add(v, bk, cur int32) {
	if bk-cur < ringBins {
		s := &b.ring[bk&(ringBins-1)]
		*s = append(*s, v)
		return
	}
	b.far = append(b.far, v, bk)
	b.farMin = min(b.farMin, bk)
}

// lowest returns the lowest non-empty bucket from cur on, noBucket when
// every bin is empty. Every far bucket lies beyond the ring.
func (b *ssspBins) lowest(cur int32) int32 {
	for i := int32(0); i < ringBins; i++ {
		if len(b.ring[(cur+i)&(ringBins-1)]) > 0 {
			return cur + i
		}
	}
	return b.farMin
}

// ssspFrontierRun is the reusable state of one ssspFrontier execution on
// a weighted graph (see bfsFrontierRun).
type ssspFrontierRun struct {
	g       *graph.CSR
	threads int
	delta   int32
	dist    []int32
	// state packs each vertex's tentative distance (high half) with the
	// bucket it is queued in, -1 when none (low half), so that one CAS
	// both lowers the distance and queues the vertex.
	state  []int64
	bins   []ssspBins
	wl     worklist
	cur    int32 // the bucket of this round, thread 0 -> all
	rounds int

	rState, rOff, rTgt, rWgt, rNext, rFront exec.Region
	bar                                     exec.Barrier
	body                                    func(exec.Ctx)
	res                                     SSSPResult
}

// ssspFrontier runs single-source shortest paths with the frontier
// strategy. On a unit-weight graph (Weights == nil) a shortest path is a
// breadth-first one, so it runs bfsFrontier's direction-optimizing rounds
// and turns the levels into distances in place; delta plays no part.
// On a weighted graph it is delta-stepping over per-thread bins, after
// GAP: a relaxed vertex goes into its thread's bin dist/delta, a round
// expands one bucket — the lowest non-empty bin over all threads,
// gathered into the shared worklist — and each thread then keeps
// draining its own part of that bucket without a barrier while the part
// holds fewer than bucketFusion vertices. A vertex is expanded at most
// once per distance it is queued with. Distances are exact, matching
// SSSP and SSSPRef; only the schedule differs.
func ssspFrontier(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int, delta int32, s *Scratch) (*SSSPResult, error) {
	if err := validate(g, src, threads); err != nil {
		return nil, err
	}
	if delta < 1 {
		return nil, fmt.Errorf("core: delta %d < 1", delta)
	}
	if g.Weights == nil {
		return ssspUnit(goCtx, pl, g, src, threads, s)
	}
	n := g.N
	k := s.ssspFrontier()
	k.g = g
	k.threads = threads
	k.delta = delta
	k.state = grow64(k.state, n, false)
	for i := range k.state {
		k.state[i] = packState(graph.Inf, -1)
	}
	k.state[src] = packState(0, 0)
	for len(k.bins) < threads {
		k.bins = append(k.bins, ssspBins{})
	}
	k.bins = k.bins[:threads]
	for t := range k.bins {
		b := &k.bins[t]
		for i := range b.ring {
			b.ring[i] = b.ring[i][:0]
		}
		b.far, b.farMin, b.next, b.relax = b.far[:0], noBucket, noBucket, 0
	}
	k.rounds = 1
	k.cur = 0
	k.wl.reset(threads, int32(src))
	k.rState = pl.Alloc("ssspf.state", n, 8)
	k.rOff = pl.Alloc("ssspf.offsets", n+1, 8)
	k.rTgt = pl.Alloc("ssspf.targets", g.M(), 4)
	k.rWgt = pl.Alloc("ssspf.weights", g.M(), 4)
	k.rNext = pl.Alloc("ssspf.next", threads, 4)
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
	for t := range k.bins {
		total += k.bins[t].relax
	}
	k.dist = grow32(k.dist, n, s.DetachResults)
	for v, w := range k.state {
		k.dist[v] = int32(w >> 32)
	}
	res, dist := &k.res, k.dist
	if s.DetachResults {
		res, k.dist = &SSSPResult{}, nil // the payload leaves with the result
	}
	*res = SSSPResult{Dist: dist, Relaxations: total, Rounds: k.rounds, Report: rep}
	return res, nil
}

// ssspUnit is ssspFrontier on a unit-weight graph: the frontier BFS on
// the scratch's BFS state, whose level array becomes the distances.
// Relaxations counts the reached vertices but the source, each claimed
// once, and Rounds the levels.
func ssspUnit(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int, s *Scratch) (*SSSPResult, error) {
	k := s.bfsFrontier()
	k.seedSource(g.N, src, threads, s)
	rep, err := k.traverse(goCtx, pl, g, threads, 0, s)
	if err != nil {
		return nil, err
	}
	var res *SSSPResult
	dist := k.level
	if s.DetachResults {
		res, k.level = &SSSPResult{}, nil // the payload leaves with the result
	} else {
		res = &s.ssspFrontier().res
	}
	reached, levels := bfsSummary(dist)
	for v, l := range dist {
		if l < 0 {
			dist[v] = graph.Inf
		}
	}
	*res = SSSPResult{Dist: dist, Relaxations: int64(reached - 1), Rounds: levels, Report: rep}
	return res, nil
}

func (k *ssspFrontierRun) run(ctx exec.Ctx) {
	wl, threads, tid := &k.wl, k.threads, ctx.TID()
	b := &k.bins[tid]
	decide := func(int) int32 { return k.pick(ctx) }
	for {
		cur := atomic.LoadInt32(&k.cur)
		bin := &b.ring[cur&(ringBins-1)]
		if b.next == cur {
			// pick lent this bin to the merge, which has copied it into
			// the frontier and emptied it: take it back.
			wl.adopt(tid, bin)
		}
		if b.farMin-cur < ringBins {
			k.rebin(ctx, b, cur)
		}
		f := wl.frontier()
		lo, hi := chunk(tid, threads, len(f))
		ctx.LoadSpan(k.rFront.At(lo), hi-lo, 4)
		taken, queued := hi-lo, 0
		for i := lo; i < hi; i++ {
			queued += k.expand(ctx, b, f[i], cur)
		}
		// Bucket fusion: what this thread queued in the current bucket
		// is its own, so it expands a small bin at once, in place,
		// instead of paying a round of barriers for it. A bin that has
		// grown past bucketFusion waits for the next round.
		done := 0
		for len(*bin)-done > 0 && len(*bin)-done < bucketFusion {
			end := len(*bin)
			for i := done; i < end; i++ {
				queued += k.expand(ctx, b, (*bin)[i], cur)
			}
			taken += end - done
			done = end
		}
		*bin = (*bin)[:copy(*bin, (*bin)[done:])]
		b.next = b.lowest(cur)
		ctx.Store(k.rNext.At(tid))
		ctx.Active(queued - taken)
		if wl.endRound(ctx, k.bar, k.rFront, decide) == ctrlDone {
			return
		}
	}
}

// pick is the round verdict, run by thread 0 in endRound: the next
// bucket is the lowest non-empty one over every thread's bins, and each
// thread lends its bin of it to the merge as its part of the next
// frontier (run takes the emptied bin back). Done when nothing is
// queued.
func (k *ssspFrontierRun) pick(ctx exec.Ctx) int32 {
	next := int32(noBucket)
	for t := range k.bins {
		ctx.Load(k.rNext.At(t))
		next = min(next, k.bins[t].next)
	}
	if next == noBucket {
		return ctrlDone
	}
	k.rounds++
	atomic.StoreInt32(&k.cur, next)
	for t := range k.bins {
		if b := &k.bins[t]; b.next == next {
			k.wl.adopt(t, &b.ring[next&(ringBins-1)])
		}
	}
	return ctrlContinue
}

// rebin moves the far entries the ring now reaches into it and drops the
// stale ones: a vertex queued in a lower bucket since, and expanded there.
func (k *ssspFrontierRun) rebin(ctx exec.Ctx, b *ssspBins, cur int32) {
	far := b.far
	b.far, b.farMin = b.far[:0], noBucket
	for i := 0; i < len(far); i += 2 {
		v, bk := far[i], far[i+1]
		ctx.AtomicLoad(k.rState.At(int(v)))
		ctx.Compute(1)
		if int32(atomic.LoadInt64(&k.state[v])) == bk {
			b.add(v, bk, cur)
		}
	}
}

// packState is the state word of distance d, queued in bucket q.
func packState(d, q int32) int64 { return int64(d)<<32 | int64(uint32(q)) }

// expand settles v, taken from bucket cur, and relaxes its out-edges,
// queueing each improved neighbor in the bucket of its new distance. It
// returns the number of vertices it queued. An entry whose vertex is no
// longer queued in cur is stale — the vertex moved to a lower bucket, or
// was expanded after its last improvement — and costs only the check.
func (k *ssspFrontierRun) expand(ctx exec.Ctx, b *ssspBins, v, cur int32) int {
	g, state, delta := k.g, k.state, k.delta
	// Unqueue v and read its distance in one step: an improvement that
	// lands later finds v unqueued and queues it again.
	ctx.AtomicRMW(k.rState.At(int(v)))
	ctx.Compute(1)
	var dv int32
	for {
		w := atomic.LoadInt64(&state[v])
		if int32(w) != cur {
			return 0
		}
		if atomic.CompareAndSwapInt64(&state[v], w, w|0xffffffff) {
			dv = int32(w >> 32)
			break
		}
	}
	ctx.Load(k.rOff.At(int(v)))
	ts, ws := g.Neighbors(int(v))
	ctx.LoadSpan(k.rTgt.At(int(g.Offsets[v])), len(ts), 4)
	ctx.LoadSpan(k.rWgt.At(int(g.Offsets[v])), len(ts), 4)
	n := 0
	for e, u := range ts {
		nd := dv + ws[e]
		ctx.AtomicLoad(k.rState.At(int(u)))
		ctx.Compute(1)
		// Lock-free CAS-min relaxation replaces the scan kernel's
		// racy-read-then-locked-recheck. u joins bucket nd/delta unless
		// it is queued in that bucket or a lower one already: that entry
		// expands it at whatever distance it has by then.
		for {
			w := atomic.LoadInt64(&state[u])
			if nd >= int32(w>>32) {
				break
			}
			bk, q := nd/delta, int32(w)
			queue := q < 0 || q > bk
			if queue {
				q = bk
			}
			if atomic.CompareAndSwapInt64(&state[u], w, packState(nd, q)) {
				ctx.AtomicRMW(k.rState.At(int(u)))
				b.relax++
				if queue {
					b.add(u, bk, cur)
					n++
				}
				break
			}
		}
	}
	return n
}
