package core

import (
	"context"
	"math"
	"sync/atomic"

	"crono/internal/exec"
	"crono/internal/graph"
)

// DefaultCommunityPasses bounds the Louvain move sweeps. The paper's COMM
// uses a bounded heuristic that trades modularity accuracy for
// scalability (Section III-10).
const DefaultCommunityPasses = 8

// communityEps is the minimum modularity gain that justifies moving a
// vertex; the bounded heuristic stops refining below it.
const communityEps = 1e-9

// CommunityResult carries the output of the COMM benchmark.
type CommunityResult struct {
	// Community assigns each vertex its community id (a vertex id).
	Community []int32
	// Communities is the number of distinct communities.
	Communities int
	// Modularity is the final modularity of the partition.
	Modularity float64
	// Passes is the number of move sweeps executed.
	Passes int
	// Report is the platform run report.
	Report *exec.Report
}

// Community runs the COMM benchmark: a parallel single-level Louvain
// method (Section III-10). The graph is statically divided among threads;
// each thread repeatedly places its vertices into the neighboring
// community that maximizes modularity gain, updating community totals
// under atomic locks (acquired in id order to stay deadlock free). The
// bounded heuristic relaxes the inherently sequential inter-vertex
// dependencies: moves use slightly stale community totals, trading
// modularity accuracy for scalability exactly as the paper describes.
// A canceled run ends at its next barrier.
func Community(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads, maxPasses int) (*CommunityResult, error) {
	if err := validate(g, 0, threads); err != nil {
		return nil, err
	}
	if maxPasses < 1 {
		maxPasses = 1
	}
	n := g.N
	comm := make([]int32, n)
	k := make([]int64, n)    // weighted degree per vertex
	ktot := make([]int64, n) // total weighted degree per community
	var m2i int64
	for v := 0; v < n; v++ {
		comm[v] = int32(v)
		_, ws := g.Neighbors(v)
		for _, w := range ws {
			k[v] += int64(w)
		}
		ktot[v] = k[v]
		m2i += k[v]
	}
	if m2i == 0 {
		rep, err := pl.RunCtx(goCtx, threads, func(exec.Ctx) {})
		if err != nil {
			return nil, err
		}
		return communityResultFromComm(g, comm, 0, rep), nil
	}
	m2 := float64(m2i)

	rComm := pl.Alloc("comm.community", n, 4)
	rKtot := pl.Alloc("comm.ktot", n, 8)
	rOff := pl.Alloc("comm.offsets", n+1, 8)
	rTgt := pl.Alloc("comm.targets", g.M(), 4)
	rWgt := pl.Alloc("comm.weights", g.M(), 4)
	locks := exec.NewLocks(pl, n)
	bar := pl.NewBarrier(threads)
	moved := make([]int64, threads)
	inW := make([]int64, threads) // per-thread intra-community weight
	rInW := pl.Alloc("comm.inw", threads, 8)
	done := int32(0)
	passes := 0
	lastQ := -1.0

	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo, hi := chunk(tid, threads, n)
		// Neighboring-community weights, with keys kept in a slice in
		// discovery order: map iteration order is randomized, and the
		// annotation sequence (and gain tie-breaks) below must be
		// deterministic for the simulator.
		nbrW := make(map[int32]int64, 16)
		nbrC := make([]int32, 0, 16)
		for {
			moved[tid] = 0
			ctx.Active(hi - lo)
			for v := lo; v < hi; v++ {
				ctx.AtomicLoad(rComm.At(v))
				cur := atomic.LoadInt32(&comm[v])
				// Gather edge weight from v to each neighboring
				// community.
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
				// Gain of leaving cur; totals are read without holding
				// their locks — the paper's bounded heuristic tolerates
				// this staleness by design.
				kv := float64(k[v])
				ctx.AtomicLoad(rKtot.At(int(cur)))
				stay := float64(nbrW[cur]) - float64(atomic.LoadInt64(&ktot[cur])-k[v])*kv/m2
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
					// Move v: lock both community totals in id order.
					a, b := cur, best
					if a > b {
						a, b = b, a
					}
					ctx.Lock(locks[a])
					ctx.Lock(locks[b])
					ctx.AtomicLoad(rKtot.At(int(cur)))
					ctx.AtomicLoad(rKtot.At(int(best)))
					atomic.AddInt64(&ktot[cur], -k[v])
					atomic.AddInt64(&ktot[best], k[v])
					ctx.AtomicRMW(rKtot.At(int(cur)))
					ctx.AtomicRMW(rKtot.At(int(best)))
					atomic.StoreInt32(&comm[v], best)
					ctx.AtomicStore(rComm.At(v))
					ctx.Unlock(locks[b])
					ctx.Unlock(locks[a])
					moved[tid]++
				}
				ctx.Active(-1)
			}
			ctx.Barrier(bar)
			// Modularity evaluation phase: the Louvain termination
			// test ("the algorithm terminates when the modularity can
			// not be increased any further"). Intra-community weight
			// is summed in parallel; the community-total sum is a
			// sequential reduction.
			var localIn int64
			for v := lo; v < hi; v++ {
				ctx.AtomicLoad(rComm.At(v))
				cv := atomic.LoadInt32(&comm[v])
				ts, ws := g.Neighbors(v)
				ctx.LoadSpan(rTgt.At(int(g.Offsets[v])), len(ts), 4)
				for e, u := range ts {
					ctx.AtomicLoad(rComm.At(int(u)))
					ctx.Compute(1)
					if atomic.LoadInt32(&comm[u]) == cv {
						localIn += int64(ws[e])
					}
				}
			}
			inW[tid] = localIn
			ctx.Store(rInW.At(tid))
			ctx.Barrier(bar)
			if tid == 0 {
				passes++
				var any int64
				var totalIn int64
				for t := 0; t < threads; t++ {
					ctx.Load(rInW.At(t))
					any += moved[t]
					totalIn += inW[t]
				}
				q := float64(totalIn) / m2
				ctx.LoadSpan(rKtot.At(0), n, 8)
				ctx.Compute(2 * n)
				for cid := 0; cid < n; cid++ {
					kt := float64(atomic.LoadInt64(&ktot[cid])) / m2
					q -= kt * kt
				}
				stop := int32(0)
				if any == 0 || passes >= maxPasses || q-lastQ < communityEps {
					stop = 1
				}
				lastQ = q
				atomic.StoreInt32(&done, stop)
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

	return communityResultFromComm(g, comm, passes, rep), nil
}

// communityResultFromComm derives both COMM executions' summary fields
// from a final assignment: Modularity is always recomputed from it.
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

// Modularity computes Newman modularity of a partition over a symmetric
// weighted graph: Q = sum_c [ in_c/2m - (tot_c/2m)^2 ], where in_c counts
// intra-community edge weight in both directions and tot_c is the total
// weighted degree of community c. Every COMM kernel labels a community
// by a vertex id, so the per-community sums are dense arrays summed in id
// order and the result is the same bits on every call. A label outside
// [0, n) returns NaN.
func Modularity(g *graph.CSR, comm []int32) float64 {
	for _, c := range comm {
		if c < 0 || int(c) >= g.N {
			return math.NaN()
		}
	}
	var m2 float64
	in := make([]float64, g.N)
	tot := make([]float64, g.N)
	for v := 0; v < g.N; v++ {
		ts, ws := g.Neighbors(v)
		for e, u := range ts {
			w := float64(ws[e])
			m2 += w
			tot[comm[v]] += w
			if comm[u] == comm[v] {
				in[comm[v]] += w
			}
		}
	}
	if m2 == 0 {
		return 0
	}
	var q float64
	for c := range in {
		q += in[c]/m2 - (tot[c]/m2)*(tot[c]/m2)
	}
	return q
}
