package graph

import "slices"

// The transpose cache fields live on CSR (see graph.go) so every consumer
// of a graph — the hybrid BFS pull rounds, the in-CSR PageRank, the
// Afforest finish phase — shares one lazily built reverse-adjacency copy.
// The service keeps graphs immutable after construction (copy-on-write
// versions), which is what makes caching on the struct sound.

// InCSR returns the transpose of g: a CSR whose out-edges are g's
// in-edges, with weights carried over. It is built on first use and
// cached on g, so repeated callers (every pull round of every hybrid run
// on the same graph version) pay the O(N+M) construction exactly once.
// Safe for concurrent use. The returned graph must not be modified.
//
// An undirected graph (every edge stored in both directions with one
// weight) is its own transpose, and InCSR returns g itself: at once if g
// is symmetric by construction (ownTranspose), else once a fresh
// transpose compares equal to g array by array and is dropped. Sorted
// neighbor lists make equal arrays exactly symmetry, and canonical weight
// forms make equal Weights equal weights. A symmetric graph never holds a
// second copy of its edges. An IsSymmetric probe would cost O(M log deg).
func (g *CSR) InCSR() *CSR {
	g.trMu.Lock()
	defer g.trMu.Unlock()
	if g.tr.Load() == nil {
		t := transpose(g)
		if slices.Equal(t.Offsets, g.Offsets) && slices.Equal(t.Targets, g.Targets) && slices.Equal(t.Weights, g.Weights) {
			t = g
		}
		g.tr.Store(t)
	}
	return g.tr.Load()
}

// ownTranspose marks g as its own transpose when sym says it is symmetric
// by construction (an undirected FromEdges, a relabel or mirrored delta
// of such a graph), and returns g.
func (g *CSR) ownTranspose(sym bool) *CSR {
	if sym {
		g.tr.Store(g)
	}
	return g
}

// ResidentBytes is the memory held by g's arrays plus, once built and
// distinct from g, its cached transpose's. A unit graph's weight view is
// its row of ones, a weighted graph's is Weights.
func (g *CSR) ResidentBytes() int64 {
	b := 8*int64(len(g.Offsets)) + 4*int64(len(g.Targets)+len(g.wview))
	if tr := g.tr.Load(); tr != nil && tr != g {
		b += tr.ResidentBytes()
	}
	return b
}

// transpose builds the reverse graph with a counting sort over targets:
// one pass to size each in-neighbor list, one to fill. Neighbor lists
// come out sorted by source vertex because g's edges are visited in
// (from, to) order, matching the CSR sorted-neighbors invariant.
//
// A unit graph's transpose is a unit graph and builds no weights; a
// weighted graph's carries the same weights, so it is weighted too.
func transpose(g *CSR) *CSR {
	t := &CSR{
		N:       g.N,
		Offsets: make([]int64, g.N+1),
		Targets: make([]int32, g.M()),
	}
	var tws []int32
	if g.Weights != nil {
		tws = make([]int32, g.M())
	}
	for _, to := range g.Targets {
		t.Offsets[to+1]++
	}
	prefixSum(t.Offsets)
	next := make([]int64, g.N)
	copy(next, t.Offsets[:g.N])
	for v := 0; v < g.N; v++ {
		ts, ws := g.Neighbors(v)
		for i, to := range ts {
			p := next[to]
			next[to]++
			t.Targets[p] = int32(v)
			if tws != nil {
				tws[p] = ws[i]
			}
		}
	}
	t.setWeights(tws)
	return t
}
