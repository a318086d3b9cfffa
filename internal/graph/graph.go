// Package graph provides the input-graph substrate of the CRONO suite:
// compressed sparse row (CSR) adjacency lists, dense adjacency matrices for
// the APSP-family benchmarks, synthetic generators standing in for the
// paper's GTgraph and SNAP inputs (Table III), and edge-list I/O.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Inf is the "no path" distance. It is small enough that Inf+Inf does not
// overflow int32 arithmetic.
const Inf int32 = math.MaxInt32 / 4

// Edge is one weighted directed edge.
type Edge struct {
	From, To int32
	Weight   int32
}

// CSR is a weighted directed graph in compressed sparse row form.
// Undirected graphs store both edge directions. Neighbor lists are sorted
// by target vertex, which the triangle-counting kernel relies on.
//
// A CSR comes from one of this package's builders (FromEdges, the
// readers, the generators, Reorder, ApplyDelta, InCSR), which also set
// up the weight view Neighbors reads; a hand-assembled CSR has none.
type CSR struct {
	// N is the vertex count.
	N int
	// Offsets has length N+1; the out-edges of v are the index range
	// [Offsets[v], Offsets[v+1]) in Targets and Weights.
	Offsets []int64
	// Targets holds edge target vertices.
	Targets []int32
	// Weights holds edge weights, parallel to Targets, or is nil when
	// every weight is 1 (a unit graph). The form follows from the
	// content alone: a builder never stores an all-ones Weights. Read
	// weights through Neighbors or Weight.
	Weights []int32

	// wview is what Neighbors cuts a row's weights from: Weights itself,
	// or for a unit graph one read-only row of ones, MaxDegree long.
	// wmask is -1 or 0 to match, so the cut starts at the row's offset
	// or at 0 without a branch (see setWeights).
	wview []int32
	wmask int64

	// tr is the cached transpose, or g itself (see InCSR), built once
	// under trMu. Graphs are immutable once constructed, so it never goes
	// stale; it is deliberately excluded from Validate and Fingerprint.
	trMu sync.Mutex
	tr   atomic.Pointer[CSR]
}

// M returns the number of stored (directed) edges.
func (g *CSR) M() int { return len(g.Targets) }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v int) int { return int(g.Offsets[v+1] - g.Offsets[v]) }

// Neighbors returns the targets and weights of v's out-edges. The returned
// slices alias the graph and must not be modified. It stays branch-free
// and inlinable: kernels call it once per vertex visit, most of them
// dropping the weights.
func (g *CSR) Neighbors(v int) ([]int32, []int32) {
	lo, hi := g.Offsets[v], g.Offsets[v+1]
	w := lo & g.wmask
	return g.Targets[lo:hi], g.wview[w : w+hi-lo]
}

// Weight returns the weight of the e-th stored edge, Targets[e].
func (g *CSR) Weight(e int) int32 {
	if g.Weights == nil {
		return 1
	}
	return g.Weights[e]
}

// setWeights gives g the canonical weight form for ws, which is parallel
// to Targets or nil when every weight is known to be 1: an all-ones ws is
// dropped, and a unit graph gets a row of ones MaxDegree long for
// Neighbors to cut from.
func (g *CSR) setWeights(ws []int32) {
	if ws != nil && slices.ContainsFunc(ws, func(w int32) bool { return w != 1 }) {
		g.Weights, g.wview, g.wmask = ws, ws, -1
		return
	}
	ones := make([]int32, g.MaxDegree())
	for i := range ones {
		ones[i] = 1
	}
	g.Weights, g.wview, g.wmask = nil, ones, 0
}

// HasEdge reports whether the edge v->u exists, by binary search over v's
// sorted neighbor list.
func (g *CSR) HasEdge(v, u int) bool {
	ts, _ := g.Neighbors(v)
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= int32(u) })
	return i < len(ts) && ts[i] == int32(u)
}

// EdgeWeight returns the weight of edge v->u, or (0, false) if absent.
func (g *CSR) EdgeWeight(v, u int) (int32, bool) {
	ts, ws := g.Neighbors(v)
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= int32(u) })
	if i < len(ts) && ts[i] == int32(u) {
		return ws[i], true
	}
	return 0, false
}

// AvgDegree returns the average out-degree.
func (g *CSR) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(g.M()) / float64(g.N)
}

// MaxDegree returns the maximum out-degree.
func (g *CSR) MaxDegree() int {
	m := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// Validate checks structural invariants and returns the first violation.
func (g *CSR) Validate() error {
	if g.N < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.N)
	}
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.Offsets), g.N+1)
	}
	if g.Weights != nil && len(g.Targets) != len(g.Weights) {
		return fmt.Errorf("graph: %d targets but %d weights", len(g.Targets), len(g.Weights))
	}
	if g.N == 0 {
		if len(g.Targets) != 0 {
			return fmt.Errorf("graph: empty graph with %d edges", len(g.Targets))
		}
		return nil
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.Offsets[0])
	}
	if g.Offsets[g.N] != int64(len(g.Targets)) {
		return fmt.Errorf("graph: offsets[N] = %d, want %d", g.Offsets[g.N], len(g.Targets))
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
		lo := int(g.Offsets[v])
		ts := g.Targets[lo:g.Offsets[v+1]]
		for i, t := range ts {
			if t < 0 || int(t) >= g.N {
				return fmt.Errorf("graph: edge %d->%d out of range", v, t)
			}
			if i > 0 && ts[i-1] >= t {
				return fmt.Errorf("graph: neighbors of %d not strictly sorted", v)
			}
			if g.Weight(lo+i) < 0 {
				return fmt.Errorf("graph: negative weight on %d->%d", v, t)
			}
		}
	}
	return nil
}

// IsSymmetric reports whether every edge has a reverse edge of equal
// weight, i.e. the graph is undirected.
func (g *CSR) IsSymmetric() bool {
	for v := 0; v < g.N; v++ {
		ts, ws := g.Neighbors(v)
		for i, t := range ts {
			w, ok := g.EdgeWeight(int(t), v)
			if !ok || w != ws[i] {
				return false
			}
		}
	}
	return true
}

// FromEdges builds a CSR graph from an edge list. Self loops and edges
// with an endpoint outside [0, n) are dropped, duplicate edges are merged
// keeping the minimum weight, and neighbor lists come out strictly
// sorted. If undirected is set, the reverse of every edge is added before
// building, and the graph is its own transpose from birth (InCSR).
//
// The build is a counting sort by source vertex: count each row's
// degree, prefix-sum the counts into row starts, scatter the edges into
// their rows, then sort and deduplicate each row on its own (packRows).
// Only the per-row sorts are superlinear, and a row is one vertex's
// neighborhood.
func FromEdges(n int, edges []Edge, undirected bool) *CSR {
	valid := func(e Edge) bool {
		return e.From != e.To && e.From >= 0 && e.To >= 0 && int(e.From) < n && int(e.To) < n
	}
	off := make([]int64, n+1)
	for _, e := range edges {
		if valid(e) {
			off[e.From+1]++
			if undirected {
				off[e.To+1]++
			}
		}
	}
	prefixSum(off)
	keys := make([]uint64, off[n])
	for _, e := range edges {
		if valid(e) {
			keys[off[e.From]] = edgeKey(e.To, e.Weight)
			off[e.From]++
			if undirected {
				keys[off[e.To]] = edgeKey(e.From, e.Weight)
				off[e.To]++
			}
		}
	}
	return packRows(n, off, keys).ownTranspose(undirected)
}

// prefixSum turns per-row counts stored at off[v+1] into row starts:
// afterwards off[v] is the first slot of row v and off[n] the total.
func prefixSum(off []int64) {
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
}

// edgeKey packs an edge's target and weight into one word whose unsigned
// order is (target, weight) order: targets are non-negative, and flipping
// the weight's sign bit maps signed order onto unsigned order.
func edgeKey(to, weight int32) uint64 {
	return uint64(to)<<32 | uint64(uint32(weight)^1<<31)
}

// packRows finishes a counting-sort build. keys holds the rows back to
// back, each row's slots filled in any order, and off[v] is the end of
// row v (the row starts where row v-1 ends, row 0 at 0). Each row is
// sorted, duplicate targets keep their minimum weight, and the surviving
// edges are unpacked into an exactly sized Targets, so cap(Targets) == M,
// and, unless every surviving weight is 1, an exactly sized Weights.
// off becomes the graph's Offsets.
func packRows(n int, off []int64, keys []uint64) *CSR {
	const unitKey = 1 ^ 1<<31 // the low word of edgeKey(_, 1)
	var lo, out int64
	unit := true
	for v := 0; v < n; v++ {
		hi := off[v]
		off[v] = out
		row := keys[lo:hi]
		slices.Sort(row)
		// Compact in place; writes never pass the read position. In a
		// sorted row a target's lightest copy comes first.
		for _, k := range row {
			if out > off[v] && k>>32 == keys[out-1]>>32 {
				continue
			}
			unit = unit && uint32(k) == unitKey
			keys[out] = k
			out++
		}
		lo = hi
	}
	off[n] = out
	g := &CSR{N: n, Offsets: off, Targets: make([]int32, out)}
	for i, k := range keys[:out] {
		g.Targets[i] = int32(k >> 32)
	}
	var ws []int32
	if !unit {
		ws = make([]int32, out)
		for i, k := range keys[:out] {
			ws[i] = int32(uint32(k) ^ 1<<31)
		}
	}
	g.setWeights(ws)
	return g
}

// Edges returns the stored directed edge list.
func (g *CSR) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for v := 0; v < g.N; v++ {
		ts, ws := g.Neighbors(v)
		for i, t := range ts {
			out = append(out, Edge{From: int32(v), To: t, Weight: ws[i]})
		}
	}
	return out
}
