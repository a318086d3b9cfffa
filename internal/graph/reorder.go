package graph

import (
	"fmt"
	"slices"
)

// This file implements vertex reordering, the classic software response
// to the low locality the paper characterizes: relabeling vertices so
// that neighbors share cache lines turns scattered accesses into
// sequential ones. The abl-reorder experiment measures the effect on the
// simulated machine.

// Order names a deterministic vertex-reordering policy. Orderings are a
// preprocessing step: kernels run over the permuted CSR and their
// per-vertex results are mapped back through the inverse permutation, so
// callers never observe permuted vertex ids.
type Order string

const (
	// OrderNone leaves the upload-order layout untouched.
	OrderNone Order = "none"
	// OrderDegree relabels by descending degree (ties by ascending
	// vertex id): hub packing, the classic layout for power-law/social
	// graphs, concentrating the hot high-degree rows in few cache lines.
	OrderDegree Order = "degree"
	// OrderRCM is a reverse Cuthill-McKee-style bandwidth reducer:
	// per-component breadth-first traversal from a minimum-degree seed,
	// visiting neighbors in ascending degree, then reversed. It pulls
	// edge endpoints close together, the right layout for road/mesh
	// graphs with large diameter and uniform degree.
	OrderRCM Order = "rcm"
)

// Valid reports whether o names a known ordering.
func (o Order) Valid() bool {
	return o == OrderNone || o == OrderDegree || o == OrderRCM
}

// Orders lists the materializable (non-identity) orderings.
func Orders() []Order { return []Order{OrderDegree, OrderRCM} }

// Reordered is a permuted view of a CSR: the relabeled graph plus both
// directions of the vertex mapping. Perm maps original ids to permuted
// ids (old -> new); Inv maps back (new -> old). Per-vertex results
// computed on G are restored to the original labeling with
// ApplyVertexPermutation(result, Inv).
type Reordered struct {
	// G is the relabeled graph.
	G *CSR
	// Order is the policy that produced the permutation.
	Order Order
	// Perm maps original vertex ids to permuted ids.
	Perm []int32
	// Inv maps permuted vertex ids back to original ids.
	Inv []int32
}

// Reorder relabels g under the named ordering and returns the permuted
// graph with its forward and inverse permutation maps. Orderings are
// deterministic: the same graph always yields the same permutation.
// OrderNone returns an identity Reordered sharing g.
func Reorder(g *CSR, o Order) (*Reordered, error) {
	if g == nil {
		return nil, fmt.Errorf("graph: reorder of nil graph")
	}
	var perm []int32
	switch o {
	case OrderNone:
		perm = make([]int32, g.N)
		for i := range perm {
			perm[i] = int32(i)
		}
		return &Reordered{G: g, Order: o, Perm: perm, Inv: slices.Clone(perm)}, nil
	case OrderDegree:
		perm = degreePerm(g)
	case OrderRCM:
		perm = rcmPerm(g)
	default:
		return nil, fmt.Errorf("graph: unknown order %q (want %q, %q or %q)",
			o, OrderNone, OrderDegree, OrderRCM)
	}
	r := applyPermutation(g, perm)
	r.Order = o
	return &r, nil
}

// ReorderRCM relabels g's vertices in reverse Cuthill-McKee order:
// components are processed by ascending minimum vertex id, each explored
// breadth-first from its minimum-degree vertex (ties by ascending id)
// with neighbors visited in ascending degree (ties by ascending id), and
// the full discovery sequence is reversed. The result is the usual RCM
// bandwidth reduction that packs road/mesh neighborhoods into nearby
// ids. It returns the relabeled graph and the old->new mapping.
func ReorderRCM(g *CSR) (*CSR, []int32) {
	r := applyPermutation(g, rcmPerm(g))
	return r.G, r.Perm
}

// rcmPerm is ReorderRCM's old->new mapping.
func rcmPerm(g *CSR) []int32 {
	n := g.N
	seq := make([]int32, 0, n) // discovery order (new -> old, pre-reversal)
	seen := make([]bool, n)
	comp := make([]int32, 0, 64)
	queue := make([]int32, 0, 64)
	nbuf := make([]uint64, 0, 64)
	for v := 0; v < n; v++ {
		if seen[v] {
			continue
		}
		// Collect the component to find its minimum-degree seed.
		comp = append(comp[:0], int32(v))
		seen[v] = true
		for head := 0; head < len(comp); head++ {
			ts, _ := g.Neighbors(int(comp[head]))
			for _, u := range ts {
				if !seen[u] {
					seen[u] = true
					comp = append(comp, u)
				}
			}
		}
		start := comp[0]
		for _, c := range comp[1:] {
			dc, ds := g.Degree(int(c)), g.Degree(int(start))
			if dc < ds || (dc == ds && c < start) {
				start = c
			}
		}
		// Cuthill-McKee breadth-first pass from the seed; the component
		// marks double as the visited set for this second traversal.
		for _, c := range comp {
			seen[c] = false
		}
		queue = append(queue[:0], start)
		seen[start] = true
		for head := 0; head < len(queue); head++ {
			w := queue[head]
			seq = append(seq, w)
			ts, _ := g.Neighbors(int(w))
			nbuf = nbuf[:0]
			for _, u := range ts {
				if !seen[u] {
					seen[u] = true
					nbuf = append(nbuf, uint64(g.Degree(int(u)))<<32|uint64(u)) // (degree, id) order
				}
			}
			slices.Sort(nbuf)
			for _, k := range nbuf {
				queue = append(queue, int32(uint32(k)))
			}
		}
	}
	perm := make([]int32, n) // old -> new
	for i, old := range seq {
		perm[old] = int32(n - 1 - i) // the "reverse" in RCM
	}
	return perm
}

// DegreeSkewThreshold is the max-degree/average-degree ratio above which
// PickOrder classifies a graph as power-law and chooses hub packing.
const DegreeSkewThreshold = 8

// PickOrder chooses an ordering from the graph's degree skew: power-law
// graphs (max degree >> average degree) get OrderDegree hub packing,
// while flat-degree graphs — the road/mesh class — get OrderRCM
// bandwidth reduction.
func PickOrder(g *CSR) Order {
	avg := g.AvgDegree()
	if avg <= 0 {
		return OrderRCM
	}
	if float64(g.MaxDegree()) >= DegreeSkewThreshold*avg {
		return OrderDegree
	}
	return OrderRCM
}

// ReorderBFS relabels g's vertices in breadth-first discovery order from
// the given root (unreached vertices keep relative order after the
// reached ones). Neighbors end up with nearby ids, improving the spatial
// locality of distance/rank/label arrays. It returns the relabeled graph
// and the mapping from old to new vertex ids.
func ReorderBFS(g *CSR, root int) (*CSR, []int32) {
	n := g.N
	perm := make([]int32, n) // old -> new
	for i := range perm {
		perm[i] = -1
	}
	next := int32(0)
	queue := make([]int32, 0, n)
	visit := func(s int32) {
		if perm[s] != -1 {
			return
		}
		perm[s] = next
		next++
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			ts, _ := g.Neighbors(int(v))
			for _, u := range ts {
				if perm[u] == -1 {
					perm[u] = next
					next++
					queue = append(queue, u)
				}
			}
		}
	}
	if n > 0 {
		if root < 0 || root >= n {
			root = 0
		}
		visit(int32(root))
		for v := 0; v < n; v++ {
			visit(int32(v))
		}
	}
	r := applyPermutation(g, perm)
	return r.G, r.Perm
}

// ReorderByDegree relabels vertices by descending degree (hubs first,
// ties by ascending vertex id), a common layout for power-law graphs: the
// hot hub rows pack into few cache lines. The order is a stable counting
// sort by degree.
func ReorderByDegree(g *CSR) (*CSR, []int32) {
	r := applyPermutation(g, degreePerm(g))
	return r.G, r.Perm
}

// degreePerm is ReorderByDegree's old->new mapping.
func degreePerm(g *CSR) []int32 {
	n := g.N
	next := make([]int32, g.MaxDegree()+1) // per degree: its next new id
	for v := 0; v < n; v++ {
		next[g.Degree(v)]++
	}
	id := int32(0)
	for d := len(next) - 1; d >= 0; d-- {
		id, next[d] = id+next[d], id
	}
	perm := make([]int32, n) // old -> new
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		perm[v] = next[d]
		next[d]++
	}
	return perm
}

// applyPermutation relabels g through perm (old -> new) into a Reordered
// with Order unset. It is one scatter in new-id order: new id w joins
// row perm[x] for each in-neighbor x of inv[w] (from InCSR: g itself if
// symmetric, else g's transpose, kept on g), so rows are born sorted. A
// symmetric g's relabel is its own transpose and takes five allocations:
// Offsets, Targets, Weights or a unit graph's row of ones, Inv, the CSR.
func applyPermutation(g *CSR, perm []int32) Reordered {
	n, in := g.N, g.InCSR()
	inv := make([]int32, n)
	off := make([]int64, n+1)
	for v, w := range perm {
		inv[w] = int32(v)
		off[w+1] = int64(g.Degree(v))
	}
	prefixSum(off)
	pg := &CSR{N: n, Offsets: off, Targets: make([]int32, g.M())}
	ws := make([]int32, len(g.Weights)) // empty for a unit graph
	for w, v := range inv {
		xs, xws := in.Neighbors(int(v))
		for i, x := range xs {
			p := off[perm[x]] // the next free slot of row perm[x]
			off[perm[x]]++
			pg.Targets[p] = int32(w)
			if len(ws) > 0 {
				ws[p] = xws[i]
			}
		}
	}
	// Each off[r] now ends row r: shift the ends into row starts.
	copy(off[1:], off[:n])
	off[0] = 0
	pg.setWeights(ws)
	return Reordered{G: pg.ownTranspose(in == g), Perm: perm, Inv: inv}
}

// ApplyVertexPermutation maps per-vertex data through a permutation so
// results computed on a reordered graph can be compared against the
// original labeling: out[perm[v]] = in[v].
func ApplyVertexPermutation[T any](in []T, perm []int32) []T {
	out := make([]T, len(in))
	for v, x := range in {
		out[perm[v]] = x
	}
	return out
}

// Locality scores a graph layout: the fraction of edges whose endpoints
// land within window vertex ids of each other (i.e. likely on nearby
// cache lines). Higher is better.
func Locality(g *CSR, window int) float64 {
	if g.M() == 0 {
		return 0
	}
	close := 0
	for v := 0; v < g.N; v++ {
		ts, _ := g.Neighbors(v)
		for _, t := range ts {
			d := int(t) - v
			if d < 0 {
				d = -d
			}
			if d <= window {
				close++
			}
		}
	}
	return float64(close) / float64(g.M())
}
