package main

import (
	"fmt"
	"math"
	"math/rand"

	"crono"
)

// The checkers in this file are the benchmark's own sequential
// implementations. They share no code with the kernels they check, so a
// kernel bug cannot hide behind an oracle that has the same bug.

// truth is what the benchmark knows about a graph before any kernel
// runs: its largest component (where sources come from) and the
// connected-components answer.
type truth struct {
	// sources are the vertices of the largest component with degree > 0,
	// in seeded shuffled order. A traversal from any of them reaches
	// exactly reach vertices.
	sources []int
	reach   int
	// labels is the minimum vertex id of each vertex's component, comps
	// the number of components (union-find over the stored edges).
	labels []int32
	comps  int
}

// newTruth labels components with a sequential BFS, draws the source
// list from the largest one, and solves connected components with
// union-find.
func newTruth(g *crono.Graph, rng *rand.Rand) *truth {
	comp := make([]int32, g.N)
	for i := range comp {
		comp[i] = -1
	}
	var sizes []int
	queue := make([]int32, 0, g.N)
	for s := 0; s < g.N; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(sizes))
		comp[s] = id
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			ts, _ := g.Neighbors(int(queue[head]))
			for _, u := range ts {
				if comp[u] < 0 {
					comp[u] = id
					queue = append(queue, u)
				}
			}
		}
		sizes = append(sizes, len(queue))
	}
	largest := 0
	for id, sz := range sizes {
		if sz > sizes[largest] {
			largest = id
		}
	}
	t := &truth{reach: sizes[largest]}
	for v := 0; v < g.N; v++ {
		if comp[v] == int32(largest) && g.Degree(v) > 0 {
			t.sources = append(t.sources, v)
		}
	}
	rng.Shuffle(len(t.sources), func(i, j int) { t.sources[i], t.sources[j] = t.sources[j], t.sources[i] })

	// Union-find, hooking the larger root under the smaller so each root
	// is its component's minimum vertex id.
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for v := 0; v < g.N; v++ {
		ts, _ := g.Neighbors(v)
		for _, u := range ts {
			a, b := find(int32(v)), find(u)
			switch {
			case a < b:
				parent[b] = a
			case b < a:
				parent[a] = b
			}
		}
	}
	t.labels = make([]int32, g.N)
	for v := range t.labels {
		t.labels[v] = find(int32(v))
		if t.labels[v] == int32(v) {
			t.comps++
		}
	}
	return t
}

// source returns the i-th source, wrapping around the list.
func (t *truth) source(i int) int { return t.sources[i%len(t.sources)] }

// checkBFS is the problem-level BFS check: the source is at level 0,
// exactly reach vertices are reached, no edge spans more than one level,
// and every reached vertex but the source has a neighbor one level up.
func checkBFS(g *crono.Graph, src int, level []int32, reach int) error {
	if level[src] != 0 {
		return fmt.Errorf("level[src=%d] = %d, want 0", src, level[src])
	}
	reached := 0
	for v := 0; v < g.N; v++ {
		lv := level[v]
		if lv < 0 {
			continue
		}
		reached++
		hasParent := v == src
		ts, _ := g.Neighbors(v)
		for _, u := range ts {
			lu := level[u]
			if lu < 0 || lu > lv+1 {
				return fmt.Errorf("edge %d->%d spans levels %d->%d", v, u, lv, lu)
			}
			if lu == lv-1 {
				hasParent = true
			}
		}
		if !hasParent {
			return fmt.Errorf("vertex %d at level %d has no neighbor at level %d", v, lv, lv-1)
		}
	}
	if reached != reach {
		return fmt.Errorf("reached %d vertices, want %d", reached, reach)
	}
	return nil
}

// checkSSSP is the problem-level shortest-path check: the source is at
// distance 0, no edge can still be relaxed, and every reached vertex but
// the source has a tight in-edge (the graphs are symmetric, so
// out-neighbors are in-neighbors).
func checkSSSP(g *crono.Graph, src int, dist []int32, reach int) error {
	if dist[src] != 0 {
		return fmt.Errorf("dist[src=%d] = %d, want 0", src, dist[src])
	}
	reached := 0
	for v := 0; v < g.N; v++ {
		dv := dist[v]
		if dv >= noPath {
			continue
		}
		reached++
		tight := v == src
		ts, ws := g.Neighbors(v)
		for i, u := range ts {
			if dist[u] > dv+ws[i] {
				return fmt.Errorf("edge %d->%d (w=%d) is relaxable: %d -> %d", v, u, ws[i], dv, dist[u])
			}
			if dist[u]+ws[i] == dv {
				tight = true
			}
		}
		if !tight {
			return fmt.Errorf("vertex %d at distance %d has no tight edge", v, dv)
		}
	}
	if reached != reach {
		return fmt.Errorf("reached %d vertices, want %d", reached, reach)
	}
	return nil
}

// noPath is the distance the kernels report for an unreachable vertex
// (a quarter of MaxInt32, so that two of them add without overflow).
const noPath int32 = math.MaxInt32 / 4

// reachedCount counts finite distances.
func reachedCount(dist []int32) int {
	n := 0
	for _, d := range dist {
		if d < noPath {
			n++
		}
	}
	return n
}

// pageRankRef iterates the paper's Equation (1), next = r + (1-r) *
// sum(PR(j)/deg(j)), sequentially in push form. The equation is not
// normalized, so total mass is not 1; mass and per-vertex ranks are
// compared against this reference instead.
func pageRankRef(g *crono.Graph, iters int) []float64 {
	const r = 0.15
	pr := make([]float64, g.N)
	next := make([]float64, g.N)
	for i := range pr {
		pr[i] = 1 / float64(g.N)
	}
	for it := 0; it < iters; it++ {
		for v := range next {
			next[v] = r
		}
		for v := 0; v < g.N; v++ {
			ts, _ := g.Neighbors(v)
			if len(ts) == 0 {
				continue
			}
			c := (1 - r) * pr[v] / float64(len(ts))
			for _, u := range ts {
				next[u] += c
			}
		}
		pr, next = next, pr
	}
	return pr
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// closeTo reports whether a and b agree to a relative 1e-9.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// triangleCount counts triangles {v<u<w} by merging sorted neighbor
// lists.
func triangleCount(g *crono.Graph) int64 {
	var total int64
	for v := 0; v < g.N; v++ {
		tv, _ := g.Neighbors(v)
		for _, u := range tv {
			if int(u) <= v {
				continue
			}
			tu, _ := g.Neighbors(int(u))
			i, j := 0, 0
			for i < len(tv) && j < len(tu) {
				switch {
				case tv[i] < tu[j]:
					i++
				case tv[i] > tu[j]:
					j++
				default:
					if tv[i] > u {
						total++
					}
					i++
					j++
				}
			}
		}
	}
	return total
}
