package graph

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// fromEdgesRef is the sort-based CSR builder FromEdges replaced, kept as
// the reference the counting-sort build must match bit for bit: copy the
// valid edges (and their reverses), sort them all by (from, to, weight),
// keep the first copy of each (from, to), then count offsets.
func fromEdgesRef(n int, edges []Edge, undirected bool) *CSR {
	all := make([]Edge, 0, len(edges)*2)
	for _, e := range edges {
		if e.From == e.To || e.From < 0 || e.To < 0 || int(e.From) >= n || int(e.To) >= n {
			continue
		}
		all = append(all, e)
		if undirected {
			all = append(all, Edge{From: e.To, To: e.From, Weight: e.Weight})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].From != all[j].From {
			return all[i].From < all[j].From
		}
		if all[i].To != all[j].To {
			return all[i].To < all[j].To
		}
		return all[i].Weight < all[j].Weight
	})
	uniq := all[:0]
	for i, e := range all {
		if i > 0 && e.From == all[i-1].From && e.To == all[i-1].To {
			continue
		}
		uniq = append(uniq, e)
	}
	g := &CSR{
		N:       n,
		Offsets: make([]int64, n+1),
		Targets: make([]int32, len(uniq)),
		Weights: make([]int32, len(uniq)),
	}
	for _, e := range uniq {
		g.Offsets[e.From+1]++
	}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	for i, e := range uniq {
		g.Targets[i] = e.To
		g.Weights[i] = e.Weight
	}
	return g
}

func TestFromEdgesBasics(t *testing.T) {
	edges := []Edge{
		{From: 0, To: 1, Weight: 5},
		{From: 1, To: 2, Weight: 3},
		{From: 0, To: 1, Weight: 9}, // duplicate, higher weight: dropped
		{From: 2, To: 2, Weight: 1}, // self loop: dropped
		{From: 5, To: 1, Weight: 1}, // out of range: dropped
	}
	g := FromEdges(3, edges, false)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("edges %d, want 2", g.M())
	}
	w, ok := g.EdgeWeight(0, 1)
	if !ok || w != 5 {
		t.Fatalf("weight(0,1) = %d,%v; want 5", w, ok)
	}
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatal("directed edge set wrong")
	}
}

func TestFromEdgesUndirected(t *testing.T) {
	g := FromEdges(3, []Edge{{From: 0, To: 2, Weight: 7}}, true)
	if !g.IsSymmetric() {
		t.Fatal("undirected graph not symmetric")
	}
	w, ok := g.EdgeWeight(2, 0)
	if !ok || w != 7 {
		t.Fatalf("reverse weight = %d,%v", w, ok)
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		g := FromEdges(n, nil, true)
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if g.M() != 0 {
			t.Fatalf("n=%d: %d edges", n, g.M())
		}
	}
}

func TestDegreeAndStats(t *testing.T) {
	g := FromEdges(4, []Edge{
		{From: 0, To: 1, Weight: 1}, {From: 0, To: 2, Weight: 1}, {From: 0, To: 3, Weight: 1},
	}, true)
	if g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Fatalf("degrees %d/%d", g.Degree(0), g.Degree(1))
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("max degree %d", g.MaxDegree())
	}
	if g.AvgDegree() != 1.5 {
		t.Fatalf("avg degree %g", g.AvgDegree())
	}
	h := DegreeHistogram(g)
	if h[3] != 1 || h[1] != 3 {
		t.Fatalf("histogram %v", h)
	}
}

// TestFromEdgesInvariants property: any random edge list builds a valid
// CSR whose edge set matches the deduplicated input.
func TestFromEdgesInvariants(t *testing.T) {
	f := func(seed int64, en uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 2
		edges := make([]Edge, int(en))
		for i := range edges {
			edges[i] = Edge{
				From:   int32(rng.Intn(n)),
				To:     int32(rng.Intn(n)),
				Weight: rng.Int31n(50) + 1,
			}
		}
		g := FromEdges(n, edges, false)
		if g.Validate() != nil {
			return false
		}
		// Every non-loop input edge must be present.
		for _, e := range edges {
			if e.From != e.To && !g.HasEdge(int(e.From), int(e.To)) {
				return false
			}
		}
		// Every stored edge must come from the input with the minimum
		// weight among duplicates.
		for _, se := range g.Edges() {
			best := int32(1 << 30)
			for _, e := range edges {
				if e.From == se.From && e.To == se.To && e.Weight < best {
					best = e.Weight
				}
			}
			if se.Weight != best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsProduceValidGraphs(t *testing.T) {
	for _, kind := range Kinds {
		g := Generate(kind, 2000, 5)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !g.IsSymmetric() {
			t.Fatalf("%s: not symmetric", kind)
		}
		if g.N < 1900 {
			t.Fatalf("%s: only %d vertices", kind, g.N)
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, kind := range Kinds {
		a := Generate(kind, 500, 9)
		b := Generate(kind, 500, 9)
		if a.M() != b.M() {
			t.Fatalf("%s: %d vs %d edges across runs", kind, a.M(), b.M())
		}
		if d := diffCSR(a, b); d != "" {
			t.Fatalf("%s: %s across runs", kind, d)
		}
		c := Generate(kind, 500, 10)
		if c.M() == a.M() && equalEdges(a, c) {
			t.Fatalf("%s: different seeds gave identical graphs", kind)
		}
	}
}

func equalEdges(a, b *CSR) bool {
	if a.M() != b.M() {
		return false
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			return false
		}
	}
	return true
}

func TestGeneratorDegreeTargets(t *testing.T) {
	sparse := UniformSparse(4000, 8, 100, 1)
	if d := sparse.AvgDegree(); d < 12 || d > 17 {
		t.Fatalf("sparse avg degree %g, want ~16", d)
	}
	road := RoadNet(4000, 1)
	if d := road.AvgDegree(); d < 2.2 || d > 3.4 {
		t.Fatalf("road avg degree %g, want ~2.8", d)
	}
	social := SocialNet(4000, 14, 1)
	if d := social.AvgDegree(); d < 24 || d > 30 {
		t.Fatalf("social avg degree %g, want ~28", d)
	}
	// Social graphs are power law: the hub should dwarf the average.
	if social.MaxDegree() < 5*int(social.AvgDegree()) {
		t.Fatalf("social max degree %d too uniform", social.MaxDegree())
	}
	if _, sizes := ComponentsBFS(social); len(sizes) != 1 {
		t.Fatalf("social graph disconnected: %d components", len(sizes))
	}
}

func TestCitiesTriangleInequality(t *testing.T) {
	d := Cities(12, 3)
	for i := 0; i < d.N; i++ {
		if d.At(i, i) != 0 {
			t.Fatalf("diagonal (%d,%d) = %d", i, i, d.At(i, i))
		}
		for j := 0; j < d.N; j++ {
			if i == j {
				continue
			}
			if d.At(i, j) != d.At(j, i) {
				t.Fatal("asymmetric distances")
			}
			for k := 0; k < d.N; k++ {
				if k == i || k == j {
					continue
				}
				// Rounding gives +/-2 slack.
				if d.At(i, j) > d.At(i, k)+d.At(k, j)+2 {
					t.Fatalf("triangle inequality violated: d(%d,%d)=%d > %d+%d",
						i, j, d.At(i, j), d.At(i, k), d.At(k, j))
				}
			}
		}
	}
}

func TestDenseRoundTrip(t *testing.T) {
	g := UniformSparse(60, 4, 20, 8)
	d := DenseFromCSR(g)
	back := CSRFromDense(d)
	if back.M() != g.M() {
		t.Fatalf("round trip edges %d, want %d", back.M(), g.M())
	}
	for v := 0; v < g.N; v++ {
		ts, ws := g.Neighbors(v)
		for i, u := range ts {
			w, ok := back.EdgeWeight(v, int(u))
			if !ok || w != ws[i] {
				t.Fatalf("edge %d->%d lost", v, u)
			}
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := UniformSparse(200, 4, 30, 12)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf, MaxN)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != g.N || back.M() != g.M() {
		t.Fatalf("round trip %d/%d, want %d/%d", back.N, back.M(), g.N, g.M())
	}
	if d := diffCSR(back, g); d != "" {
		t.Fatalf("round trip: %s", d)
	}
}

func TestReadEdgeListFormats(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# comment\n0 1\n1 2 7\n\n"), MaxN)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 {
		t.Fatalf("inferred %d vertices", g.N)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Fatalf("default weight %d", w)
	}
	if w, _ := g.EdgeWeight(1, 2); w != 7 {
		t.Fatalf("explicit weight %d", w)
	}
	if _, err := ReadEdgeList(strings.NewReader("0 -1 3\n"), MaxN); err == nil {
		t.Fatal("negative vertex accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("# nodes 2 edges 1\n0 5 1\n"), MaxN); err == nil {
		t.Fatal("vertex beyond declared count accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("garbage\n"), MaxN); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestComponentsBFS(t *testing.T) {
	g := FromEdges(5, []Edge{
		{From: 0, To: 1, Weight: 1},
		{From: 2, To: 3, Weight: 1},
	}, true)
	labels, sizes := ComponentsBFS(g)
	if len(sizes) != 3 {
		t.Fatalf("%d components, want 3", len(sizes))
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] || labels[4] == labels[0] {
		t.Fatalf("labels %v", labels)
	}
}

func TestSummarize(t *testing.T) {
	g := UniformSparse(300, 4, 10, 3)
	s := Summarize(g)
	if s.Vertices != 300 || s.Edges != g.M() {
		t.Fatalf("summary %+v", s)
	}
	if s.LargestCC > s.Vertices || s.Components < 1 {
		t.Fatalf("summary %+v", s)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := UniformSparse(50, 3, 10, 4)
	g.Targets[0] = 1000
	if g.Validate() == nil {
		t.Fatal("out-of-range target not caught")
	}
	g = UniformSparse(50, 3, 10, 4)
	g.Offsets[10] = g.Offsets[11] + 1
	if g.Validate() == nil {
		t.Fatal("non-monotone offsets not caught")
	}
	g = UniformSparse(50, 3, 10, 4)
	g.Weights[0] = -2
	if g.Validate() == nil {
		t.Fatal("negative weight not caught")
	}
}
