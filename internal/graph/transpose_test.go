package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// TestInCSRReversesEdges checks the transpose on a small directed graph:
// every edge u->v of g must appear as v->u with the same weight, and the
// result must satisfy the CSR invariants.
func TestInCSRReversesEdges(t *testing.T) {
	g := FromEdges(5, []Edge{
		{From: 0, To: 1, Weight: 3},
		{From: 0, To: 4, Weight: 7},
		{From: 2, To: 1, Weight: 1},
		{From: 3, To: 0, Weight: 9},
		{From: 4, To: 2, Weight: 5},
	}, false)
	in := g.InCSR()
	if in == g {
		t.Fatal("InCSR of a directed graph returned g itself")
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("transpose invalid: %v", err)
	}
	if in.N != g.N || in.M() != g.M() {
		t.Fatalf("transpose shape n=%d m=%d, want n=%d m=%d", in.N, in.M(), g.N, g.M())
	}
	for _, e := range g.Edges() {
		w, ok := in.EdgeWeight(int(e.To), int(e.From))
		if !ok || w != e.Weight {
			t.Fatalf("edge %d->%d w=%d missing reversed in transpose (got %d, %v)",
				e.From, e.To, e.Weight, w, ok)
		}
	}
	for _, e := range in.Edges() {
		if _, ok := g.EdgeWeight(int(e.To), int(e.From)); !ok {
			t.Fatalf("transpose has spurious edge %d->%d", e.From, e.To)
		}
	}
}

// TestInCSRSymmetric checks that an undirected graph is its own
// transpose: InCSR returns g itself and keeps no second copy of the
// edges, for every CRONO input family.
func TestInCSRSymmetric(t *testing.T) {
	for _, kind := range []Kind{KindSparse, KindSocial, KindRoadCA} {
		g := Generate(kind, 200, 11)
		if in := g.InCSR(); in != g {
			t.Fatalf("%s: InCSR of an undirected graph returned a copy, want g itself", kind)
		}
		if g.InCSR().InCSR() != g {
			t.Fatalf("%s: transpose of the aliased transpose is not g", kind)
		}
	}
}

// TestSelfTransposeMarks: a graph symmetric by construction is its own
// transpose from birth, so InCSR returns it at once and allocates
// nothing: every generator's output, its degree and RCM relabels, and the
// child of a delta that is its own reverse. The child of any other delta
// is not marked: its transpose is built and compared with it, and it is
// a distinct graph whenever the child is not symmetric.
func TestSelfTransposeMarks(t *testing.T) {
	self := func(name string, g *CSR) {
		t.Helper()
		var in *CSR
		if a := testing.AllocsPerRun(10, func() { in = g.InCSR() }); a != 0 || in != g {
			t.Errorf("%s: InCSR made %v allocations, returned g itself = %t; want 0 and g", name, a, in == g)
		}
	}
	graphs := map[string]*CSR{
		"rmat":        RMAT(8, 6, 3),
		"small-world": SmallWorld(300, 6, 0.1, 3),
		"grid":        Grid(13, 17),
		"torus":       Torus(13, 17),
		"uniform":     UniformSparse(300, 4, 9, 3),
		"road-net":    RoadNet(300, 3),
		"social-net":  SocialNet(300, 6, 3),
	}
	for _, kind := range []Kind{KindSparse, KindRoadTX, KindRoadPA, KindRoadCA, KindSocial, KindSocialDense} {
		graphs[string(kind)] = Generate(kind, 300, 5)
	}
	for name, g := range graphs {
		self(name, g)
		for _, o := range Orders() {
			r, err := Reorder(g, o)
			if err != nil {
				t.Fatal(err)
			}
			self(name+"/"+string(o), r.G)
		}

		// An edge to delete, and a pair of vertices with no edge between.
		e := g.Edges()[0]
		a, b := int32(0), int32(1)
		for g.HasEdge(int(a), int(b)) { // vertex 0 has few of the others as neighbors
			b++
		}
		for _, c := range []struct {
			name     string
			d        EdgeDelta
			mirrored bool
		}{
			{"mirrored", EdgeDelta{
				Inserts: []Edge{{From: a, To: b, Weight: 3}, {From: b, To: a, Weight: 3}},
				Deletes: []Edge{{From: e.From, To: e.To}, {From: e.To, To: e.From}},
			}, true},
			{"one-way insert", EdgeDelta{Inserts: []Edge{{From: a, To: b, Weight: 3}}}, false},
			{"uneven weights", EdgeDelta{Inserts: []Edge{{From: a, To: b, Weight: 3}, {From: b, To: a, Weight: 4}}}, false},
			{"one-way delete", EdgeDelta{Deletes: []Edge{{From: e.From, To: e.To}}}, false},
		} {
			if err := c.d.Canonicalize(g.N); err != nil {
				t.Fatal(err)
			}
			child := ApplyDelta(g, &c.d)
			if c.mirrored {
				self(name+"/"+c.name, child)
				continue
			}
			in := child.InCSR()
			if in == child {
				t.Errorf("%s/%s: an asymmetric child is its own transpose", name, c.name)
				continue
			}
			rev := child.Edges()
			for i := range rev {
				rev[i].From, rev[i].To = rev[i].To, rev[i].From
			}
			if d := diffCSR(in, fromEdgesRef(child.N, rev, false)); d != "" {
				t.Errorf("%s/%s: transpose: %s", name, c.name, d)
			}
		}
	}
}

// TestInCSRAsymmetricWeights checks a graph that is symmetric in
// structure but not in weights: its transpose carries the reversed
// weights, so it must be a distinct CSR.
func TestInCSRAsymmetricWeights(t *testing.T) {
	g := FromEdges(3, []Edge{
		{From: 0, To: 1, Weight: 2}, {From: 1, To: 0, Weight: 5},
		{From: 1, To: 2, Weight: 4}, {From: 2, To: 1, Weight: 4},
	}, false)
	in := g.InCSR()
	if in == g {
		t.Fatal("InCSR aliased a graph whose reverse edges carry other weights")
	}
	if w, ok := in.EdgeWeight(1, 0); !ok || w != 2 {
		t.Fatalf("transpose edge 1->0 weight %d (%v), want 2 (the weight of 0->1)", w, ok)
	}
	if w, ok := in.EdgeWeight(0, 1); !ok || w != 5 {
		t.Fatalf("transpose edge 0->1 weight %d (%v), want 5 (the weight of 1->0)", w, ok)
	}
}

// TestInCSRCached checks the lazily built transpose is constructed once
// and shared: repeated and concurrent calls return the same pointer.
func TestInCSRCached(t *testing.T) {
	g := Generate(KindSocial, 500, 3)
	first := g.InCSR()
	if g.InCSR() != first {
		t.Fatal("second InCSR call returned a different transpose")
	}
	var wg sync.WaitGroup
	got := make([]*CSR, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = g.InCSR()
		}(i)
	}
	wg.Wait()
	for i, in := range got {
		if in != first {
			t.Fatalf("concurrent caller %d got a different transpose", i)
		}
	}
}

// TestResidentBytesCountsTranspose: a CSR's resident bytes grow by its
// transpose's once one is built, and not at all when the graph is its own
// transpose.
func TestResidentBytesCountsTranspose(t *testing.T) {
	g := FromEdges(3, []Edge{{From: 0, To: 1, Weight: 2}, {From: 1, To: 2, Weight: 4}}, false)
	own := int64(8*4 + 4*2 + 4*2) // offsets, targets, weights
	if b := g.ResidentBytes(); b != own {
		t.Fatalf("resident bytes %d, want %d", b, own)
	}
	g.InCSR()
	if b := g.ResidentBytes(); b != 2*own {
		t.Fatalf("resident bytes with transpose %d, want %d", b, 2*own)
	}
	sym := Generate(KindRoadCA, 200, 11)
	before := sym.ResidentBytes()
	if sym.InCSR(); sym.ResidentBytes() != before {
		t.Fatal("a symmetric graph's self-transpose was counted twice")
	}
}

// TestInCSRMatchesReversedBuild: the transpose of a directed graph, unit
// or weighted, is the graph built from its reversed edges, in content and
// in weight form.
func TestInCSRMatchesReversedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		edges := make([]Edge, rng.Intn(120))
		for i := range edges {
			edges[i] = Edge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n)), Weight: 1}
			if trial%2 == 1 {
				edges[i].Weight = int32(rng.Intn(4))
			}
		}
		g := FromEdges(n, edges, false)
		rev := g.Edges()
		for i := range rev {
			rev[i].From, rev[i].To = rev[i].To, rev[i].From
		}
		if d := diffCSR(g.InCSR(), fromEdgesRef(n, rev, false)); d != "" {
			t.Fatalf("trial %d (n=%d, m=%d): %s", trial, n, g.M(), d)
		}
	}
}

// TestResidentBytesClosedForm: a unit graph holds Offsets, Targets and
// one row of ones, 8(n+1) + 4m + 4·MaxDegree bytes; a weighted one holds
// Offsets, Targets and Weights, 8(n+1) + 8m.
func TestResidentBytesClosedForm(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		unit bool
	}{{KindSocial, true}, {KindRoadCA, false}} {
		g := Generate(c.kind, 4096, 1)
		n, m := int64(g.N), int64(g.M())
		want := 8*(n+1) + 8*m
		if c.unit {
			want = 8*(n+1) + 4*m + 4*int64(g.MaxDegree())
		}
		if b := g.ResidentBytes(); b != want {
			t.Errorf("%s: resident bytes %d, want %d", c.kind, b, want)
		}
		if (g.Weights == nil) != c.unit {
			t.Errorf("%s: Weights nil = %t, want %t", c.kind, g.Weights == nil, c.unit)
		}
	}
}
