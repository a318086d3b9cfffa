package crono

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"crono/internal/core"
	"crono/internal/graph"
)

func TestFacadeEndToEndNative(t *testing.T) {
	g := GenerateGraph(GraphSparse, 500, 42)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := SSSP(NewNative(), g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Platform != "native" || res.Report.Threads != 4 {
		t.Fatalf("report %+v", res.Report)
	}
	if res.Dist[0] != 0 {
		t.Fatalf("dist[src] = %d", res.Dist[0])
	}
}

func TestFacadeEndToEndSimulator(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Cores = 16
	m, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := GenerateGraph(GraphSparse, 300, 42)
	res, err := BFS(m, g, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Platform != "sim" || res.Report.Time == 0 {
		t.Fatalf("report %+v", res.Report)
	}
	if res.Report.Energy.Total() <= 0 {
		t.Fatal("no energy accounting")
	}
}

func TestFacadeAllKernels(t *testing.T) {
	if len(Suite()) != 10 {
		t.Fatalf("suite size %d", len(Suite()))
	}
	pl := NewNative()
	g := GenerateGraph(GraphSparse, 200, 1)
	d := graph.DenseFromCSR(GenerateGraph(GraphSparse, 40, 2))
	cities := graph.Cities(7, 3)

	if _, err := APSP(pl, d, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Betweenness(pl, d, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := DFS(pl, g, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := TSP(pl, cities, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectedComponents(pl, g, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := TriangleCount(pl, g, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := PageRank(pl, g, 2, 5); err != nil {
		t.Fatal(err)
	}
	cres, err := Community(pl, g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Map iteration order perturbs the float sum at the last ulp.
	if q := Modularity(g, cres.Community); q-cres.Modularity > 1e-9 || cres.Modularity-q > 1e-9 {
		t.Fatalf("modularity mismatch %g vs %g", q, cres.Modularity)
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := GenerateGraph(GraphRoadTX, 400, 5)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.M() != g.M() {
		t.Fatalf("io round trip: %d vs %d edges", back.M(), g.M())
	}
}

func TestFacadeVariants(t *testing.T) {
	pl := NewNative()
	g := GenerateGraph(GraphSparse, 300, 4)

	exact, err := SSSP(pl, g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Run(context.Background(), pl, "SSSP_DIJK", RunRequest{
		Input: BenchmarkInput{G: g}, Threads: 2, Strategy: StrategyFrontier, Delta: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := range exact.Dist {
		if exact.Dist[v] != wide.SSSP.Dist[v] {
			t.Fatalf("delta-stepping diverges at %d", v)
		}
	}

	push, err := PageRank(pl, g, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	pull, err := Run(context.Background(), pl, "PageRank", RunRequest{
		Input: BenchmarkInput{G: g}, Threads: 2, Strategy: StrategyFrontier, Iters: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := range push.Ranks {
		d := push.Ranks[v] - pull.PageRank.Ranks[v]
		if d > 1e-9 || d < -1e-9 {
			t.Fatalf("push/pull diverge at %d: %g vs %g", v, push.Ranks[v], pull.PageRank.Ranks[v])
		}
	}
}

// TestFacadeReorderAndScratch drives the layout and allocation knobs
// through the public facade: a reordered run returns bit-identical
// levels in original vertex ids, and a pooled scratch plus one
// platform replay the same request without fresh buffers.
func TestFacadeReorderAndScratch(t *testing.T) {
	g := GenerateGraph(GraphSocial, 400, 9)
	pl := NewNative()

	base, err := Run(context.Background(), pl, "BFS", RunRequest{
		Input: BenchmarkInput{G: g}, Threads: 2, Strategy: StrategyFrontier,
	})
	if err != nil {
		t.Fatal(err)
	}

	if o := PickOrder(g); o != OrderDegree && o != OrderRCM {
		t.Fatalf("PickOrder = %q", o)
	}
	ro, err := ReorderGraph(g, OrderDegree)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for i := 0; i < 2; i++ {
		got, err := Run(context.Background(), pl, "BFS", RunRequest{
			Input: BenchmarkInput{G: g}, Threads: 2, Strategy: StrategyFrontier,
			Reorder: ro, Scratch: sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := range base.BFS.Level {
			if got.BFS.Level[v] != base.BFS.Level[v] {
				t.Fatalf("rep %d: reordered level[%d] = %d, want %d",
					i, v, got.BFS.Level[v], base.BFS.Level[v])
			}
		}
	}
}

// TestFacadeBFSIncremental: whether RepairPays takes the delta (two
// inserts) or declines it (a quarter as many as the graph has edges),
// BFSIncremental returns the levels of a full recompute on the new graph.
func TestFacadeBFSIncremental(t *testing.T) {
	g := GenerateGraph(GraphSparse, 400, 3)
	old := core.BFSRef(g, 0)
	for _, c := range []struct {
		inserts int
		pays    bool
	}{{2, true}, {g.M() / 4, false}} {
		d := &EdgeDelta{}
		for i := 0; i < c.inserts; i++ {
			v, hop := i%g.N, g.N/2+i/g.N
			d.Inserts = append(d.Inserts, Edge{From: int32(v), To: int32((v + hop) % g.N), Weight: 1})
		}
		if err := d.Canonicalize(g.N); err != nil {
			t.Fatal(err)
		}
		next := ApplyDelta(g, d)
		if got := core.RepairPays(d, next.M()); got != c.pays {
			t.Fatalf("%d inserts: RepairPays = %t, want %t", c.inserts, got, c.pays)
		}
		res, err := BFSIncremental(NewNative(), next, 0, 4, old, d)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Level, core.BFSRef(next, 0)) {
			t.Errorf("%d inserts: levels differ from BFSRef on the new graph", c.inserts)
		}
	}
}
