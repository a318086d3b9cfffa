package crono

import (
	"bytes"
	"context"
	"strings"
	"testing"
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
	pl := NewNative()
	g := GenerateGraph(GraphSparse, 200, 1)
	d := DenseFromGraph(GenerateGraph(GraphSparse, 40, 2))
	cities := GenerateCities(7, 3)

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

func TestFacadeSuiteAndExperiments(t *testing.T) {
	if len(Suite()) != 10 {
		t.Fatalf("suite size %d", len(Suite()))
	}
	if _, err := BenchmarkByName("TSP"); err != nil {
		t.Fatal(err)
	}
	if len(Experiments()) < 13 {
		t.Fatalf("experiments %d", len(Experiments()))
	}
	e, err := ExperimentByID("tab1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := DefaultExperimentConfig(&buf)
	if err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SSSP_DIJK") {
		t.Fatal("tab1 output incomplete")
	}
}

func TestFacadeVariants(t *testing.T) {
	pl := NewNative()
	g := GenerateGraph(GraphSparse, 300, 4)

	exact, err := SSSP(pl, g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := SSSPDelta(pl, g, 0, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	for v := range exact.Dist {
		if exact.Dist[v] != wide.Dist[v] {
			t.Fatalf("delta-stepping diverges at %d", v)
		}
	}

	bt, err := BFSTarget(pl, g, 0, g.N-1, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := BFS(pl, g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Found != (full.Level[g.N-1] >= 0) || (bt.Found && bt.Level != full.Level[g.N-1]) {
		t.Fatalf("targeted BFS level %d vs full %d", bt.Level, full.Level[g.N-1])
	}

	if _, err := BetweennessBrandes(pl, g, 2); err != nil {
		t.Fatal(err)
	}
	push, err := PageRank(pl, g, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	pull, err := PageRankPull(pl, g, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for v := range push.Ranks {
		d := push.Ranks[v] - pull.Ranks[v]
		if d > 1e-9 || d < -1e-9 {
			t.Fatalf("push/pull diverge at %d: %g vs %g", v, push.Ranks[v], pull.Ranks[v])
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
