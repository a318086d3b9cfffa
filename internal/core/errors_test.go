package core

import (
	"context"
	"testing"

	"crono/internal/graph"
	"crono/internal/native"
)

// TestKernelInputValidation exercises every kernel's error paths.
func TestKernelInputValidation(t *testing.T) {
	pl := native.New()
	g := pathGraph(4)

	if _, err := BFS(context.Background(), pl, g, 9, 2); err == nil {
		t.Error("BFS out-of-range source accepted")
	}
	if _, err := BFS(context.Background(), pl, nil, 0, 2); err == nil {
		t.Error("BFS nil graph accepted")
	}
	if _, err := DFS(context.Background(), pl, g, -1, 2); err == nil {
		t.Error("DFS negative source accepted")
	}
	if _, err := ConnectedComponents(context.Background(), pl, g, 0); err == nil {
		t.Error("CC zero threads accepted")
	}
	if _, err := TriangleCount(context.Background(), pl, &graph.CSR{Offsets: []int64{0}}, 1); err == nil {
		t.Error("TRI empty graph accepted")
	}
	if _, err := PageRank(context.Background(), pl, g, -3, 5); err == nil {
		t.Error("PR negative threads accepted")
	}
	if _, err := Community(context.Background(), pl, nil, 2, 4); err == nil {
		t.Error("COMM nil graph accepted")
	}
	if _, err := APSP(context.Background(), pl, nil, 2); err == nil {
		t.Error("APSP nil matrix accepted")
	}
	if _, err := APSP(context.Background(), pl, graph.NewDense(0), 2); err == nil {
		t.Error("APSP empty matrix accepted")
	}
	if _, err := APSP(context.Background(), pl, graph.NewDense(4), 0); err == nil {
		t.Error("APSP zero threads accepted")
	}
	if _, err := Betweenness(context.Background(), pl, nil, 2); err == nil {
		t.Error("BETW nil matrix accepted")
	}
	if _, err := Betweenness(context.Background(), pl, graph.NewDense(3), 0); err == nil {
		t.Error("BETW zero threads accepted")
	}
	if _, err := TSP(context.Background(), pl, graph.Cities(1, 1), 2); err == nil {
		t.Error("TSP one city accepted")
	}
	if _, err := TSP(context.Background(), pl, nil, 2); err == nil {
		t.Error("TSP nil cities accepted")
	}
	if _, err := BetweennessBrandes(context.Background(), pl, nil, 1); err == nil {
		t.Error("Brandes nil graph accepted")
	}
	if _, err := pageRankPull(context.Background(), pl, nil, 1, 3, NewScratch()); err == nil {
		t.Error("pageRankPull nil graph accepted")
	}
}

// TestMorePageRankIterationClamp: iters < 1 clamps to one iteration.
func TestMorePageRankIterationClamp(t *testing.T) {
	g := pathGraph(8)
	res, err := PageRank(context.Background(), native.New(), g, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations %d, want clamp to 1", res.Iterations)
	}
	pull, err := pageRankPull(context.Background(), native.New(), g, 2, -5, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if pull.Iterations != 1 {
		t.Fatalf("pull iterations %d", pull.Iterations)
	}
}

// TestCommunityPassClamp: maxPasses < 1 clamps to one pass.
func TestCommunityPassClamp(t *testing.T) {
	res, err := Community(context.Background(), native.New(), twoCliques(4), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes < 1 {
		t.Fatalf("passes %d", res.Passes)
	}
}

// TestCommunityEdgelessGraph: an edgeless graph yields singleton
// communities and zero modularity without running the kernel.
func TestCommunityEdgelessGraph(t *testing.T) {
	g := graph.FromEdges(5, nil, true)
	res, err := Community(context.Background(), native.New(), g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Communities != 5 || res.Modularity != 0 {
		t.Fatalf("edgeless: %d communities, Q=%g", res.Communities, res.Modularity)
	}
}

// TestSSSPSingleVertex and friends: trivial graphs run on all kernels.
func TestTrivialGraphsAcrossKernels(t *testing.T) {
	pl := native.New()
	g := graph.FromEdges(1, nil, true)
	if r, err := SSSP(context.Background(), pl, g, 0, 2); err != nil || r.Dist[0] != 0 {
		t.Fatalf("SSSP single vertex: %v", err)
	}
	if r, err := BFS(context.Background(), pl, g, 0, 2); err != nil || r.Visited != 1 {
		t.Fatalf("BFS single vertex: %v", err)
	}
	if r, err := TriangleCount(context.Background(), pl, g, 2); err != nil || r.Total != 0 {
		t.Fatalf("TRI single vertex: %v", err)
	}
	if r, err := ConnectedComponents(context.Background(), pl, g, 2); err != nil || r.Components != 1 {
		t.Fatalf("CC single vertex: %v", err)
	}
}
