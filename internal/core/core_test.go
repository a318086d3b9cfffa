package core

import (
	"context"
	"math"
	"testing"

	"crono/internal/graph"
	"crono/internal/native"
)

var testThreads = []int{1, 2, 3, 4, 8}

func testGraphs(tb testing.TB) map[string]*graph.CSR {
	tb.Helper()
	gs := map[string]*graph.CSR{
		"sparse":  graph.UniformSparse(400, 4, 50, 1),
		"road":    graph.RoadNet(400, 2),
		"social":  graph.SocialNet(300, 5, 3),
		"path":    pathGraph(64),
		"star":    starGraph(65),
		"tiny":    graph.UniformSparse(8, 2, 9, 4),
		"single":  graph.FromEdges(1, nil, true),
		"discon":  disconnectedGraph(),
		"2clique": twoCliques(6),
	}
	for name, g := range gs {
		if err := g.Validate(); err != nil {
			tb.Fatalf("graph %s invalid: %v", name, err)
		}
	}
	return gs
}

// pathGraph is a line of n vertices with unit weights.
func pathGraph(n int) *graph.CSR {
	var edges []graph.Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{From: int32(i), To: int32(i + 1), Weight: 1})
	}
	return graph.FromEdges(n, edges, true)
}

// starGraph is a hub with n-1 spokes.
func starGraph(n int) *graph.CSR {
	var edges []graph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{From: 0, To: int32(i), Weight: int32(i%7 + 1)})
	}
	return graph.FromEdges(n, edges, true)
}

// disconnectedGraph has three components: a triangle, an edge and an
// isolated vertex.
func disconnectedGraph() *graph.CSR {
	edges := []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 2}, {From: 2, To: 0, Weight: 3},
		{From: 3, To: 4, Weight: 4},
	}
	return graph.FromEdges(6, edges, true)
}

// twoCliques joins two k-cliques with a single bridge edge: the canonical
// community-detection fixture.
func twoCliques(k int) *graph.CSR {
	var edges []graph.Edge
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, graph.Edge{From: int32(i), To: int32(j), Weight: 1})
			edges = append(edges, graph.Edge{From: int32(k + i), To: int32(k + j), Weight: 1})
		}
	}
	edges = append(edges, graph.Edge{From: 0, To: int32(k), Weight: 1})
	return graph.FromEdges(2*k, edges, true)
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	for name, g := range testGraphs(t) {
		ref := SSSPRef(g, 0)
		for _, p := range testThreads {
			res, err := SSSP(context.Background(), native.New(), g, 0, p)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			for v := range ref {
				if res.Dist[v] != ref[v] {
					t.Fatalf("%s p=%d: dist[%d]=%d, want %d", name, p, v, res.Dist[v], ref[v])
				}
			}
			if res.Report.Threads != p {
				t.Fatalf("%s: report threads = %d, want %d", name, res.Report.Threads, p)
			}
		}
	}
}

func TestSSSPErrors(t *testing.T) {
	g := pathGraph(4)
	if _, err := SSSP(context.Background(), native.New(), g, -1, 2); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := SSSP(context.Background(), native.New(), g, 4, 2); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := SSSP(context.Background(), native.New(), g, 0, 0); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := SSSP(context.Background(), native.New(), nil, 0, 1); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestBFSMatchesRef(t *testing.T) {
	for name, g := range testGraphs(t) {
		ref := BFSRef(g, 0)
		for _, p := range testThreads {
			res, err := BFS(context.Background(), native.New(), g, 0, p)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			for v := range ref {
				if res.Level[v] != ref[v] {
					t.Fatalf("%s p=%d: level[%d]=%d, want %d", name, p, v, res.Level[v], ref[v])
				}
			}
		}
	}
}

func TestBFSVisitedAndLevels(t *testing.T) {
	g := pathGraph(10)
	res, err := BFS(context.Background(), native.New(), g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 10 {
		t.Fatalf("visited = %d, want 10", res.Visited)
	}
	if res.Levels != 10 {
		t.Fatalf("levels = %d, want 10", res.Levels)
	}
}

func TestDFSVisitsReachableSet(t *testing.T) {
	for name, g := range testGraphs(t) {
		ref := DFSRef(g, 0)
		for _, p := range testThreads {
			res, err := DFS(context.Background(), native.New(), g, 0, p)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			for v := range ref {
				if res.Visited[v] != ref[v] {
					t.Fatalf("%s p=%d: visited[%d]=%v, want %v", name, p, v, res.Visited[v], ref[v])
				}
			}
		}
	}
}

func TestAPSPMatchesFloydWarshall(t *testing.T) {
	for _, name := range []string{"sparse", "road", "discon", "2clique"} {
		g := testGraphs(t)[name]
		if g.N > 128 {
			g = graph.UniformSparse(96, 4, 20, 7)
		}
		d := graph.DenseFromCSR(g)
		ref := FloydWarshallRef(d)
		for _, p := range testThreads {
			res, err := APSP(context.Background(), native.New(), d, p)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			for i := range ref {
				if res.Dist[i] != ref[i] {
					t.Fatalf("%s p=%d: dist[%d]=%d, want %d", name, p, i, res.Dist[i], ref[i])
				}
			}
		}
	}
}

func TestBetweennessMatchesRef(t *testing.T) {
	g := graph.UniformSparse(48, 3, 10, 11)
	d := graph.DenseFromCSR(g)
	ref := BetweennessRef(d)
	for _, p := range testThreads {
		res, err := Betweenness(context.Background(), native.New(), d, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for v := range ref {
			if res.Centrality[v] != ref[v] {
				t.Fatalf("p=%d: centrality[%d]=%d, want %d", p, v, res.Centrality[v], ref[v])
			}
		}
	}
}

func TestBetweennessHubDominates(t *testing.T) {
	// In a star, every (spoke,spoke) pair routes through the hub.
	g := starGraph(10)
	d := graph.DenseFromCSR(g)
	res, err := Betweenness(context.Background(), native.New(), d, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 10; v++ {
		if res.Centrality[v] >= res.Centrality[0] {
			t.Fatalf("spoke %d centrality %d >= hub %d", v, res.Centrality[v], res.Centrality[0])
		}
	}
}

func TestTSPFindsOptimum(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		cities := graph.Cities(n, int64(n))
		want := TSPRef(cities)
		for _, p := range testThreads {
			res, err := TSP(context.Background(), native.New(), cities, p)
			if err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			if res.Cost != want {
				t.Fatalf("n=%d p=%d: cost=%d, want %d", n, p, res.Cost, want)
			}
			if len(res.Tour) != n {
				t.Fatalf("n=%d: tour length %d", n, len(res.Tour))
			}
		}
	}
}

func TestTSPTourIsValidPermutation(t *testing.T) {
	cities := graph.Cities(9, 99)
	res, err := TSP(context.Background(), native.New(), cities, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	for _, c := range res.Tour {
		if seen[c] {
			t.Fatalf("city %d repeated in tour %v", c, res.Tour)
		}
		seen[c] = true
	}
	if len(seen) != 9 || res.Tour[0] != 0 {
		t.Fatalf("bad tour %v", res.Tour)
	}
}

func TestConnectedComponentsMatchesUnionFind(t *testing.T) {
	for name, g := range testGraphs(t) {
		ref := ComponentsRef(g)
		for _, p := range testThreads {
			res, err := ConnectedComponents(context.Background(), native.New(), g, p)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			for v := range ref {
				if res.Labels[v] != ref[v] {
					t.Fatalf("%s p=%d: label[%d]=%d, want %d", name, p, v, res.Labels[v], ref[v])
				}
			}
		}
	}
}

func TestConnectedComponentsCounts(t *testing.T) {
	res, err := ConnectedComponents(context.Background(), native.New(), disconnectedGraph(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 3 {
		t.Fatalf("components = %d, want 3", res.Components)
	}
}

func TestTriangleCountMatchesRef(t *testing.T) {
	for name, g := range testGraphs(t) {
		want := TriangleCountRef(g)
		for _, p := range testThreads {
			res, err := TriangleCount(context.Background(), native.New(), g, p)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if res.Total != want {
				t.Fatalf("%s p=%d: total=%d, want %d", name, p, res.Total, want)
			}
		}
	}
}

func TestTriangleCountPerVertex(t *testing.T) {
	// A k-clique gives each vertex C(k-1,2) triangles.
	g := twoCliques(5)
	res, err := TriangleCount(context.Background(), native.New(), g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 5; v++ { // interior vertices of the first clique
		if res.PerVertex[v] != 6 {
			t.Fatalf("clique vertex %d has %d triangles, want 6", v, res.PerVertex[v])
		}
	}
}

func TestPageRankMatchesRef(t *testing.T) {
	for name, g := range testGraphs(t) {
		ref := PageRankRef(g, 10)
		for _, p := range testThreads {
			res, err := PageRank(context.Background(), native.New(), g, p, 10)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			for v := range ref {
				if math.Abs(res.Ranks[v]-ref[v]) > 1e-9*(1+math.Abs(ref[v])) {
					t.Fatalf("%s p=%d: rank[%d]=%g, want %g", name, p, v, res.Ranks[v], ref[v])
				}
			}
		}
	}
}

func TestPageRankHubRanksHighest(t *testing.T) {
	g := starGraph(20)
	res, err := PageRank(context.Background(), native.New(), g, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 20; v++ {
		if res.Ranks[v] >= res.Ranks[0] {
			t.Fatalf("spoke %d rank %g >= hub %g", v, res.Ranks[v], res.Ranks[0])
		}
	}
}

func TestCommunityFindsCliques(t *testing.T) {
	g := twoCliques(6)
	for _, p := range []int{1, 2, 4} {
		res, err := Community(context.Background(), native.New(), g, p, DefaultCommunityPasses)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		// All members of each clique should share one community.
		for v := 1; v < 6; v++ {
			if res.Community[v] != res.Community[0] {
				t.Fatalf("p=%d: clique A split: %v", p, res.Community)
			}
			if res.Community[6+v] != res.Community[6] {
				t.Fatalf("p=%d: clique B split: %v", p, res.Community)
			}
		}
		if res.Community[0] == res.Community[6] {
			t.Fatalf("p=%d: cliques merged", p)
		}
		if res.Modularity < 0.3 {
			t.Fatalf("p=%d: modularity %g too low", p, res.Modularity)
		}
	}
}

func TestCommunityImprovesModularity(t *testing.T) {
	g := graph.SocialNet(200, 4, 5)
	singleton := make([]int32, g.N)
	for i := range singleton {
		singleton[i] = int32(i)
	}
	base := Modularity(g, singleton)
	res, err := Community(context.Background(), native.New(), g, 4, DefaultCommunityPasses)
	if err != nil {
		t.Fatal(err)
	}
	if res.Modularity <= base {
		t.Fatalf("modularity %g did not improve on singleton %g", res.Modularity, base)
	}
	if res.Communities >= g.N {
		t.Fatalf("no communities merged: %d", res.Communities)
	}
}

func TestSuiteRegistry(t *testing.T) {
	s := Suite()
	if len(s) != 10 {
		t.Fatalf("suite has %d benchmarks, want 10", len(s))
	}
	want := []string{"SSSP_DIJK", "APSP", "BETW_CENT", "BFS", "DFS", "TSP",
		"CONN_COMP", "TRI_CNT", "PageRank", "COMM"}
	for i, b := range s {
		if b.Name != want[i] {
			t.Fatalf("suite[%d] = %s, want %s", i, b.Name, want[i])
		}
		if b.Parallelization == "" {
			t.Fatalf("%s has no parallelization label", b.Name)
		}
	}
	if _, err := ByName("SSSP_DIJK"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSuiteRunsAllBenchmarks(t *testing.T) {
	g := graph.UniformSparse(120, 4, 20, 13)
	in := Input{
		G:      g,
		D:      graph.DenseFromCSR(graph.UniformSparse(40, 3, 10, 17)),
		Cities: graph.Cities(7, 21),
		Source: 0,
	}
	for _, b := range Suite() {
		res, err := b.Run(context.Background(), native.New(), Request{Input: in, Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		rep := res.Report
		if rep == nil || rep.Threads != 4 {
			t.Fatalf("%s: bad report %+v", b.Name, rep)
		}
		if rep.TotalInstructions() == 0 {
			t.Fatalf("%s: no instructions recorded", b.Name)
		}
	}
}

func TestChunkPartition(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 16, 97} {
			covered := 0
			prevHi := 0
			for tid := 0; tid < p; tid++ {
				lo, hi := chunk(tid, p, n)
				if lo != prevHi {
					t.Fatalf("p=%d n=%d tid=%d: lo=%d, want %d", p, n, tid, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("p=%d n=%d tid=%d: hi<lo", p, n, tid)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("p=%d n=%d: covered %d ends %d", p, n, covered, prevHi)
			}
		}
	}
}

func TestVariabilityMetric(t *testing.T) {
	g := starGraph(200)
	res, err := SSSP(context.Background(), native.New(), g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Report.Variability()
	if v < 0 || v > 1 {
		t.Fatalf("variability %g out of [0,1]", v)
	}
}
