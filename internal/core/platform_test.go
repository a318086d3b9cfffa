package core

import (
	"context"
	"math"
	"testing"

	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/native"
	"crono/internal/sim"
)

func simMachine(t *testing.T, cores int) *sim.Machine {
	t.Helper()
	cfg := sim.Default()
	cfg.Cores = cores
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestKernelsCorrectOnSimulator is the cross-platform integration test:
// every benchmark must compute the same algorithmic result on the
// simulator as the sequential oracle, at several thread counts.
func TestKernelsCorrectOnSimulator(t *testing.T) {
	g := graph.UniformSparse(160, 4, 30, 42)
	threads := []int{1, 3, 8}

	t.Run("SSSP", func(t *testing.T) {
		ref := SSSPRef(g, 0)
		for _, p := range threads {
			res, err := SSSP(context.Background(), simMachine(t, 16), g, 0, p)
			if err != nil {
				t.Fatal(err)
			}
			for v := range ref {
				if res.Dist[v] != ref[v] {
					t.Fatalf("p=%d dist[%d]=%d want %d", p, v, res.Dist[v], ref[v])
				}
			}
		}
	})
	t.Run("BFS", func(t *testing.T) {
		ref := BFSRef(g, 0)
		for _, p := range threads {
			res, err := BFS(context.Background(), simMachine(t, 16), g, 0, p)
			if err != nil {
				t.Fatal(err)
			}
			for v := range ref {
				if res.Level[v] != ref[v] {
					t.Fatalf("p=%d level[%d]=%d want %d", p, v, res.Level[v], ref[v])
				}
			}
		}
	})
	t.Run("DFS", func(t *testing.T) {
		ref := DFSRef(g, 0)
		for _, p := range threads {
			res, err := DFS(context.Background(), simMachine(t, 16), g, 0, p)
			if err != nil {
				t.Fatal(err)
			}
			for v := range ref {
				if res.Visited[v] != ref[v] {
					t.Fatalf("p=%d visited[%d] mismatch", p, v)
				}
			}
		}
	})
	t.Run("APSP", func(t *testing.T) {
		d := graph.DenseFromCSR(graph.UniformSparse(40, 3, 10, 7))
		ref := FloydWarshallRef(d)
		for _, p := range threads {
			res, err := APSP(context.Background(), simMachine(t, 16), d, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if res.Dist[i] != ref[i] {
					t.Fatalf("p=%d dist[%d] mismatch", p, i)
				}
			}
		}
	})
	t.Run("BETW_CENT", func(t *testing.T) {
		d := graph.DenseFromCSR(graph.UniformSparse(32, 3, 10, 9))
		ref := BetweennessRef(d)
		for _, p := range threads {
			res, err := Betweenness(context.Background(), simMachine(t, 16), d, p)
			if err != nil {
				t.Fatal(err)
			}
			for v := range ref {
				if res.Centrality[v] != ref[v] {
					t.Fatalf("p=%d cent[%d]=%d want %d", p, v, res.Centrality[v], ref[v])
				}
			}
		}
	})
	t.Run("TSP", func(t *testing.T) {
		cities := graph.Cities(7, 5)
		want := TSPRef(cities)
		for _, p := range threads {
			res, err := TSP(context.Background(), simMachine(t, 16), cities, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != want {
				t.Fatalf("p=%d cost=%d want %d", p, res.Cost, want)
			}
		}
	})
	t.Run("CONN_COMP", func(t *testing.T) {
		ref := ComponentsRef(g)
		for _, p := range threads {
			res, err := ConnectedComponents(context.Background(), simMachine(t, 16), g, p)
			if err != nil {
				t.Fatal(err)
			}
			for v := range ref {
				if res.Labels[v] != ref[v] {
					t.Fatalf("p=%d label[%d] mismatch", p, v)
				}
			}
		}
	})
	t.Run("TRI_CNT", func(t *testing.T) {
		want := TriangleCountRef(g)
		for _, p := range threads {
			res, err := TriangleCount(context.Background(), simMachine(t, 16), g, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Total != want {
				t.Fatalf("p=%d total=%d want %d", p, res.Total, want)
			}
		}
	})
	t.Run("PageRank", func(t *testing.T) {
		ref := PageRankRef(g, 5)
		for _, p := range threads {
			res, err := PageRank(context.Background(), simMachine(t, 16), g, p, 5)
			if err != nil {
				t.Fatal(err)
			}
			for v := range ref {
				if math.Abs(res.Ranks[v]-ref[v]) > 1e-9 {
					t.Fatalf("p=%d rank[%d]=%g want %g", p, v, res.Ranks[v], ref[v])
				}
			}
		}
	})
	t.Run("COMM", func(t *testing.T) {
		cg := twoCliques(5)
		for _, p := range threads {
			res, err := Community(context.Background(), simMachine(t, 16), cg, p, DefaultCommunityPasses)
			if err != nil {
				t.Fatal(err)
			}
			if res.Community[0] == res.Community[5] {
				t.Fatalf("p=%d cliques merged", p)
			}
		}
	})
}

// TestSimulatorReportsArePopulated checks that every benchmark produces a
// meaningful architectural report on the simulator.
func TestSimulatorReportsArePopulated(t *testing.T) {
	in := Input{
		G:      graph.UniformSparse(120, 4, 20, 99),
		D:      graph.DenseFromCSR(graph.UniformSparse(24, 3, 10, 98)),
		Cities: graph.Cities(6, 97),
		Source: 0,
	}
	for _, b := range Suite() {
		res, err := b.Run(context.Background(), simMachine(t, 16), Request{Input: in, Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		rep := res.Report
		if rep.Time == 0 {
			t.Fatalf("%s: zero completion time", b.Name)
		}
		if rep.Breakdown[exec.CompCompute] == 0 {
			t.Fatalf("%s: no compute time", b.Name)
		}
		if rep.Cache.L1DAccesses == 0 {
			t.Fatalf("%s: no cache accesses", b.Name)
		}
		if rep.Energy.Total() <= 0 {
			t.Fatalf("%s: no energy", b.Name)
		}
		if rep.Breakdown.Total() < rep.Time {
			t.Fatalf("%s: breakdown %d below completion time %d", b.Name, rep.Breakdown.Total(), rep.Time)
		}
	}
}

// TestNativeAndSimAgree runs the same kernel on both platforms and
// compares the algorithmic output (the timing differs by design).
func TestNativeAndSimAgree(t *testing.T) {
	g := graph.RoadNet(300, 8)
	nat, err := SSSP(context.Background(), native.New(), g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	simr, err := SSSP(context.Background(), simMachine(t, 16), g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := range nat.Dist {
		if nat.Dist[v] != simr.Dist[v] {
			t.Fatalf("platform disagreement at %d: %d vs %d", v, nat.Dist[v], simr.Dist[v])
		}
	}
}
