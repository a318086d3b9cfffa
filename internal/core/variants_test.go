package core

import (
	"context"
	"math"
	"testing"

	"crono/internal/graph"
	"crono/internal/native"
)

func TestBrandesMatchesRef(t *testing.T) {
	for _, g := range []*graph.CSR{
		graph.UniformSparse(60, 3, 10, 5),
		starGraph(12),
		pathGraph(10),
		twoCliques(4),
	} {
		ref := BrandesRef(g)
		for _, p := range []int{1, 4} {
			res, err := BetweennessBrandes(context.Background(), native.New(), g, p)
			if err != nil {
				t.Fatal(err)
			}
			for v := range ref {
				if math.Abs(res.Centrality[v]-ref[v]) > 1e-6*(1+ref[v]) {
					t.Fatalf("p=%d: BC[%d]=%g want %g", p, v, res.Centrality[v], ref[v])
				}
			}
		}
	}
}

func TestBrandesPathGraphClosedForm(t *testing.T) {
	// On a path of n vertices, interior vertex i lies on all shortest
	// paths between the i vertices left of it and n-1-i right of it:
	// BC(i) = 2*i*(n-1-i).
	n := 9
	res, err := BetweennessBrandes(context.Background(), native.New(), pathGraph(n), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float64(2 * i * (n - 1 - i))
		if math.Abs(res.Centrality[i]-want) > 1e-9 {
			t.Fatalf("BC[%d]=%g want %g", i, res.Centrality[i], want)
		}
	}
}

func TestPageRankPullMatchesPush(t *testing.T) {
	for name, g := range testGraphs(t) {
		push := PageRankRef(g, 8)
		for _, p := range []int{1, 4} {
			pull, err := pageRankPull(context.Background(), native.New(), g, p, 8, NewScratch())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for v := range push {
				if math.Abs(pull.Ranks[v]-push[v]) > 1e-9*(1+math.Abs(push[v])) {
					t.Fatalf("%s p=%d: rank[%d]=%g want %g", name, p, v, pull.Ranks[v], push[v])
				}
			}
		}
	}
}

func TestPageRankPullNoLocks(t *testing.T) {
	g := graph.UniformSparse(300, 4, 20, 3)
	push, err := PageRank(context.Background(), simMachine(t, 16), g, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	pull, err := pageRankPull(context.Background(), simMachine(t, 16), g, 8, 3, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	// The pull variant eliminates the per-edge lock synchronization.
	pushSync := push.Report.Breakdown[5]
	pullSync := pull.Report.Breakdown[5]
	if pullSync >= pushSync {
		t.Fatalf("pull sync %d not below push %d", pullSync, pushSync)
	}
}
