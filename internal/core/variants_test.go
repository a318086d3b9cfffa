package core

import (
	"context"
	"math"
	"testing"

	"crono/internal/exec"
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

// pageRankPullThreePass is pageRankPull's loop as it was before an
// iteration became one pass: publish every contribution, barrier, pull
// into next, barrier, copy next into the ranks, barrier. It is the
// reference the one-pass loop must match bit for bit.
func pageRankPullThreePass(g *graph.CSR, threads, iters int) []float64 {
	n, in := g.N, g.InCSR()
	pr, next, contrib := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	pl := native.New()
	bar := pl.NewBarrier(threads)
	pl.Run(threads, func(ctx exec.Ctx) {
		lo, hi := chunk(ctx.TID(), threads, n)
		for it := 0; it < iters; it++ {
			for v := lo; v < hi; v++ {
				if d := g.Degree(v); d > 0 {
					contrib[v] = pr[v] / float64(d)
				} else {
					contrib[v] = 0
				}
			}
			ctx.Barrier(bar)
			for v := lo; v < hi; v++ {
				sum := 0.0
				ts, _ := in.Neighbors(v)
				for _, u := range ts {
					sum += contrib[u]
				}
				next[v] = DampingR + (1-DampingR)*sum
			}
			ctx.Barrier(bar)
			for v := lo; v < hi; v++ {
				pr[v] = next[v]
			}
			ctx.Barrier(bar)
		}
	})
	return pr
}

// TestPageRankPullMatchesThreePass: the one-pass iteration performs the
// same float operations as the three-pass one, so the ranks are the same
// bits at every thread count.
func TestPageRankPullMatchesThreePass(t *testing.T) {
	for _, kind := range []graph.Kind{graph.KindRoadCA, graph.KindSocial, graph.KindSparse} {
		g := graph.Generate(kind, 4096, 7)
		for _, threads := range []int{1, 2, 4} {
			want := pageRankPullThreePass(g, threads, 10)
			got, err := pageRankPull(context.Background(), native.New(), g, threads, 10, NewScratch())
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if math.Float64bits(got.Ranks[v]) != math.Float64bits(want[v]) {
					t.Fatalf("%s t=%d: rank[%d] = %v, three-pass loop %v", kind, threads, v, got.Ranks[v], want[v])
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
