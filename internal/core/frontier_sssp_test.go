package core

import (
	"context"
	"fmt"
	"testing"

	"crono/internal/graph"
	"crono/internal/native"
)

// largestComponentSource returns the lowest vertex of g's largest
// component, so that a run from it reaches most of the graph (vertex 0
// of a road graph is often isolated).
func largestComponentSource(g *graph.CSR) int {
	labels := ComponentsRef(g)
	size := make([]int, g.N)
	largest := int32(0)
	for _, l := range labels {
		if size[l]++; size[l] > size[largest] {
			largest = l
		}
	}
	return int(largest) // labels are component minima
}

// unitDirectedRMAT keeps one direction of each RMAT edge, chosen by the
// parity of its endpoints, at weight 1: a directed unit-weight graph,
// whose pull rounds need a real transpose.
func unitDirectedRMAT(scale int, seed int64) *graph.CSR {
	g := graph.RMAT(scale, 8, seed)
	var edges []graph.Edge
	for v := 0; v < g.N; v++ {
		ts, _ := g.Neighbors(v)
		for _, u := range ts {
			if (int(u)+v)%2 == 0 && int(u) > v || (int(u)+v)%2 == 1 && int(u) < v {
				edges = append(edges, graph.Edge{From: int32(v), To: u, Weight: 1})
			}
		}
	}
	return graph.FromEdges(g.N, edges, false)
}

// checkDist fails t unless got is ref.
func checkDist(t *testing.T, got, ref []int32) {
	t.Helper()
	for v := range ref {
		if got[v] != ref[v] {
			t.Fatalf("dist[%d] = %d, oracle %d", v, got[v], ref[v])
		}
	}
}

// TestSSSPFrontierUnitWeight: on a unit-weight graph the frontier
// strategy's breadth-first rounds give SSSPRef's distances — undirected,
// directed and RCM-ordered — at every thread count, and report one
// relaxation per reached vertex but the source.
func TestSSSPFrontierUnitWeight(t *testing.T) {
	social := graph.Generate(graph.KindSocial, 4096, 5)
	rcm, err := graph.Reorder(social, graph.OrderRCM)
	if err != nil {
		t.Fatal(err)
	}
	directed := unitDirectedRMAT(12, 5)
	for _, c := range []struct {
		name    string
		g       *graph.CSR
		reorder *graph.Reordered
	}{
		{"social", social, nil},
		{"rmat-directed", directed, nil},
		{"social-rcm", social, rcm},
	} {
		if c.g.Weights != nil {
			t.Fatalf("%s: not a unit-weight graph", c.name)
		}
		src := largestComponentSource(c.g)
		ref := SSSPRef(c.g, src)
		reached := 0
		for _, d := range ref {
			if d < graph.Inf {
				reached++
			}
		}
		if c.name == "rmat-directed" && reached < c.g.N/4 {
			t.Fatalf("%s: source %d reaches only %d vertices", c.name, src, reached)
		}
		for _, threads := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/t%d", c.name, threads), func(t *testing.T) {
				res := runNamed(t, "SSSP_DIJK", Request{Input: Input{G: c.g, Source: src},
					Threads: threads, Strategy: StrategyFrontier, Reorder: c.reorder})
				checkDist(t, res.SSSP.Dist, ref)
				if res.SSSP.Relaxations != int64(reached-1) {
					t.Fatalf("%d relaxations, want %d", res.SSSP.Relaxations, reached-1)
				}
			})
		}
	}
}

// TestSSSPFrontierBuckets: on a weighted graph the bucketed kernel gives
// SSSPRef's distances at 1 to 8 threads, with the auto width and with a
// width of 1, at which sparse's weights (up to 100) queue vertices
// beyond the ring into the far lists.
func TestSSSPFrontierBuckets(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.CSR
	}{
		{"road-ca", graph.Generate(graph.KindRoadCA, 4096, 5)},
		{"sparse", graph.Generate(graph.KindSparse, 2048, 5)},
		{"rmat", graph.RMAT(12, 8, 5)},
	} {
		src := largestComponentSource(c.g)
		ref := SSSPRef(c.g, src)
		for _, delta := range []int32{0, 1} {
			for threads := 1; threads <= 8; threads++ {
				t.Run(fmt.Sprintf("%s/delta%d/t%d", c.name, delta, threads), func(t *testing.T) {
					res := runNamed(t, "SSSP_DIJK", Request{Input: Input{G: c.g, Source: src},
						Threads: threads, Strategy: StrategyFrontier, Delta: delta})
					checkDist(t, res.SSSP.Dist, ref)
				})
			}
		}
	}
}

// TestSSSPFrontierWorkLinear pins the one-thread work of the bucketed
// kernel per (n+m) on road-ca as n grows 16-fold. The band-sweep kernel
// it replaced re-read every carried worklist member on every sweep, and
// read 7.02, 7.24 and 7.59 native instructions per (n+m) here.
func TestSSSPFrontierWorkLinear(t *testing.T) {
	const ceiling = 5.0
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		g := graph.Generate(graph.KindRoadCA, n, 42)
		res, err := ssspFrontier(context.Background(), native.New(), g, largestComponentSource(g), 1, AutoSSSPDelta(g), NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		per := float64(res.Report.TotalInstructions()) / float64(g.N+g.M())
		t.Logf("n=%d: %.3f native instructions per (n+m), %d rounds", n, per, res.Rounds)
		if per > ceiling {
			t.Errorf("n=%d: %.3f native instructions per (n+m), ceiling %.1f", n, per, ceiling)
		}
	}
}
