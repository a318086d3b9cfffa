package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crono/internal/graph"
	"crono/internal/native"
)

// batchSources picks k distinct source vertices spread across [0, n).
func batchSources(n, k int) []int {
	if k > n {
		k = n
	}
	src := make([]int, k)
	for i := range src {
		src[i] = i * n / k
	}
	return src
}

// The tests named Hybrid cover the direction-optimizing side of the
// frontier kernels — BFS pull rounds over the in-CSR, Afforest CC, pull
// PageRank — and the bit-parallel BFSBatch.

// TestHybridMatchesOracleOnGeneratorMatrix cross-checks the
// direction-optimizing kernels against the sequential oracles on every
// stock generator: frontier BFS (subtest BFSHybrid) and Afforest CC must
// be bit-identical, and a full-width BFSBatch must reproduce every
// per-source BFS exactly.
func TestHybridMatchesOracleOnGeneratorMatrix(t *testing.T) {
	const n = 3000
	for _, kind := range graph.Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			g := graph.Generate(kind, n, 7)
			ctx := context.Background()

			t.Run("BFSHybrid", func(t *testing.T) {
				ref := BFSRef(g, 0)
				res, err := bfsFrontier(ctx, native.New(), g, 0, 8, NewScratch())
				if err != nil {
					t.Fatal(err)
				}
				for v := range ref {
					if res.Level[v] != ref[v] {
						t.Fatalf("level[%d] = %d, oracle %d", v, res.Level[v], ref[v])
					}
				}
				scan, err := BFS(ctx, native.New(), g, 0, 8)
				if err != nil {
					t.Fatal(err)
				}
				if res.Levels != scan.Levels || res.Visited != scan.Visited {
					t.Fatalf("frontier (levels=%d visited=%d) != scan (levels=%d visited=%d)",
						res.Levels, res.Visited, scan.Levels, scan.Visited)
				}
			})

			t.Run("Afforest", func(t *testing.T) {
				ref := ComponentsRef(g)
				res, err := componentsFrontier(ctx, native.New(), g, 8, NewScratch())
				if err != nil {
					t.Fatal(err)
				}
				for v := range ref {
					if res.Labels[v] != ref[v] {
						t.Fatalf("label[%d] = %d, oracle %d", v, res.Labels[v], ref[v])
					}
				}
			})

			t.Run("BFSBatch", func(t *testing.T) {
				sources := batchSources(n, BFSBatchWidth)
				res, err := BFSBatch(ctx, native.New(), g, sources, 8)
				if err != nil {
					t.Fatal(err)
				}
				for i, src := range sources {
					ref := BFSRef(g, src)
					for v := range ref {
						if res.Level[i][v] != ref[v] {
							t.Fatalf("src %d: level[%d] = %d, oracle %d", src, v, res.Level[i][v], ref[v])
						}
					}
					single, err := bfsFrontier(ctx, native.New(), g, src, 8, NewScratch())
					if err != nil {
						t.Fatal(err)
					}
					if res.Visited[i] != single.Visited || res.Levels[i] != single.Levels {
						t.Fatalf("src %d: batch (visited=%d levels=%d) != single (visited=%d levels=%d)",
							src, res.Visited[i], res.Levels[i], single.Visited, single.Levels)
					}
				}
			})
		})
	}
}

// randomDirectedGraph builds a random graph without symmetrizing, so
// in-edges and out-edges genuinely differ — the case the in-CSR kernels
// must get right.
func randomDirectedGraph(seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(200) + 4
	m := rng.Intn(4*n) + n
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{
			From:   int32(rng.Intn(n)),
			To:     int32(rng.Intn(n)),
			Weight: int32(rng.Intn(90) + 10),
		})
	}
	return graph.FromEdges(n, edges, false)
}

// TestHybridDirectedGraphs checks the in-CSR paths on graphs where the
// transpose differs from the forward graph: frontier BFS levels follow
// out-edges only, Afforest labels are the weak components, and pull
// PageRank matches the push oracle.
func TestHybridDirectedGraphs(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 8; seed++ {
		g := randomDirectedGraph(seed)

		ref := BFSRef(g, 0)
		bres, err := bfsFrontier(ctx, native.New(), g, 0, 4, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		for v := range ref {
			if bres.Level[v] != ref[v] {
				t.Fatalf("seed %d: BFS level[%d] = %d, oracle %d", seed, v, bres.Level[v], ref[v])
			}
		}

		ccRef := ComponentsRef(g)
		cres, err := componentsFrontier(ctx, native.New(), g, 4, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		for v := range ccRef {
			if cres.Labels[v] != ccRef[v] {
				t.Fatalf("seed %d: CC label[%d] = %d, oracle %d", seed, v, cres.Labels[v], ccRef[v])
			}
		}

		push := PageRankRef(g, 8)
		pull, err := pageRankPull(ctx, native.New(), g, 4, 8, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		for v := range push {
			if math.Abs(pull.Ranks[v]-push[v]) > 1e-9*(1+math.Abs(push[v])) {
				t.Fatalf("seed %d: rank[%d] = %g, oracle %g", seed, v, pull.Ranks[v], push[v])
			}
		}

		sources := batchSources(g.N, 64)
		batch, err := BFSBatch(ctx, native.New(), g, sources, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range sources {
			sref := BFSRef(g, src)
			for v := range sref {
				if batch.Level[i][v] != sref[v] {
					t.Fatalf("seed %d src %d: level[%d] = %d, oracle %d", seed, src, v, batch.Level[i][v], sref[v])
				}
			}
		}
	}
}

// TestHybridPropertyRandomGraphs property-tests the direction-optimizing
// kernels against the oracles across random graphs and thread counts.
func TestHybridPropertyRandomGraphs(t *testing.T) {
	t.Run("BFSHybrid", func(t *testing.T) {
		f := func(seed int64, pRaw uint8) bool {
			g := randomGraph(seed)
			p := int(pRaw)%6 + 1
			res, err := bfsFrontier(context.Background(), native.New(), g, 0, p, NewScratch())
			if err != nil {
				return false
			}
			ref := BFSRef(g, 0)
			for v := range ref {
				if res.Level[v] != ref[v] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("Afforest", func(t *testing.T) {
		f := func(seed int64, pRaw uint8) bool {
			g := randomGraph(seed)
			p := int(pRaw)%6 + 1
			res, err := componentsFrontier(context.Background(), native.New(), g, p, NewScratch())
			if err != nil {
				return false
			}
			ref := ComponentsRef(g)
			for v := range ref {
				if res.Labels[v] != ref[v] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("BFSBatch", func(t *testing.T) {
		f := func(seed int64, pRaw, kRaw uint8) bool {
			g := randomGraph(seed)
			p := int(pRaw)%6 + 1
			k := int(kRaw)%BFSBatchWidth + 1
			sources := batchSources(g.N, k)
			res, err := BFSBatch(context.Background(), native.New(), g, sources, p)
			if err != nil {
				return false
			}
			for i, src := range sources {
				ref := BFSRef(g, src)
				for v := range ref {
					if res.Level[i][v] != ref[v] {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHybridShrinkGrowFrontier runs frontier BFS on a barbell graph — a
// dense clique, a long thin path, a second dense clique — whose frontier
// collapses to one vertex and then re-expands. This drives the
// push->pull->push direction flips and the worklist's shrink-then-grow
// recycling in one traversal.
func TestHybridShrinkGrowFrontier(t *testing.T) {
	const blob = 60
	const path = 120
	n := 2*blob + path
	var edges []graph.Edge
	for i := 0; i < blob; i++ {
		for j := i + 1; j < blob; j++ {
			edges = append(edges,
				graph.Edge{From: int32(i), To: int32(j), Weight: 1},
				graph.Edge{From: int32(blob + path + i), To: int32(blob + path + j), Weight: 1})
		}
	}
	for i := blob - 1; i < blob+path; i++ {
		edges = append(edges, graph.Edge{From: int32(i), To: int32(i + 1), Weight: 1})
	}
	g := graph.FromEdges(n, edges, true)

	ref := BFSRef(g, 0)
	for _, p := range []int{1, 3, 8} {
		res, err := bfsFrontier(context.Background(), native.New(), g, 0, p, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		for v := range ref {
			if res.Level[v] != ref[v] {
				t.Fatalf("p=%d: level[%d] = %d, oracle %d", p, v, res.Level[v], ref[v])
			}
		}
		if res.Visited != n {
			t.Fatalf("p=%d: visited %d of %d", p, res.Visited, n)
		}
	}
}

// TestHybridOnSimulator spot-checks that the direction-optimizing kernels run
// unchanged on the timing simulator and still match the oracles.
func TestHybridOnSimulator(t *testing.T) {
	g := graph.UniformSparse(160, 4, 30, 42)
	ctx := context.Background()

	bfsRef := BFSRef(g, 0)
	bres, err := bfsFrontier(ctx, simMachine(t, 16), g, 0, 8, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	for v := range bfsRef {
		if bres.Level[v] != bfsRef[v] {
			t.Fatalf("sim frontier BFS level[%d] = %d, oracle %d", v, bres.Level[v], bfsRef[v])
		}
	}
	if bres.Report.Time <= 0 {
		t.Fatal("sim frontier BFS report has no simulated time")
	}

	ccRef := ComponentsRef(g)
	cres, err := componentsFrontier(ctx, simMachine(t, 16), g, 8, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	for v := range ccRef {
		if cres.Labels[v] != ccRef[v] {
			t.Fatalf("sim Afforest label[%d] = %d, oracle %d", v, cres.Labels[v], ccRef[v])
		}
	}

	sources := batchSources(g.N, 16)
	batch, err := BFSBatch(ctx, simMachine(t, 16), g, sources, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range sources {
		ref := BFSRef(g, src)
		for v := range ref {
			if batch.Level[i][v] != ref[v] {
				t.Fatalf("sim batch src %d: level[%d] = %d, oracle %d", src, v, batch.Level[i][v], ref[v])
			}
		}
	}
}

// TestBFSBatchValidation checks the batch kernel's input contract:
// source-count bounds, per-source range checks, and duplicate sources
// sharing one traversal.
func TestBFSBatchValidation(t *testing.T) {
	g := graph.UniformSparse(100, 3, 10, 5)
	ctx := context.Background()

	if _, err := BFSBatch(ctx, native.New(), g, nil, 2); err == nil {
		t.Error("empty source list accepted")
	}
	over := make([]int, BFSBatchWidth+1)
	if _, err := BFSBatch(ctx, native.New(), g, over, 2); err == nil {
		t.Error("oversized source list accepted")
	}
	if _, err := BFSBatch(ctx, native.New(), g, []int{0, g.N}, 2); err == nil {
		t.Error("out-of-range source accepted")
	}

	res, err := BFSBatch(ctx, native.New(), g, []int{7, 7, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		if res.Level[0][v] != res.Level[1][v] {
			t.Fatalf("duplicate sources diverge at %d: %d vs %d", v, res.Level[0][v], res.Level[1][v])
		}
	}
	ref := BFSRef(g, 3)
	for v := range ref {
		if res.Level[2][v] != ref[v] {
			t.Fatalf("src 3: level[%d] = %d, oracle %d", v, res.Level[2][v], ref[v])
		}
	}
}

// TestHybridCancellation checks the direction-optimizing kernels unwind cleanly on a
// pre-canceled context.
func TestHybridCancellation(t *testing.T) {
	g := graph.Generate(graph.KindSocial, 2000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bfsFrontier(ctx, native.New(), g, 0, 4, NewScratch()); err == nil {
		t.Error("bfsFrontier ignored canceled context")
	}
	if _, err := componentsFrontier(ctx, native.New(), g, 4, NewScratch()); err == nil {
		t.Error("componentsFrontier ignored canceled context")
	}
	if _, err := BFSBatch(ctx, native.New(), g, batchSources(g.N, 8), 4); err == nil {
		t.Error("BFSBatch ignored canceled context")
	}
}
