package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/native"
	"crono/internal/racecheck"
)

// randomGraph builds a random undirected graph from a seed, varying the
// size and density.
func randomGraph(seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(200) + 4
	deg := rng.Intn(6) + 1
	return graph.UniformSparse(n, deg, int32(rng.Intn(90)+10), seed)
}

// TestSSSPTriangleInequality property: for every edge (v,u,w),
// dist[u] <= dist[v] + w, and dist matches the oracle.
func TestSSSPTriangleInequality(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		g := randomGraph(seed)
		p := int(pRaw)%6 + 1
		res, err := SSSP(context.Background(), native.New(), g, 0, p)
		if err != nil {
			return false
		}
		for v := 0; v < g.N; v++ {
			if res.Dist[v] >= graph.Inf {
				continue
			}
			ts, ws := g.Neighbors(v)
			for e, u := range ts {
				if res.Dist[u] > res.Dist[v]+ws[e] {
					return false
				}
			}
		}
		// Source at zero, everything else positive or unreachable.
		if res.Dist[0] != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBFSLevelsDifferByAtMostOne property: adjacent reachable vertices'
// levels differ by at most one, and parents exist.
func TestBFSLevelsDifferByAtMostOne(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		g := randomGraph(seed)
		p := int(pRaw)%6 + 1
		res, err := BFS(context.Background(), native.New(), g, 0, p)
		if err != nil {
			return false
		}
		for v := 0; v < g.N; v++ {
			if res.Level[v] < 0 {
				continue
			}
			ts, _ := g.Neighbors(v)
			hasParent := res.Level[v] == 0
			for _, u := range ts {
				if res.Level[u] < 0 {
					return false // reachable vertex with unreachable neighbor
				}
				d := res.Level[v] - res.Level[u]
				if d > 1 || d < -1 {
					return false
				}
				if res.Level[u] == res.Level[v]-1 {
					hasParent = true
				}
			}
			if !hasParent && g.Degree(v) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestComponentsLabelsAreFixpoint property: every vertex's label equals
// the minimum label in its neighborhood closure, and labels partition the
// graph exactly as BFS components do.
func TestComponentsLabelsAreFixpoint(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		g := randomGraph(seed)
		p := int(pRaw)%6 + 1
		res, err := ConnectedComponents(context.Background(), native.New(), g, p)
		if err != nil {
			return false
		}
		for v := 0; v < g.N; v++ {
			ts, _ := g.Neighbors(v)
			for _, u := range ts {
				if res.Labels[u] != res.Labels[v] {
					return false
				}
			}
			if res.Labels[v] > int32(v) {
				return false // label is a component-minimum vertex id
			}
		}
		refLabels, sizes := graph.ComponentsBFS(g)
		_ = refLabels
		return res.Components == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPageRankMassInvariant property: under Equation (1) on a graph with
// no zero-degree vertices, the total rank after each iteration is
// n*r + (1-r)*sum(previous), so after many iterations it converges to
// n*r/(r) ... i.e. total = n. Zero-degree vertices leak mass, so the
// test uses connected inputs.
func TestPageRankMassInvariant(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 10
		g := graph.SocialNet(n, 3, seed) // connected, no isolated vertices
		p := int(pRaw)%6 + 1
		iters := rng.Intn(12) + 1
		res, err := PageRank(context.Background(), native.New(), g, p, iters)
		if err != nil {
			return false
		}
		var sum float64
		for _, r := range res.Ranks {
			if r < 0 {
				return false
			}
			sum += r
		}
		// Closed-form total mass: T_{k} = n*r*(1-(1-r)^k)/r + (1-r)^k*T_0
		// with T_0 = 1. Equivalently it approaches n geometrically.
		want := float64(n) + math.Pow(1-DampingR, float64(iters))*(1-float64(n))
		return math.Abs(sum-want) < 1e-6*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTriangleCountConsistency property: total triangles equal one third
// of the per-vertex counts and match the oracle.
func TestTriangleCountConsistency(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		g := randomGraph(seed)
		p := int(pRaw)%6 + 1
		res, err := TriangleCount(context.Background(), native.New(), g, p)
		if err != nil {
			return false
		}
		var sum int64
		for _, c := range res.PerVertex {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == 3*res.Total && res.Total == TriangleCountRef(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAPSPSymmetryOnUndirected property: on symmetric inputs the
// distance matrix is symmetric with a zero diagonal.
func TestAPSPSymmetryOnUndirected(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 4
		g := graph.UniformSparse(n, 3, 30, seed)
		d := graph.DenseFromCSR(g)
		p := int(pRaw)%4 + 1
		res, err := APSP(context.Background(), native.New(), d, p)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if res.At(i, i) != 0 {
				return false
			}
			for j := i + 1; j < n; j++ {
				if res.At(i, j) != res.At(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTSPBoundIsTour property: the reported cost equals the cost of the
// reported tour and is never above the greedy bound.
func TestTSPBoundIsTour(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 4
		cities := graph.Cities(n, seed)
		p := int(pRaw)%6 + 1
		res, err := TSP(context.Background(), native.New(), cities, p)
		if err != nil {
			return false
		}
		var cost int32
		for i := 0; i < n; i++ {
			from := res.Tour[i]
			to := res.Tour[(i+1)%n]
			cost += cities.At(int(from), int(to))
		}
		greedy, _ := greedyTour(cities)
		return cost == res.Cost && res.Cost <= greedy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCommunityPartitionIsValid property: community ids are valid vertex
// ids, every community is internally connected is not guaranteed by
// Louvain, but modularity must stay within its theoretical bounds
// [-0.5, 1].
func TestCommunityPartitionIsValid(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		g := randomGraph(seed)
		p := int(pRaw)%6 + 1
		res, err := Community(context.Background(), native.New(), g, p, 6)
		if err != nil {
			return false
		}
		for _, c := range res.Community {
			if c < 0 || int(c) >= g.N {
				return false
			}
		}
		return res.Modularity >= -0.5 && res.Modularity <= 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicSingleThread: at one thread, kernels are fully
// deterministic — identical outputs and identical instruction counts.
func TestDeterministicSingleThread(t *testing.T) {
	g := graph.UniformSparse(300, 4, 40, 9)
	run := func() (*SSSPResult, *exec.Report) {
		res, err := SSSP(context.Background(), native.New(), g, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Report
	}
	a, ra := run()
	b, rb := run()
	for v := range a.Dist {
		if a.Dist[v] != b.Dist[v] {
			t.Fatalf("nondeterministic dist[%d]", v)
		}
	}
	if ra.Instructions[0] != rb.Instructions[0] {
		t.Fatalf("instruction counts differ: %d vs %d", ra.Instructions[0], rb.Instructions[0])
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds differ: %d vs %d", a.Rounds, b.Rounds)
	}
}

// TestInstructionCountsIndependentOfPlatform: at one thread every
// annotation stream issues the same total instructions natively, on the
// simulator and on the race checker: each Suite and Variants entry under scan, and under
// frontier where it has one, the batched BFS and both repairs, on sparse,
// road-ca and social graphs. A native fold of an annotation stream must
// keep it so.
func TestInstructionCountsIndependentOfPlatform(t *testing.T) {
	ctx := context.Background()
	report := func(res *Result, err error) (*exec.Report, error) {
		if err != nil {
			return nil, err
		}
		return res.Report, nil
	}
	for _, kind := range []graph.Kind{graph.KindSparse, graph.KindRoadCA, graph.KindSocial} {
		g := graph.Generate(kind, 256, 11)
		small := graph.Generate(kind, 48, 11) // the matrix and branch-and-bound kernels
		cells := map[string]func(exec.Platform) (*exec.Report, error){}
		for _, b := range append(Suite(), Variants()...) {
			strategies := []Strategy{StrategyScan}
			if b.Frontier {
				strategies = append(strategies, StrategyFrontier)
			}
			for _, s := range strategies {
				req := Request{Threads: 1, Strategy: s, Iters: 3}
				req.G = g
				switch {
				case b.UsesMatrix:
					req.D = graph.DenseFromCSR(small)
				case b.UsesCities:
					req.Cities = graph.Cities(7, 7)
				case b.Name == "DFS" || b.Name == "BETW_BRANDES":
					req.G = small
				}
				cells[b.Name+"/"+string(s)] = func(pl exec.Platform) (*exec.Report, error) {
					return report(b.Run(ctx, pl, req))
				}
			}
		}
		cells["BFSBatch"] = func(pl exec.Platform) (*exec.Report, error) {
			batch, err := BFSBatch(ctx, pl, g, []int{0, 1, 2, 3, 5, 8, 13, 21, 34, 55}, 1)
			if err != nil {
				return nil, err
			}
			return batch.Report, nil
		}
		d := randomDelta(g, rand.New(rand.NewSource(11)), 12, 8)
		if err := d.Canonicalize(g.N); err != nil {
			t.Fatal(err)
		}
		ins := &graph.EdgeDelta{Inserts: d.Inserts} // the components repair takes insert-only deltas
		repair := func(name string, d *graph.EdgeDelta, prev func() *Result) func(exec.Platform) (*exec.Report, error) {
			b, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			next := graph.ApplyDelta(g, d)
			return func(pl exec.Platform) (*exec.Report, error) {
				return report(b.Repair(ctx, pl, Request{Input: Input{G: next}, Threads: 1, Strategy: StrategyFrontier}, prev(), d))
			}
		}
		cells["BFSIncremental"] = repair("BFS", d, func() *Result { return &Result{BFS: &BFSResult{Level: BFSRef(g, 0)}} })
		cells["ComponentsIncremental"] = repair("CONN_COMP", ins, func() *Result {
			return &Result{Components: &ComponentsResult{Labels: ComponentsRef(g)}}
		})
		for name, cell := range cells {
			nat, err := cell(native.New())
			if err != nil {
				t.Fatalf("%s/%s native: %v", name, kind, err)
			}
			simr, err := cell(simMachine(t, 16))
			if err != nil {
				t.Fatalf("%s/%s sim: %v", name, kind, err)
			}
			if a, b := nat.TotalInstructions(), simr.TotalInstructions(); a != b {
				t.Errorf("%s/%s: instruction counts diverge: native %d vs sim %d", name, kind, a, b)
			}
			rc, err := cell(racecheck.New())
			if err != nil {
				t.Fatalf("%s/%s racecheck: %v", name, kind, err)
			}
			if a, b := nat.TotalInstructions(), rc.TotalInstructions(); a != b {
				t.Errorf("%s/%s: instruction counts diverge: native %d vs racecheck %d", name, kind, a, b)
			}
		}
	}
}
