package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"crono/internal/graph"
	"crono/internal/native"
)

// randomDelta draws a mixed insert/delete batch against g: fresh edges,
// weight overwrites are avoided (used map), deletes split between real
// edges and documented no-op absences.
func randomDelta(g *graph.CSR, rng *rand.Rand, inserts, deletes int) *graph.EdgeDelta {
	d := &graph.EdgeDelta{}
	used := make(map[[2]int32]bool)
	pair := func() (int32, int32) {
		for {
			a, b := int32(rng.Intn(g.N)), int32(rng.Intn(g.N))
			if a != b && !used[[2]int32{a, b}] {
				used[[2]int32{a, b}] = true
				return a, b
			}
		}
	}
	for i := 0; i < inserts; i++ {
		a, b := pair()
		d.Inserts = append(d.Inserts, graph.Edge{From: a, To: b, Weight: int32(1 + rng.Intn(16))})
	}
	for i := 0; i < deletes; i++ {
		if i%2 == 0 {
			for tries := 0; tries < 64; tries++ {
				v := rng.Intn(g.N)
				ts, _ := g.Neighbors(v)
				if len(ts) == 0 {
					continue
				}
				u := ts[rng.Intn(len(ts))]
				if used[[2]int32{int32(v), u}] {
					continue
				}
				used[[2]int32{int32(v), u}] = true
				d.Deletes = append(d.Deletes, graph.Edge{From: int32(v), To: u})
				break
			}
		} else {
			a, b := pair()
			d.Deletes = append(d.Deletes, graph.Edge{From: a, To: b})
		}
	}
	return d
}

// TestBFSIncrementalMatchesFullOnGeneratorMatrix is the bit-identity
// property test: for every stock generator, a chain of random
// insert+delete batches is applied and each repaired BFS is compared
// element-wise against a from-scratch run on the mutated graph. BFS
// levels are uniquely determined by (graph, source), so "bit-identical"
// is exact equality of Level, Visited and Levels.
func TestBFSIncrementalMatchesFullOnGeneratorMatrix(t *testing.T) {
	const n = 2000
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	for _, kind := range graph.Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			g := graph.Generate(kind, n, 7)
			old := BFSRef(g, 0)
			for trial := 0; trial < 4; trial++ {
				d := randomDelta(g, rng, 12, 8)
				if err := d.Canonicalize(g.N); err != nil {
					t.Fatal(err)
				}
				next := graph.ApplyDelta(g, d)
				rr, err := runRepair(t, "BFS", next, 8, &Result{BFS: &BFSResult{Level: old}}, d)
				if err != nil {
					t.Fatal(err)
				}
				res, want := rr.BFS, BFSRef(next, 0)
				for v := range want {
					if res.Level[v] != want[v] {
						t.Fatalf("trial %d: level[%d] = %d, full recompute %d",
							trial, v, res.Level[v], want[v])
					}
				}
				full, err := bfsFrontier(ctx, native.New(), next, 0, 8, NewScratch())
				if err != nil {
					t.Fatal(err)
				}
				if res.Visited != full.Visited || res.Levels != full.Levels {
					t.Fatalf("trial %d: incremental (visited=%d levels=%d) != full (visited=%d levels=%d)",
						trial, res.Visited, res.Levels, full.Visited, full.Levels)
				}
				// Chain: the repaired result seeds the next trial's repair.
				g, old = next, res.Level
			}
		})
	}
}

// TestBFSIncrementalUntouchedReachableRegion pins the MaxInt32 cutoff:
// a delta entirely outside the reachable region seeds an empty frontier
// and leaves every level untouched.
func TestBFSIncrementalUntouchedReachableRegion(t *testing.T) {
	// 0->1 reachable chain; the cycle 2->3->...->9->2 unreachable from 0,
	// so the graph has the 9 edges a one-edge delta needs to pay.
	edges := []graph.Edge{{From: 0, To: 1, Weight: 1}}
	for v := int32(2); v < 10; v++ {
		edges = append(edges, graph.Edge{From: v, To: 2 + (v-1)%8, Weight: 1})
	}
	g := graph.FromEdges(10, edges, false)
	old := BFSRef(g, 0)
	d := &graph.EdgeDelta{Inserts: []graph.Edge{{From: 2, To: 4, Weight: 1}}}
	if err := d.Canonicalize(g.N); err != nil {
		t.Fatal(err)
	}
	next := graph.ApplyDelta(g, d)
	rr, err := runRepair(t, "BFS", next, 2, &Result{BFS: &BFSResult{Level: old}}, d)
	if err != nil {
		t.Fatal(err)
	}
	res, want := rr.BFS, BFSRef(next, 0)
	for v := range want {
		if res.Level[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, res.Level[v], want[v])
		}
	}
	if res.Visited != 2 || res.Levels != 2 {
		t.Fatalf("visited=%d levels=%d, want 2/2", res.Visited, res.Levels)
	}
}

// TestComponentsIncrementalMatchesFullOnGeneratorMatrix checks the
// insert-only CC repair against a from-scratch frontier run. The
// min-label fixpoint is unique, so labels must match exactly even
// though the inserted edges are directed (possibly asymmetric).
func TestComponentsIncrementalMatchesFullOnGeneratorMatrix(t *testing.T) {
	const n = 2000
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	for _, kind := range graph.Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			g := graph.Generate(kind, n, 9)
			fullSeed, err := componentsFrontier(ctx, native.New(), g, 8, NewScratch())
			if err != nil {
				t.Fatal(err)
			}
			old := fullSeed.Labels
			for trial := 0; trial < 4; trial++ {
				d := randomDelta(g, rng, 16, 0)
				if err := d.Canonicalize(g.N); err != nil {
					t.Fatal(err)
				}
				next := graph.ApplyDelta(g, d)
				rr, err := runRepair(t, "CONN_COMP", next, 8, &Result{Components: &ComponentsResult{Labels: old}}, d)
				if err != nil {
					t.Fatal(err)
				}
				res := rr.Components
				full, err := componentsFrontier(ctx, native.New(), next, 8, NewScratch())
				if err != nil {
					t.Fatal(err)
				}
				for v := range full.Labels {
					if res.Labels[v] != full.Labels[v] {
						t.Fatalf("trial %d: label[%d] = %d, full recompute %d",
							trial, v, res.Labels[v], full.Labels[v])
					}
				}
				if res.Components != full.Components {
					t.Fatalf("trial %d: components %d != full %d", trial, res.Components, full.Components)
				}
				g, old = next, res.Labels
			}
		})
	}
}

// TestComponentsIncrementalMergesDirectedComponents drives the repair
// through merges the generator graphs rarely produce: a directed forest
// of many weak components, joined a few one-way inserts at a time, so
// that vertices reachable only against edge direction must be relabeled.
func TestComponentsIncrementalMergesDirectedComponents(t *testing.T) {
	const n = 600
	rng := rand.New(rand.NewSource(5))
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		if v%8 != 0 { // a tree edge toward a random earlier vertex of the same block
			edges = append(edges, graph.Edge{From: int32(v), To: int32(v - 1 - rng.Intn(v%8)), Weight: 1})
		}
	}
	for _, threads := range []int{1, 2, 8} {
		g := graph.FromEdges(n, edges, false)
		old := ComponentsRef(g)
		for trial := 0; trial < 6; trial++ {
			d := randomDelta(g, rng, 5, 0)
			if err := d.Canonicalize(n); err != nil {
				t.Fatal(err)
			}
			next := graph.ApplyDelta(g, d)
			rr, err := runRepair(t, "CONN_COMP", next, threads, &Result{Components: &ComponentsResult{Labels: old}}, d)
			if err != nil {
				t.Fatal(err)
			}
			res, want := rr.Components, ComponentsRef(next)
			if !slices.Equal(res.Labels, want) {
				t.Fatalf("%d threads, trial %d: repaired labels differ from the oracle's", threads, trial)
			}
			if res.Components != countRoots(want) || res.Components == countRoots(old) {
				t.Fatalf("%d threads, trial %d: %d components (before %d, oracle %d), want a merge",
					threads, trial, res.Components, countRoots(old), countRoots(want))
			}
			g, old = next, res.Labels
		}
	}
}

// TestComponentsIncrementalRejectsDeletes pins the fallback contract: a
// delete can split a component, so the repair must refuse and send the
// caller to full recompute.
func TestComponentsIncrementalRejectsDeletes(t *testing.T) {
	g := graph.Generate(graph.KindSparse, 100, 1)
	old := ComponentsRef(g)
	ts, _ := g.Neighbors(0)
	if len(ts) == 0 {
		t.Fatal("generator produced an isolated vertex 0")
	}
	d := &graph.EdgeDelta{Deletes: []graph.Edge{{From: 0, To: ts[0]}}}
	if err := d.Canonicalize(g.N); err != nil {
		t.Fatal(err)
	}
	_, err := runRepair(t, "CONN_COMP", graph.ApplyDelta(g, d), 4, &Result{Components: &ComponentsResult{Labels: old}}, d)
	if !errors.Is(err, ErrNoIncremental) {
		t.Fatalf("err = %v, want ErrNoIncremental", err)
	}
}

// TestBenchmarkRepair pins the incremental-vs-full decision: which
// benchmarks have a Repair, which deltas each repairs (matching a full
// run where the repair is exact), and which it declines with
// ErrNoIncremental — the size gate for all, deletes for CONN_COMP.
func TestBenchmarkRepair(t *testing.T) {
	repairable := map[string]bool{"BFS": true, "CONN_COMP": true}
	for _, b := range append(Suite(), Variants()...) {
		if (b.Repair != nil) != repairable[b.Name] {
			t.Errorf("%s: has Repair = %t, want %t", b.Name, b.Repair != nil, repairable[b.Name])
		}
	}
	for _, tc := range []struct {
		size, edges int
		want        bool
	}{{1, 8, true}, {125, 1000, true}, {126, 1000, false}, {0, 1000, false}} {
		d := &graph.EdgeDelta{Inserts: make([]graph.Edge, tc.size)}
		if got := RepairPays(d, tc.edges); got != tc.want {
			t.Errorf("RepairPays(|d|=%d, m=%d) = %t, want %t", tc.size, tc.edges, got, tc.want)
		}
	}
	if RepairPays(nil, 1000) {
		t.Error("RepairPays(nil) = true, want false")
	}

	g := graph.Generate(graph.KindSparse, 200, 3)
	cases := []struct {
		kernel           string
		inserts, deletes int
		repairs          bool
		why              string
	}{
		{"BFS", 4, 4, true, "small mixed delta repairs"},
		{"BFS", 0, 0, false, "empty delta has nothing to repair"},
		{"BFS", g.M() / 8, g.M() / 8, false, "delta beyond 1/8 of the edges falls back"},
		{"CONN_COMP", 8, 0, true, "insert-only CC repairs"},
		{"CONN_COMP", 8, 2, false, "any delete can split a component"},
	}
	for _, tc := range cases {
		d := randomDelta(g, rand.New(rand.NewSource(int64(tc.inserts+tc.deletes))), tc.inserts, tc.deletes)
		if err := d.Canonicalize(g.N); err != nil {
			t.Fatal(err)
		}
		next := graph.ApplyDelta(g, d)
		b, err := ByName(tc.kernel)
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Input: Input{G: g}, Threads: 2, Strategy: StrategyFrontier}
		prev, err := b.Run(context.Background(), native.New(), req)
		if err != nil {
			t.Fatal(err)
		}
		req.G = next
		got, err := b.Repair(context.Background(), native.New(), req, prev, d)
		if !tc.repairs {
			if !errors.Is(err, ErrNoIncremental) {
				t.Errorf("%s %d+%d (%s): err = %v, want ErrNoIncremental", tc.kernel, tc.inserts, tc.deletes, tc.why, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s %d+%d (%s): %v", tc.kernel, tc.inserts, tc.deletes, tc.why, err)
			continue
		}
		want, err := b.Run(context.Background(), native.New(), req)
		if err != nil {
			t.Fatal(err)
		}
		switch tc.kernel {
		case "BFS":
			if !slices.Equal(got.BFS.Level, want.BFS.Level) {
				t.Errorf("BFS %d+%d: repaired levels differ from a full run", tc.inserts, tc.deletes)
			}
		case "CONN_COMP":
			if !slices.Equal(got.Components.Labels, want.Components.Labels) {
				t.Errorf("CONN_COMP %d+%d: repaired labels differ from a full run", tc.inserts, tc.deletes)
			}
		}
	}
}

// TestBFSIncrementalSeedValidation pins the defensive checks of both
// repairs: the public facade passes seeds and deltas through
// unvalidated, so a malformed one must come back as an error, never as
// an out-of-range index or a nil dereference. A nil delta is no
// malformed one: there is nothing to repair, so Repair declines it.
func TestBFSIncrementalSeedValidation(t *testing.T) {
	// Undirected 0-1, 0-2, 0-3, 1-3: 8 directed edges, as many as a
	// one-edge delta needs to pay.
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1, Weight: 1}, {From: 0, To: 2, Weight: 1},
		{From: 0, To: 3, Weight: 1}, {From: 1, To: 3, Weight: 1}}, true)
	good := &graph.EdgeDelta{Inserts: []graph.Edge{{From: 1, To: 2, Weight: 1}}}
	if err := good.Canonicalize(g.N); err != nil {
		t.Fatal(err)
	}
	next := graph.ApplyDelta(g, good)

	deltas := []struct {
		name string
		d    *graph.EdgeDelta
	}{
		{"insert tail out of range", &graph.EdgeDelta{Inserts: []graph.Edge{{From: 4, To: 1, Weight: 1}}}},
		{"insert head negative", &graph.EdgeDelta{Inserts: []graph.Edge{{From: 1, To: -1, Weight: 1}}}},
		{"delete tail negative", &graph.EdgeDelta{Deletes: []graph.Edge{{From: -2, To: 1}}}},
		{"delete head out of range", &graph.EdgeDelta{Deletes: []graph.Edge{{From: 1, To: 9}}}},
	}
	kernels := []struct {
		name string
		prev func(seed []int32) *Result
		seed []int32
		bad  map[string][]int32
	}{
		{"BFS", func(seed []int32) *Result { return &Result{BFS: &BFSResult{Level: seed}} }, BFSRef(g, 0), map[string][]int32{
			"wrong length":          make([]int32, 2),
			"source not at level 0": {5, -1, -1, -1},
		}},
		{"CONN_COMP", func(seed []int32) *Result { return &Result{Components: &ComponentsResult{Labels: seed}} }, ComponentsRef(g), map[string][]int32{
			"wrong length":           make([]int32, 2),
			"label above its vertex": {1, 1, 2, 3},
			"label names a non-root": {0, 0, 1, 3},
		}},
	}
	for _, k := range kernels {
		run := func(seed []int32, d *graph.EdgeDelta) error {
			_, err := runRepair(t, k.name, next, 2, k.prev(seed), d)
			return err
		}
		if err := run(k.seed, good); err != nil {
			t.Errorf("%s: rejected a valid seed and delta: %v", k.name, err)
		}
		if err := run(k.seed, nil); !errors.Is(err, ErrNoIncremental) {
			t.Errorf("%s: nil delta: err = %v, want ErrNoIncremental", k.name, err)
		}
		for _, tc := range deltas {
			if err := run(k.seed, tc.d); err == nil || errors.Is(err, ErrNoIncremental) {
				t.Errorf("%s: %s: err = %v, want a validation error", k.name, tc.name, err)
			}
		}
		for name, seed := range k.bad {
			if err := run(seed, good); err == nil {
				t.Errorf("%s: accepted a seed with %s", k.name, name)
			}
		}
	}
}

// runRepair is kernel's Repair of prev across d on next, a frontier
// request on a fresh detached scratch.
func runRepair(t *testing.T, kernel string, next *graph.CSR, threads int, prev *Result, d *graph.EdgeDelta) (*Result, error) {
	t.Helper()
	b, err := ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	return b.Repair(context.Background(), native.New(), Request{Input: Input{G: next}, Threads: threads, Strategy: StrategyFrontier}, prev, d)
}
