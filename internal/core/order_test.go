package core

import (
	"context"
	"math"
	"testing"

	"crono/internal/graph"
	"crono/internal/native"
)

// runNamed executes the named benchmark on the native platform.
func runNamed(t *testing.T, name string, req Request) *Result {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(context.Background(), native.New(), req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// samePayload compares the per-vertex payloads of two results: exact for
// integer kernels, within eps for the float kernels whose accumulation
// order legitimately changes under relabeling. Schedule statistics
// (rounds, relaxations, iterations) are not compared — the permuted
// schedule differs by design.
func samePayload(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	const eps = 1e-9
	switch {
	case want.BFS != nil:
		for v := range want.BFS.Level {
			if got.BFS.Level[v] != want.BFS.Level[v] {
				t.Fatalf("%s: level[%d] = %d, want %d", tag, v, got.BFS.Level[v], want.BFS.Level[v])
			}
		}
		if got.BFS.Visited != want.BFS.Visited || got.BFS.Levels != want.BFS.Levels {
			t.Fatalf("%s: visited/levels %d/%d, want %d/%d",
				tag, got.BFS.Visited, got.BFS.Levels, want.BFS.Visited, want.BFS.Levels)
		}
	case want.SSSP != nil:
		for v := range want.SSSP.Dist {
			if got.SSSP.Dist[v] != want.SSSP.Dist[v] {
				t.Fatalf("%s: dist[%d] = %d, want %d", tag, v, got.SSSP.Dist[v], want.SSSP.Dist[v])
			}
		}
	case want.DFS != nil:
		for v := range want.DFS.Visited {
			if got.DFS.Visited[v] != want.DFS.Visited[v] {
				t.Fatalf("%s: visited[%d] mismatch", tag, v)
			}
		}
		if got.DFS.Count != want.DFS.Count {
			t.Fatalf("%s: count %d, want %d", tag, got.DFS.Count, want.DFS.Count)
		}
	case want.Components != nil:
		for v := range want.Components.Labels {
			if got.Components.Labels[v] != want.Components.Labels[v] {
				t.Fatalf("%s: label[%d] = %d, want %d",
					tag, v, got.Components.Labels[v], want.Components.Labels[v])
			}
		}
		if got.Components.Components != want.Components.Components {
			t.Fatalf("%s: components %d, want %d", tag, got.Components.Components, want.Components.Components)
		}
	case want.Triangles != nil:
		for v := range want.Triangles.PerVertex {
			if got.Triangles.PerVertex[v] != want.Triangles.PerVertex[v] {
				t.Fatalf("%s: triangles[%d] = %d, want %d",
					tag, v, got.Triangles.PerVertex[v], want.Triangles.PerVertex[v])
			}
		}
		if got.Triangles.Total != want.Triangles.Total {
			t.Fatalf("%s: total %d, want %d", tag, got.Triangles.Total, want.Triangles.Total)
		}
	case want.PageRank != nil:
		for v := range want.PageRank.Ranks {
			if math.Abs(got.PageRank.Ranks[v]-want.PageRank.Ranks[v]) > eps {
				t.Fatalf("%s: rank[%d] = %g, want %g",
					tag, v, got.PageRank.Ranks[v], want.PageRank.Ranks[v])
			}
		}
	case want.Brandes != nil:
		for v := range want.Brandes.Centrality {
			if math.Abs(got.Brandes.Centrality[v]-want.Brandes.Centrality[v]) > eps {
				t.Fatalf("%s: centrality[%d] = %g, want %g",
					tag, v, got.Brandes.Centrality[v], want.Brandes.Centrality[v])
			}
		}
	case want.BFSTarget != nil:
		if got.BFSTarget.Found != want.BFSTarget.Found ||
			got.BFSTarget.Level != want.BFSTarget.Level ||
			got.BFSTarget.Explored != want.BFSTarget.Explored {
			t.Fatalf("%s: target %+v, want %+v", tag, got.BFSTarget, want.BFSTarget)
		}
	default:
		t.Fatalf("%s: no payload to compare", tag)
	}
}

// TestReorderedRunsMatchUnordered is the permutation-contract property:
// every orderable kernel, under every strategy it supports and every
// ordering, must return the same payload (in original vertex ids) as an
// unordered run.
func TestReorderedRunsMatchUnordered(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"social": graph.SocialNet(400, 8, 5),
		"road":   graph.RoadNet(400, 6),
	}
	cases := []struct {
		name       string
		strategies []Strategy
	}{
		{"BFS", []Strategy{StrategyScan, StrategyFrontier}},
		{"SSSP_DIJK", []Strategy{StrategyScan, StrategyFrontier}},
		{"CONN_COMP", []Strategy{StrategyScan, StrategyFrontier}},
		{"DFS", []Strategy{StrategyScan}},
		{"TRI_CNT", []Strategy{StrategyScan}},
		{"PageRank", []Strategy{StrategyScan, StrategyFrontier}},
		{"SSSP_DELTA", []Strategy{StrategyScan}},
		{"BFS_TARGET", []Strategy{StrategyScan}},
		{"BETW_BRANDES", []Strategy{StrategyScan}},
		{"PAGERANK_PULL", []Strategy{StrategyScan}},
	}
	for gname, g := range graphs {
		for _, c := range cases {
			for _, st := range c.strategies {
				base := Request{Input: Input{G: g, Source: 1}, Threads: 4, Strategy: st, Target: g.N / 2, Iters: 5}
				want := runNamed(t, c.name, base)
				for _, o := range graph.Orders() {
					ro, err := graph.Reorder(g, o)
					if err != nil {
						t.Fatal(err)
					}
					req := base
					req.Reorder = ro
					got := runNamed(t, c.name, req)
					samePayload(t, gname+"/"+c.name+"/"+string(st)+"/"+string(o), want, got)
				}
			}
		}
	}
}

// TestReorderedRunsFullGeneratorMatrix pins bit-identity across the whole
// Table III generator matrix for the frontier fast paths, which are the
// ones the service actually dispatches reordered.
func TestReorderedRunsFullGeneratorMatrix(t *testing.T) {
	for _, kind := range append(append([]graph.Kind(nil), graph.Kinds...), graph.KindSocialDense) {
		g := graph.Generate(kind, 300, 17)
		for _, name := range []string{"BFS", "SSSP_DIJK", "CONN_COMP"} {
			base := Request{Input: Input{G: g, Source: 0}, Threads: 3, Strategy: StrategyFrontier}
			want := runNamed(t, name, base)
			for _, o := range graph.Orders() {
				ro, err := graph.Reorder(g, o)
				if err != nil {
					t.Fatal(err)
				}
				req := base
				req.Reorder = ro
				got := runNamed(t, name, req)
				samePayload(t, string(kind)+"/"+name+"/"+string(o), want, got)
			}
		}
	}
}

// TestReorderRejectsMismatchedMaps: a Reorder built for a different graph
// must be refused, not silently applied.
func TestReorderRejectsMismatchedMaps(t *testing.T) {
	g := graph.RoadNet(100, 3)
	other, err := graph.Reorder(graph.RoadNet(200, 3), graph.OrderRCM)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.Run(context.Background(), native.New(), Request{
		Input: Input{G: g}, Threads: 2, Reorder: other,
	})
	if err == nil {
		t.Fatal("mismatched reorder maps accepted")
	}
}

// TestCommIgnoresReorder: COMM has no label-invariant result, so the
// decorator must leave it running over the original layout even when a
// reordering is supplied.
func TestCommIgnoresReorder(t *testing.T) {
	g := twoCliques(5)
	ro, err := graph.Reorder(g, graph.OrderDegree)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("COMM")
	if err != nil {
		t.Fatal(err)
	}
	if b.Orderable {
		t.Fatal("COMM must not be orderable")
	}
	want, err := b.Run(context.Background(), native.New(), Request{Input: Input{G: g}, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Run(context.Background(), native.New(), Request{Input: Input{G: g}, Threads: 1, Reorder: ro})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Community.Community {
		if got.Community.Community[v] != want.Community.Community[v] {
			t.Fatalf("COMM result changed under ignored reorder at %d", v)
		}
	}
}

// TestCanonicalLabelsMinimumId: canonicalization must map every raw label
// to the minimum original vertex id of its component.
func TestCanonicalLabelsMinimumId(t *testing.T) {
	// Two components {0,2} and {1,3} in original ids. In permuted space
	// they converged to representatives 3 and 2 — neither is the minimum
	// original id, so canonicalization must remap both to 0 and 1.
	inv := []int32{2, 0, 3, 1} // inv[p] = original vertex at permuted slot p
	labels := []int32{3, 3, 2, 2}
	got := canonicalLabels(labels, inv)
	want := []int32{0, 1, 0, 1}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("canonical[%d] = %d, want %d (full %v)", v, got[v], want[v], got)
		}
	}
}

// TestAutoSSSPDelta: the heuristic tracks avg-weight x avg-degree, clamps
// to at least 1, and falls back to the fixed default on degenerate
// inputs.
func TestAutoSSSPDelta(t *testing.T) {
	g := graph.RoadNet(1000, 3)
	var sum int64
	for _, w := range g.Weights {
		sum += int64(w)
	}
	want := int32(float64(sum) / float64(g.M()) * float64(g.M()) / float64(g.N))
	got := AutoSSSPDelta(g)
	// The strided sample may deviate from the exact mean; it must land
	// within a factor of two of the closed-form value.
	if got < want/2 || got > want*2 {
		t.Fatalf("auto delta %d, want about %d", got, want)
	}
	if AutoSSSPDelta(nil) != DefaultSSSPDelta {
		t.Fatal("nil graph did not fall back")
	}
	if AutoSSSPDelta(graph.FromEdges(3, nil, true)) != DefaultSSSPDelta {
		t.Fatal("edgeless graph did not fall back")
	}
	if d := AutoSSSPDelta(graph.Generate(graph.KindSocial, 500, 3)); d < 1 {
		t.Fatalf("auto delta %d below 1", d)
	}
}

// TestAutoDeltaUsedWhenUnset: with Delta unset the SSSP_DIJK frontier
// path must auto-tune (observable through the round count differing from
// the fixed default on a weighted road graph) while distances stay exact.
func TestAutoDeltaUsedWhenUnset(t *testing.T) {
	g := graph.Generate(graph.KindRoadCA, 1200, 7)
	auto := runNamed(t, "SSSP_DIJK", Request{Input: Input{G: g}, Threads: 4, Strategy: StrategyFrontier})
	fixed := runNamed(t, "SSSP_DIJK", Request{Input: Input{G: g}, Threads: 4, Strategy: StrategyFrontier, Delta: DefaultSSSPDelta})
	ref := SSSPRef(g, 0)
	for v := range ref {
		if auto.SSSP.Dist[v] != ref[v] {
			t.Fatalf("auto-delta dist[%d] = %d, want %d", v, auto.SSSP.Dist[v], ref[v])
		}
	}
	if AutoSSSPDelta(g) != DefaultSSSPDelta && auto.SSSP.Rounds == fixed.SSSP.Rounds {
		t.Logf("auto delta %d (default %d): rounds coincide (%d) — schedule may legitimately match",
			AutoSSSPDelta(g), DefaultSSSPDelta, auto.SSSP.Rounds)
	}
}
