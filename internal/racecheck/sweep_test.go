package racecheck

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
)

// sweepCase is one cell of the zero-race pin matrix.
type sweepCase struct {
	bench    core.Benchmark
	strategy core.Strategy
	kind     graph.Kind
	threads  int
}

// sweepCases enumerates every shipped kernel × strategy × generator ×
// thread-count cell checked for freedom from annotation-level races.
// Matrix, cities and variant kernels run once per generator cell. The
// other suite kernels run under scan, frontier and the hybrid name: for
// those with a frontier execution (core.Benchmark.Frontier) both names
// must reach it through the same dispatch; DFS and TRI_CNT have none, so
// their frontier and hybrid cells run the scan execution again and pin
// only that a kernel with one execution accepts the knob. Inputs are tiny — the deterministic scheduler yields at
// every annotation, so cost scales with annotation count, and a race in
// the access pattern shows up at any size.
func sweepCases() []sweepCase {
	kinds := []graph.Kind{graph.KindSparse, graph.KindRoadTX}
	strategies := []core.Strategy{core.StrategyScan, core.StrategyFrontier, core.StrategyHybrid}
	threadCounts := []int{2, 3}
	var cases []sweepCase
	for _, b := range core.Suite() {
		strats := strategies
		if b.UsesMatrix || b.UsesCities {
			strats = strategies[:1]
		}
		for _, s := range strats {
			for _, k := range kinds {
				for _, th := range threadCounts {
					cases = append(cases, sweepCase{b, s, k, th})
				}
			}
		}
	}
	// Variants are single-strategy kernels: one strategy column each.
	for _, b := range core.Variants() {
		for _, k := range kinds {
			for _, th := range threadCounts {
				cases = append(cases, sweepCase{b, core.StrategyScan, k, th})
			}
		}
	}
	// Pull PageRank, PageRank's frontier execution, keeps the one scan
	// column under the PAGERANK_PULL label its cells have always had.
	for _, k := range kinds {
		for _, th := range threadCounts {
			cases = append(cases, sweepCase{pageRankPullEntryPoint(), core.StrategyScan, k, th})
		}
	}
	// The entry points outside the registry run the frontier bodies from
	// other start states: one frontier column each.
	for _, b := range seededEntryPoints() {
		for _, k := range kinds {
			for _, th := range threadCounts {
				cases = append(cases, sweepCase{b, core.StrategyFrontier, k, th})
			}
		}
	}
	return cases
}

// pageRankPullEntryPoint wraps PageRank's frontier execution, the pull
// form, as a sweep cell whatever strategy the cell names.
func pageRankPullEntryPoint() core.Benchmark {
	pr, _ := core.ByName("PageRank")
	return core.Benchmark{Name: "PAGERANK_PULL", Run: func(ctx context.Context, pl exec.Platform, req core.Request) (*core.Result, error) {
		req.Strategy = core.StrategyFrontier
		return pr.Run(ctx, pl, req)
	}}
}

// seededEntryPoints wraps BFSBatch and the two kernels' Repair as sweep
// cells. Each repair is seeded from a full result on req.G plus a
// small random delta, and runs on the mutated graph.
func seededEntryPoints() []core.Benchmark {
	// delta draws a few fresh inserts and, when asked, deletes of
	// existing edges; the seed is fixed, so cells are reproducible.
	delta := func(g *graph.CSR, deletes int) (*graph.EdgeDelta, *graph.CSR, error) {
		rng := rand.New(rand.NewSource(7))
		d := &graph.EdgeDelta{}
		for len(d.Inserts) < 3 {
			if a, b := int32(rng.Intn(g.N)), int32(rng.Intn(g.N)); a != b {
				d.Inserts = append(d.Inserts, graph.Edge{From: a, To: b, Weight: 1 + int32(rng.Intn(8))})
			}
		}
		for v := 0; v < g.N && len(d.Deletes) < deletes; v += 5 {
			if ts, _ := g.Neighbors(v); len(ts) > 0 {
				d.Deletes = append(d.Deletes, graph.Edge{From: int32(v), To: ts[len(ts)-1]})
			}
		}
		// Canonicalize rejects the rare draw that repeats an insert or
		// inserts a deleted edge; the fixed seed avoids both here.
		if err := d.Canonicalize(g.N); err != nil {
			return nil, nil, err
		}
		return d, graph.ApplyDelta(g, d), nil
	}
	wrap := func(name string, run func(ctx context.Context, pl exec.Platform, req core.Request) (*exec.Report, error)) core.Benchmark {
		return core.Benchmark{Name: name, Run: func(ctx context.Context, pl exec.Platform, req core.Request) (*core.Result, error) {
			rep, err := run(ctx, pl, req)
			if err != nil {
				return nil, err
			}
			return &core.Result{Report: rep}, nil
		}}
	}
	// repair runs kernel's Benchmark.Repair; a delta it declines fails
	// the cell.
	repair := func(ctx context.Context, pl exec.Platform, kernel string, req core.Request, prev *core.Result, d *graph.EdgeDelta) (*exec.Report, error) {
		b, err := core.ByName(kernel)
		if err != nil {
			return nil, err
		}
		r, err := b.Repair(ctx, pl, req, prev, d)
		if err != nil {
			return nil, err
		}
		return r.Report, nil
	}
	return []core.Benchmark{
		wrap("BFSBatch", func(ctx context.Context, pl exec.Platform, req core.Request) (*exec.Report, error) {
			r, err := core.BFSBatch(ctx, pl, req.G, []int{0, 1, req.G.N - 1, 1}, req.Threads)
			if err != nil {
				return nil, err
			}
			return r.Report, nil
		}),
		wrap("BFSIncremental", func(ctx context.Context, pl exec.Platform, req core.Request) (*exec.Report, error) {
			d, next, err := delta(req.G, 2)
			if err != nil {
				return nil, err
			}
			prev := &core.Result{BFS: &core.BFSResult{Level: core.BFSRef(req.G, req.Source)}}
			req.G = next
			return repair(ctx, pl, "BFS", req, prev, d)
		}),
		wrap("ComponentsIncremental", func(ctx context.Context, pl exec.Platform, req core.Request) (*exec.Report, error) {
			d, _, err := delta(req.G, 0)
			if err != nil {
				return nil, err
			}
			// A one-way edge from every other component's root to vertex 0
			// merges them all, so the compress phase runs too.
			old := core.ComponentsRef(req.G)
			for v, l := range old {
				if l == int32(v) && l != old[0] {
					d.Inserts = append(d.Inserts, graph.Edge{From: l, To: 0, Weight: 1})
				}
			}
			if err := d.Canonicalize(req.G.N); err != nil {
				return nil, err
			}
			req.G = graph.ApplyDelta(req.G, d)
			return repair(ctx, pl, "CONN_COMP", req, &core.Result{Components: &core.ComponentsResult{Labels: old}}, d)
		}),
	}
}

// TestKernelSweepZeroRaces pins the absence of annotation-level races
// across the shipped kernels on the deterministic platform. A failure
// here means either a kernel regression (an annotation lost its lock or
// barrier ordering) or a detector regression (a phantom race).
func TestKernelSweepZeroRaces(t *testing.T) {
	for _, tc := range sweepCases() {
		tc := tc
		name := fmt.Sprintf("%s/%s/%s/t%d", tc.bench.Name, tc.strategy, tc.kind, tc.threads)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pl := New()
			req := core.Request{
				Threads:  tc.threads,
				Strategy: tc.strategy,
			}
			req.G = graph.Generate(tc.kind, 40, 1)
			req.Source = 0
			switch {
			case tc.bench.UsesMatrix:
				req.D = graph.DenseFromCSR(graph.Generate(tc.kind, 12, 1))
			case tc.bench.UsesCities:
				req.Cities = graph.Cities(7, 3)
			}
			if _, err := tc.bench.Run(context.Background(), pl, req); err != nil {
				t.Fatal(err)
			}
			if races := pl.Races(); len(races) != 0 {
				t.Fatalf("kernel reported %d races:\n%s", len(races), formatRaces(races))
			}
		})
	}
}
