package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"

	"crono/internal/core"
	"crono/internal/graph"
)

// validate self-checks the suite: every kernel runs through
// Benchmark.Run, under each strategy it has, on randomized inputs on
// both platforms, and its output is compared against the sequential
// oracle. Every kernel with a Repair also mends the oracle's result
// across a small random delta, and the repaired result is compared
// against the oracle on the graph the delta makes. It fails unless every
// check passes.
func validate(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("crono validate", stderr)
	var (
		trials  = fs.Int("trials", 20, "randomized trials per kernel")
		seed    = fs.Int64("seed", 1, "base seed")
		verbose = fs.Bool("v", false, "print every check")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ctx := context.Background()
	suite := core.Suite()
	runs := 0 // kernel runs per trial
	for _, b := range suite {
		runs++
		if b.Frontier {
			runs++
		}
		if b.Repair != nil {
			runs++
		}
	}

	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(stderr, "FAIL "+format+"\n", args...)
	}
	for trial := 0; trial < *trials; trial++ {
		s := *seed + int64(trial)
		rng := rand.New(rand.NewSource(s))
		n := rng.Intn(300) + 8
		deg := rng.Intn(5) + 1
		g := graph.UniformSparse(n, deg, int32(rng.Intn(90)+10), s)
		d := graph.DenseFromCSR(graph.UniformSparse(rng.Intn(40)+8, 3, 20, s+1))
		cities := graph.Cities(rng.Intn(4)+5, s+2)
		threads := rng.Intn(8) + 1

		plName := "native"
		if trial%2 == 1 {
			plName = "sim"
		}
		pl, err := newPlatform(plName, 16, false)
		if err != nil {
			fail("sim setup: %v", err)
			continue
		}

		check := func(name string, ok bool, detail string) {
			if ok {
				if *verbose {
					fmt.Fprintf(stdout, "ok   trial=%d %s on %s (n=%d p=%d)\n", trial, name, plName, n, threads)
				}
				return
			}
			fail("trial=%d %s on %s (n=%d p=%d): %s", trial, name, plName, n, threads, detail)
		}

		req := core.Request{Input: core.Input{G: g, D: d, Cities: cities}, Threads: threads, Iters: 6, MaxPasses: 6}
		for _, b := range suite {
			strategies := []core.Strategy{core.StrategyScan}
			if b.Frontier {
				strategies = append(strategies, core.StrategyFrontier)
			}
			for _, st := range strategies {
				req.Strategy = st
				name := b.Name + "/" + string(req.Strategy)
				res, err := b.Run(ctx, pl, req)
				if err != nil {
					check(name, false, err.Error())
					continue
				}
				ok, detail := agrees(b.Name, res, req)
				check(name, ok, detail)
			}
			if b.Repair == nil {
				continue
			}
			name := b.Name + "/repair"
			d, err := smallDelta(g, rng, b.Name == "CONN_COMP")
			if err != nil {
				check(name, false, err.Error())
				continue
			}
			next := req
			next.G, next.Strategy = graph.ApplyDelta(g, d), core.StrategyFrontier
			res, err := b.Repair(ctx, pl, next, oracleResult(b.Name, req), d)
			if err != nil {
				check(name, false, err.Error())
				continue
			}
			ok, detail := agrees(b.Name, res, next)
			check(name, ok, detail)
		}
	}

	if failures > 0 {
		return fmt.Errorf("%d failures", failures)
	}
	fmt.Fprintf(stdout, "crono-validate: all checks passed (%d trials x %d kernel runs)\n", *trials, runs)
	return nil
}

// agrees checks a kernel's Run result against its sequential oracle on
// the same request.
func agrees(kernel string, res *core.Result, req core.Request) (bool, string) {
	switch kernel {
	case "SSSP_DIJK":
		return slices.Equal(res.SSSP.Dist, core.SSSPRef(req.G, req.Source)), "distances diverge"
	case "BFS":
		return slices.Equal(res.BFS.Level, core.BFSRef(req.G, req.Source)), "levels diverge"
	case "DFS":
		return slices.Equal(res.DFS.Visited, core.DFSRef(req.G, req.Source)), "reachability diverges"
	case "APSP":
		return slices.Equal(res.APSP.Dist, core.FloydWarshallRef(req.D)), "matrix diverges"
	case "BETW_CENT":
		return slices.Equal(res.Betweenness.Centrality, core.BetweennessRef(req.D)), "centralities diverge"
	case "TSP":
		return res.TSP.Cost == core.TSPRef(req.Cities), "tour not optimal"
	case "CONN_COMP":
		return slices.Equal(res.Components.Labels, core.ComponentsRef(req.G)), "labels diverge"
	case "TRI_CNT":
		return res.Triangles.Total == core.TriangleCountRef(req.G), "counts diverge"
	case "PageRank":
		return closeFloat(res.PageRank.Ranks, core.PageRankRef(req.G, req.Iters)), "ranks diverge"
	case "COMM":
		q := res.Community.Modularity
		return q >= -0.5 && q <= 1, fmt.Sprintf("modularity %g out of bounds", q)
	}
	return false, "no oracle"
}

// oracleResult is the oracle's result for a repairable kernel on req, the
// seed its repair starts from.
func oracleResult(kernel string, req core.Request) *core.Result {
	if kernel == "CONN_COMP" {
		return &core.Result{Components: &core.ComponentsResult{Labels: core.ComponentsRef(req.G)}}
	}
	return &core.Result{BFS: &core.BFSResult{Level: core.BFSRef(req.G, req.Source)}}
}

// smallDelta draws a canonical delta of one to eight edges that
// core.RepairPays takes on g: fresh inserts and, unless insertOnly (or g
// is too small to lose an edge), deletes of present edges.
func smallDelta(g *graph.CSR, rng *rand.Rand, insertOnly bool) (*graph.EdgeDelta, error) {
	size := 1 + rng.Intn(max(1, min(8, g.M()/16)))
	deletes := !insertOnly && g.M() >= 16
	d := &graph.EdgeDelta{}
	used := make(map[graph.Edge]bool)
	for d.Size() < size {
		e := graph.Edge{From: int32(rng.Intn(g.N)), To: int32(rng.Intn(g.N))}
		ts, _ := g.Neighbors(int(e.From))
		del := deletes && len(ts) > 0 && rng.Intn(2) == 0
		if del {
			e.To = ts[rng.Intn(len(ts))]
		}
		if e.From == e.To || used[e] {
			continue
		}
		used[e] = true
		if del {
			d.Deletes = append(d.Deletes, e)
		} else {
			e.Weight = 1 + int32(rng.Intn(90))
			d.Inserts = append(d.Inserts, e)
		}
	}
	return d, d.Canonicalize(g.N)
}

func closeFloat(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(b[i])) {
			return false
		}
	}
	return true
}
