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

// twoStrategies names the kernels with a frontier execution beside the
// scan one; validate checks both.
var twoStrategies = map[string]bool{"SSSP_DIJK": true, "BFS": true, "CONN_COMP": true, "PageRank": true, "COMM": true}

// validate self-checks the suite: every kernel runs through
// Benchmark.Run, under each strategy it has, on randomized inputs on
// both platforms, and its output is compared against the sequential
// oracle. It fails unless every check passes.
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
			if twoStrategies[b.Name] {
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
		}
	}

	if failures > 0 {
		return fmt.Errorf("%d failures", failures)
	}
	fmt.Fprintf(stdout, "crono-validate: all checks passed (%d trials x %d kernel runs)\n", *trials, len(suite)+len(twoStrategies))
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
