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

// validate self-checks the suite: every kernel runs on randomized inputs
// on both platforms and its output is compared against the sequential
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

		if res, err := core.SSSP(ctx, pl, g, 0, threads); err != nil {
			check("SSSP", false, err.Error())
		} else {
			check("SSSP", slices.Equal(res.Dist, core.SSSPRef(g, 0)), "distances diverge")
		}
		if res, err := core.BFS(ctx, pl, g, 0, threads); err != nil {
			check("BFS", false, err.Error())
		} else {
			check("BFS", slices.Equal(res.Level, core.BFSRef(g, 0)), "levels diverge")
		}
		if res, err := core.DFS(ctx, pl, g, 0, threads); err != nil {
			check("DFS", false, err.Error())
		} else {
			check("DFS", slices.Equal(res.Visited, core.DFSRef(g, 0)), "reachability diverges")
		}
		if res, err := core.APSP(ctx, pl, d, threads); err != nil {
			check("APSP", false, err.Error())
		} else {
			check("APSP", slices.Equal(res.Dist, core.FloydWarshallRef(d)), "matrix diverges")
		}
		if res, err := core.Betweenness(ctx, pl, d, threads); err != nil {
			check("BETW_CENT", false, err.Error())
		} else {
			check("BETW_CENT", slices.Equal(res.Centrality, core.BetweennessRef(d)), "centralities diverge")
		}
		if res, err := core.TSP(ctx, pl, cities, threads); err != nil {
			check("TSP", false, err.Error())
		} else {
			check("TSP", res.Cost == core.TSPRef(cities), "tour not optimal")
		}
		if res, err := core.ConnectedComponents(ctx, pl, g, threads); err != nil {
			check("CONN_COMP", false, err.Error())
		} else {
			check("CONN_COMP", slices.Equal(res.Labels, core.ComponentsRef(g)), "labels diverge")
		}
		if res, err := core.TriangleCount(ctx, pl, g, threads); err != nil {
			check("TRI_CNT", false, err.Error())
		} else {
			check("TRI_CNT", res.Total == core.TriangleCountRef(g), "counts diverge")
		}
		if res, err := core.PageRank(ctx, pl, g, threads, 6); err != nil {
			check("PageRank", false, err.Error())
		} else {
			check("PageRank", closeFloat(res.Ranks, core.PageRankRef(g, 6)), "ranks diverge")
		}
		if res, err := core.Community(ctx, pl, g, threads, 6); err != nil {
			check("COMM", false, err.Error())
		} else {
			ok := res.Modularity >= -0.5 && res.Modularity <= 1
			check("COMM", ok, fmt.Sprintf("modularity %g out of bounds", res.Modularity))
		}
	}

	if failures > 0 {
		return fmt.Errorf("%d failures", failures)
	}
	fmt.Fprintf(stdout, "crono-validate: all checks passed (%d trials x 10 kernels)\n", *trials)
	return nil
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
