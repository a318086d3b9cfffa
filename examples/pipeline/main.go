// Pipeline: a realistic data-preparation workflow — generate a Graph500
// RMAT graph, exchange it through a standard format, relabel it for
// locality, and measure what the relabeling buys on the simulated
// multicore. This is the software-side answer to the low-locality
// problem the paper characterizes.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"crono"
	"crono/internal/graph"
)

func main() {
	// 1. Generate a skewed RMAT graph (Graph500-style).
	g := graph.RMAT(13, 16, 7)
	fmt.Printf("RMAT graph: %d vertices, %d edges, max degree %d\n",
		g.N, g.M(), g.MaxDegree())

	// 2. Round-trip it through MatrixMarket, as you would when
	// exchanging inputs with other tools.
	var buf bytes.Buffer
	if err := crono.WriteMatrixMarket(&buf, g); err != nil {
		log.Fatal(err)
	}
	loaded, err := crono.ReadMatrixMarket(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MatrixMarket round trip: %d edges preserved\n", loaded.M())

	// 3. Relabel vertices in BFS order to pack neighborhoods onto
	// nearby cache lines.
	reordered, _ := graph.ReorderBFS(loaded, 0)
	fmt.Printf("locality score (window 256): original %.3f -> reordered %.3f\n",
		graph.Locality(loaded, 256), graph.Locality(reordered, 256))

	// 4. Measure the effect on the simulated 256-core machine — for both
	// PageRank formulations. Reordering always improves the miss rate,
	// but the push formulation cannot bank the win: packing the hub
	// neighborhoods concentrates its per-edge locked updates onto a few
	// hot vertices and lines, so synchronization grows as fast as the
	// misses shrink. The lock-free pull formulation converts the same
	// locality gain straight into cycles.
	type variant struct {
		name string
		run  func(*crono.Graph) (*crono.Report, error)
	}
	variants := []variant{
		{"push (paper's Table I)", func(gr *crono.Graph) (*crono.Report, error) {
			m, err := crono.NewSimulator(crono.DefaultSimConfig())
			if err != nil {
				return nil, err
			}
			r, err := crono.PageRank(m, gr, 64, 5)
			if err != nil {
				return nil, err
			}
			return r.Report, nil
		}},
		{"pull (lock-free variant)", func(gr *crono.Graph) (*crono.Report, error) {
			m, err := crono.NewSimulator(crono.DefaultSimConfig())
			if err != nil {
				return nil, err
			}
			r, err := crono.Run(context.Background(), m, "PageRank", crono.RunRequest{
				Input: crono.BenchmarkInput{G: gr}, Threads: 64, Strategy: crono.StrategyFrontier, Iters: 5,
			})
			if err != nil {
				return nil, err
			}
			return r.Report, nil
		}},
	}
	for _, v := range variants {
		before, err := v.run(loaded)
		if err != nil {
			log.Fatal(err)
		}
		after, err := v.run(reordered)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nPageRank %s on 64 simulated cores:\n", v.name)
		fmt.Printf("  original : %10d cycles, L1 miss %5.2f%%, sharers+waiting %4.1f%%\n",
			before.Time, before.Cache.L1MissRate(), 100*commFrac(before))
		fmt.Printf("  reordered: %10d cycles, L1 miss %5.2f%%, sharers+waiting %4.1f%%  (%.2fx)\n",
			after.Time, after.Cache.L1MissRate(), 100*commFrac(after),
			float64(before.Time)/float64(after.Time))
	}
}

// commFrac is the coherence-communication share of total thread time.
func commFrac(r *crono.Report) float64 {
	f := r.Breakdown.Fractions()
	return f[2] + f[3] // L2Home-Waiting + L2Home-Sharers
}
