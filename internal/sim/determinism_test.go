package sim

import (
	"context"
	"fmt"
	"testing"

	"crono/internal/core"
	"crono/internal/graph"
)

// TestMultiThreadRunsRepeat: the scheduler, not the host, decides how
// simulated threads interleave, so every suite kernel's multi-thread
// report repeats bit for bit — timing, breakdown, cache statistics, flit
// hops and energy. CI runs it at several GOMAXPROCS (-cpu 1,2,4).
func TestMultiThreadRunsRepeat(t *testing.T) {
	kinds := []graph.Kind{graph.KindSparse, graph.KindSocial}
	for _, b := range core.Suite() {
		strats := []core.Strategy{core.StrategyScan}
		if b.Frontier {
			strats = append(strats, core.StrategyFrontier)
		}
		for _, s := range strats {
			for _, kind := range kinds {
				for _, threads := range []int{4, 16} {
					t.Run(fmt.Sprintf("%s/%s/%s/t%d", b.Name, s, kind, threads), func(t *testing.T) {
						req := core.Request{Threads: threads, Strategy: s, Iters: 2}
						req.G = graph.Generate(kind, 128, 3)
						switch {
						case b.UsesMatrix:
							req.D = graph.DenseFromCSR(graph.Generate(kind, 24, 3))
						case b.UsesCities:
							req.Cities = graph.Cities(7, 3)
						}
						run := func() string {
							res, err := b.Run(context.Background(), mustMachine(t, smallConfig()), req)
							if err != nil {
								t.Fatal(err)
							}
							return goldenFingerprint(res.Report)
						}
						if a, b := run(), run(); a != b {
							t.Fatalf("two runs disagree\n a: %s\n b: %s", a, b)
						}
					})
				}
			}
		}
	}
}
