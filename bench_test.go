package crono

import (
	"context"
	"fmt"
	"testing"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/sim"
)

// Benchmark inputs are scaled down so `go test -bench=.` finishes in
// minutes; `crono experiments` regenerates the full-size artifacts.
const (
	benchSparseN = 4096
	benchMatrixN = 128
	benchCities  = 9
	benchThreads = 64
)

func benchInput(b core.Benchmark) core.Input {
	switch {
	case b.UsesMatrix:
		return core.Input{D: graph.DenseFromCSR(graph.UniformSparse(benchMatrixN, 8, 50, 2))}
	case b.UsesCities:
		return core.Input{Cities: graph.Cities(benchCities, 3)}
	default:
		return core.Input{G: graph.UniformSparse(benchSparseN, 8, 100, 1), Source: 0}
	}
}

// benchReport runs one benchmark and returns only the platform report.
func benchReport(b core.Benchmark, pl exec.Platform, in core.Input, threads int) (*exec.Report, error) {
	res, err := b.Run(context.Background(), pl, core.Request{Input: in, Threads: threads})
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

func newBenchSim(b *testing.B, mutate func(*sim.Config)) *sim.Machine {
	b.Helper()
	cfg := sim.Default()
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFig1 runs every suite benchmark on the simulated 256-core
// machine at a representative thread count: the workload behind
// Figure 1's per-benchmark characterization.
func BenchmarkFig1(b *testing.B) {
	for _, bench := range core.Suite() {
		in := benchInput(bench)
		b.Run(bench.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := benchReport(bench, newBenchSim(b, nil), in, benchThreads)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Time), "simcycles")
			}
		})
	}
}

// BenchmarkFig1ThreadSweep scans thread counts for one representative
// benchmark (BFS), the scalability axis of Figure 1.
func BenchmarkFig1ThreadSweep(b *testing.B) {
	bench, _ := core.ByName("BFS")
	in := benchInput(bench)
	for _, p := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := benchReport(bench, newBenchSim(b, nil), in, p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Time), "simcycles")
			}
		})
	}
}

// BenchmarkFig5VertexScaling sweeps the input size for SSSP: the
// Figure 5 axis.
func BenchmarkFig5VertexScaling(b *testing.B) {
	bench, _ := core.ByName("SSSP_DIJK")
	for _, n := range []int{1024, 4096, 16384} {
		in := core.Input{G: graph.UniformSparse(n, 8, 100, 1), Source: 0}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := benchReport(bench, newBenchSim(b, nil), in, benchThreads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7OOO runs the suite on out-of-order cores (Figures 7/8).
func BenchmarkFig7OOO(b *testing.B) {
	for _, name := range []string{"SSSP_DIJK", "BFS", "PageRank"} {
		bench, _ := core.ByName(name)
		in := benchInput(bench)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := newBenchSim(b, func(c *sim.Config) { c.CoreType = sim.OutOfOrder })
				rep, err := benchReport(bench, m, in, benchThreads)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Time), "simcycles")
			}
		})
	}
}

// BenchmarkFig9Native runs the suite natively: the Figure 9 workload and
// the honest wall-clock cost of each kernel on the host.
func BenchmarkFig9Native(b *testing.B) {
	for _, bench := range core.Suite() {
		in := benchInput(bench)
		b.Run(bench.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := benchReport(bench, NewNative(), in, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTab4GraphTypes runs BFS across the Table IV input families.
func BenchmarkTab4GraphTypes(b *testing.B) {
	bench, _ := core.ByName("BFS")
	for _, kind := range graph.Kinds {
		g := graph.Generate(kind, benchSparseN, 1)
		in := core.Input{G: g, Source: 0}
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := benchReport(bench, newBenchSim(b, nil), in, benchThreads)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Time), "simcycles")
			}
		})
	}
}

// BenchmarkAblationDirectory compares ACKWise-4 against a full-map
// directory (DESIGN.md ablation).
func BenchmarkAblationDirectory(b *testing.B) {
	bench, _ := core.ByName("PageRank")
	in := benchInput(bench)
	for _, ptrs := range []int{4, 256} {
		b.Run(fmt.Sprintf("pointers%d", ptrs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := newBenchSim(b, func(c *sim.Config) { c.DirPointers = ptrs })
				rep, err := benchReport(bench, m, in, benchThreads)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Time), "simcycles")
			}
		})
	}
}

// BenchmarkAblationLocalityAware toggles the Section VII locality-aware
// coherence protocol.
func BenchmarkAblationLocalityAware(b *testing.B) {
	bench, _ := core.ByName("PageRank")
	in := benchInput(bench)
	for _, la := range []bool{false, true} {
		b.Run(fmt.Sprintf("enabled=%v", la), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := newBenchSim(b, func(c *sim.Config) { c.LocalityAware = la })
				rep, err := benchReport(bench, m, in, benchThreads)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Time), "simcycles")
			}
		})
	}
}

// BenchmarkAblationParallelization contrasts the two outer-loop
// parallelization families of Table I on the same input: graph division
// (CONN_COMP) versus vertex capture (APSP-style dynamic work claiming is
// exercised through the APSP benchmark).
func BenchmarkAblationParallelization(b *testing.B) {
	for _, name := range []string{"CONN_COMP", "APSP"} {
		bench, _ := core.ByName(name)
		in := benchInput(bench)
		b.Run(bench.Parallelization, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := benchReport(bench, newBenchSim(b, nil), in, benchThreads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraphGenerators measures the input generators themselves.
func BenchmarkGraphGenerators(b *testing.B) {
	for _, kind := range graph.Kinds {
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := graph.Generate(kind, benchSparseN, int64(i))
				if g.N == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}
