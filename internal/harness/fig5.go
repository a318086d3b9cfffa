package harness

import (
	"fmt"

	"crono/internal/core"
	"crono/internal/graph"
	"crono/internal/sim"
	"crono/internal/stats"
)

// RunFig5 reproduces Figure 5: the vertex scalability study. Sparse-graph
// benchmarks sweep four vertex counts (paper: 16K to 4M), APSP and
// BETW_CENT sweep matrix sizes (paper: 1K to 32K) and TSP sweeps city
// counts (paper: 4 to 32). Speedups are at the best thread count,
// relative to the 1-thread run on the same input.
func RunFig5(cfg *Config) error {
	base := cfg.SparseN()
	sparseSweep := []int{base / 4, base / 2, base, base * 2}
	mbase := cfg.MatrixN()
	matrixSweep := []int{mbase / 8, mbase / 4, mbase / 2, mbase}
	top := cfg.TSPCities()
	citySweep := []int{top - 6, top - 4, top - 2, top}
	for i, c := range citySweep {
		if c < 4 {
			citySweep[i] = 4
		}
	}

	t := stats.NewTable(
		"Figure 5: vertex scalability (best-thread speedup per input size)",
		"Benchmark", "Size1", "Sp1", "Size2", "Sp2", "Size3", "Sp3", "Size4", "Sp4")

	mc := cfg.simConfig(sim.InOrder)
	for _, b := range core.Suite() {
		row := []string{b.Name}
		fam, sizes := string(graph.KindSparse), sparseSweep
		switch {
		case b.UsesMatrix:
			fam, sizes = familyMatrix, matrixSweep
		case b.UsesCities:
			fam, sizes = familyCities, citySweep
		}
		for _, n := range sizes {
			sp, err := cfg.bestSpeedup(b, cfg.input(fam, n), mc)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprint(n), fmt.Sprintf("%.2f", sp))
		}
		t.Add(row...)
	}
	if err := cfg.emit("fig5", t); err != nil {
		return err
	}
	_, err := fmt.Fprintln(cfg.Out, "\nExpected trend (paper): all benchmarks show positive scaling as input size grows.")
	return err
}
