package harness

import (
	"fmt"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/sim"
	"crono/internal/stats"
)

// fig2Buckets is the resolution of the active-vertex traces.
const fig2Buckets = 25

// RunFig2 reproduces Figure 2: active vertices over normalized execution
// time at the best thread count, rendered as bucketed series.
func RunFig2(cfg *Config) error {
	t := stats.NewTable(
		"Figure 2: active vertices (normalized 0-1) over execution time (25 buckets, 0-100%)",
		"Benchmark", "Threads", "Trace")
	return cfg.atBestThreads("fig2", sim.InOrder, t, func(b core.Benchmark, p int, rep *exec.Report) {
		series := stats.BucketedTrace(rep.ActiveTrace, rep.Time, fig2Buckets)
		t.Add(b.Name, fmt.Sprint(p), stats.Sparkline(series))
	})
}

// RunFig3 reproduces Figure 3: the private L1 data-cache miss rate at the
// best thread count, broken into cold, capacity and sharing misses.
func RunFig3(cfg *Config) error {
	t := stats.NewTable(
		"Figure 3: private L1-D miss rates (%) at best thread counts",
		"Benchmark", "Threads", "Cold", "Capacity", "Sharing", "Total")
	return cfg.atBestThreads("fig3", sim.InOrder, t, func(b core.Benchmark, p int, rep *exec.Report) {
		r := rep.Cache.L1MissRateByClass()
		t.Addf(b.Name, p,
			r[exec.MissCold], r[exec.MissCapacity], r[exec.MissSharing],
			rep.Cache.L1MissRate())
	})
}

// RunFig4 reproduces Figure 4: the cache hierarchy miss rate (L2 misses
// over total L1 accesses) at the best thread count.
func RunFig4(cfg *Config) error {
	t := stats.NewTable(
		"Figure 4: cache hierarchy miss rates (%) at best thread counts",
		"Benchmark", "Threads", "HierarchyMissRate")
	return cfg.atBestThreads("fig4", sim.InOrder, t, func(b core.Benchmark, p int, rep *exec.Report) {
		t.Addf(b.Name, p, rep.Cache.HierarchyMissRate())
	})
}

// RunFig6 reproduces Figure 6: normalized dynamic energy breakdowns of
// the memory system at the best thread count.
func RunFig6(cfg *Config) error {
	t := stats.NewTable(
		"Figure 6: normalized dynamic energy breakdown at best thread counts",
		"Benchmark", "L1-I", "L1-D", "L2", "Directory", "Router", "Link", "DRAM", "Network%")
	return cfg.atBestThreads("fig6", sim.InOrder, t, func(b core.Benchmark, p int, rep *exec.Report) {
		f := rep.Energy.Fractions()
		t.Addf(b.Name,
			f[exec.EnergyL1I], f[exec.EnergyL1D], f[exec.EnergyL2], f[exec.EnergyDir],
			f[exec.EnergyRouter], f[exec.EnergyLink], f[exec.EnergyDRAM],
			100*(f[exec.EnergyRouter]+f[exec.EnergyLink]))
	})
}

// RunFig7 reproduces Figure 7: the completion-time breakdown at the best
// thread count on out-of-order cores.
func RunFig7(cfg *Config) error {
	t := stats.NewTable(
		"Figure 7: normalized completion time at best thread count, OOO cores",
		"Benchmark", "Threads", "Compute", "L1-L2Home", "Waiting", "Sharers", "OffChip", "Sync")
	return cfg.atBestThreads("fig7", sim.OutOfOrder, t, func(b core.Benchmark, p int, rep *exec.Report) {
		t.Add(append([]string{b.Name, fmt.Sprint(p)}, stats.BreakdownRow(rep.Breakdown)...)...)
	})
}

// RunFig8 reproduces Figure 8: speedups at the best thread count over a
// sequential OOO core.
func RunFig8(cfg *Config) error {
	t := stats.NewTable(
		"Figure 8: speedups at best thread count over sequential OOO core",
		"Benchmark", "Threads", "Speedup")
	for _, b := range core.Suite() {
		sp, err := cfg.bestSpeedup(b, cfg.defaultInput(b), cfg.simConfig(sim.OutOfOrder))
		if err != nil {
			return err
		}
		t.Addf(b.Name, cfg.bestThreads(b.Name), sp)
	}
	return cfg.emit("fig8", t)
}
