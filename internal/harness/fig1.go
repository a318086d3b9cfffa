package harness

import (
	"fmt"

	"crono/internal/core"
	"crono/internal/sim"
	"crono/internal/stats"
)

// RunFig1 reproduces Figure 1: for every benchmark, the completion-time
// breakdown (Compute, L1Cache-L2Home, L2Home-Waiting, L2Home-Sharers,
// L2Home-OffChip, Synchronization), the Variability load-imbalance metric
// and the normalized completion time across the thread sweep, plus the
// best speedup over the 1-thread run.
func RunFig1(cfg *Config) error {
	mc := cfg.simConfig(sim.InOrder)
	for _, b := range core.Suite() {
		in := cfg.defaultInput(b)
		t := stats.NewTable(
			fmt.Sprintf("Figure 1 [%s]: normalized completion time breakdown", b.Name),
			"Threads", "NormTime", "Compute", "L1-L2Home", "Waiting", "Sharers", "OffChip", "Sync", "Variability", "Speedup")
		var seq uint64
		bestSp, bestP := 0.0, 1
		for _, p := range cfg.threads() {
			if cfg.Cores > 0 && p > cfg.Cores {
				continue
			}
			rep, err := cfg.report(b, in, p, mc)
			if err != nil {
				return err
			}
			if p == 1 || seq == 0 {
				seq = rep.Time
			}
			sp := stats.Speedup(seq, rep.Time)
			if sp > bestSp {
				bestSp, bestP = sp, p
			}
			row := append([]string{fmt.Sprint(p), fmt.Sprintf("%.3f", float64(rep.Time)/float64(seq))},
				stats.BreakdownRow(rep.Breakdown)...)
			t.Add(append(row, fmt.Sprintf("%.3f", rep.Variability()), fmt.Sprintf("%.3f", sp))...)
		}
		if err := cfg.emit("fig1-"+b.Name, t); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(cfg.Out, "best speedup: %.2fx at %d threads\n\n", bestSp, bestP); err != nil {
			return err
		}
	}
	return nil
}
