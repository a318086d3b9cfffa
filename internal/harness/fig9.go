package harness

import (
	"fmt"
	"runtime"

	"crono/internal/core"
	"crono/internal/native"
	"crono/internal/sim"
	"crono/internal/stats"
)

// fig9Threads is the real-machine thread sweep (the paper's i7-4790 runs
// 1-16 threads on 4 hyperthreaded cores).
var fig9Threads = []int{1, 2, 4, 8, 12, 16}

// i7Config approximates the paper's real-machine setup (Intel i7-4790,
// Section IV-C) on the simulator: a small desktop-class multicore with
// out-of-order cores, a fast clock, larger outer caches and high memory
// bandwidth. It backs the substituted Figure 9 when the host itself has
// too few hardware threads to show real speedups.
func i7Config() sim.Config {
	cfg := sim.Default()
	cfg.Cores = 16 // 4x4 mesh; the i7's 4C/8T plus headroom (no SMT model)
	cfg.ClockHz = 3.6e9
	cfg.CoreType = sim.OutOfOrder
	cfg.L2SliceSizeB = 512 << 10 // 8 MB shared LLC across 16 slices
	cfg.MemControllers = 2
	cfg.DRAMBandwidthBs = 12.8e9
	cfg.DRAMLatencyNs = 60
	return cfg
}

// RunFig9 reproduces Figure 9: speedups across 1-16 threads relative to
// the 1-thread run. It reports two machines: the actual host via the
// native goroutine platform (honest, but flat when the host lacks
// hardware threads — this is printed with the host's CPU count), and a
// simulated desktop-class multicore standing in for the paper's
// i7-4790 (DESIGN.md substitution #5).
func RunFig9(cfg *Config) error {
	n := cfg.NativeN()
	header := []string{"Benchmark"}
	for _, p := range fig9Threads {
		header = append(header, fmt.Sprintf("p=%d", p))
	}

	// Part 1: the host.
	t := stats.NewTable(
		fmt.Sprintf("Figure 9a: host machine speedups (%d hardware threads, sparse n=%d)",
			runtime.NumCPU(), n),
		header...)
	for _, b := range core.Suite() {
		in := cfg.inputFor(b, n, cfg.MatrixN())
		row := []string{b.Name}
		var seq uint64
		for _, p := range fig9Threads {
			best := ^uint64(0)
			for r := 0; r < 3; r++ { // best of three smooths host noise
				res, err := b.Run(cfg.ctx(), native.New(), core.Request{Input: in, Threads: p})
				if err != nil {
					return err
				}
				best = min(best, res.Report.Time)
			}
			if p == 1 {
				seq = best
			}
			row = append(row, fmt.Sprintf("%.2f", stats.Speedup(seq, best)))
		}
		t.Add(row...)
	}
	if err := cfg.emit("fig9a-host", t); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(cfg.Out); err != nil {
		return err
	}

	// Part 2: the simulated i7-4790-class machine. Smaller inputs keep
	// the simulation fast; the trend, not the absolute time, matters.
	t2 := stats.NewTable(
		"Figure 9b: simulated desktop-class machine (i7-4790 substitute, 16 OOO cores)",
		header...)
	for _, b := range core.Suite() {
		in := cfg.inputFor(b, cfg.SparseN(), cfg.MatrixN()/2)
		row := []string{b.Name}
		var seq uint64
		for _, p := range fig9Threads {
			rep, err := cfg.report(b, in, p, i7Config())
			if err != nil {
				return err
			}
			if p == 1 {
				seq = rep.Time
			}
			row = append(row, fmt.Sprintf("%.2f", stats.Speedup(seq, rep.Time)))
		}
		t2.Add(row...)
	}
	return cfg.emit("fig9b-simdesktop", t2)
}
