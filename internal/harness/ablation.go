package harness

import (
	"fmt"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/noc"
	"crono/internal/sim"
	"crono/internal/stats"
)

// ablationBenchmarks are the lock- and sharing-heavy kernels the paper's
// Section VII singles out as beneficiaries of architectural optimization.
var ablationBenchmarks = []string{"SSSP_DIJK", "BFS", "PageRank", "CONN_COMP"}

// ablate emits t as name with one row per named kernel, from its runs at
// its best thread count on the Table II machine (the baseline, which
// Figure 1 also runs) and on that machine changed by mutate.
func (c *Config) ablate(name string, t *stats.Table, benches []string, mutate func(*sim.Config), row func(bench string, p int, base, mut *exec.Report)) error {
	for _, bn := range benches {
		b, err := core.ByName(bn)
		if err != nil {
			return err
		}
		in, p, mc := c.defaultInput(b), c.bestThreads(bn), c.simConfig(sim.InOrder)
		base, err := c.report(b, in, p, mc)
		if err != nil {
			return err
		}
		mutate(&mc)
		mut, err := c.report(b, in, p, mc)
		if err != nil {
			return err
		}
		row(bn, p, base, mut)
	}
	return c.emit(name, t)
}

// RunAblationDirectory compares the Table II ACKWise-4 limited directory
// against an idealized full-map directory (one sharer pointer per core),
// isolating the cost of broadcast invalidations on sharer-heavy kernels.
func RunAblationDirectory(cfg *Config) error {
	t := stats.NewTable(
		"Ablation: ACKWise-4 vs full-map directory (completion time, best threads)",
		"Benchmark", "Threads", "ACKWise-4", "Full-map", "FullMap/ACKWise")
	return cfg.ablate("abl-dir", t, ablationBenchmarks,
		func(sc *sim.Config) { sc.DirPointers = sc.Cores },
		func(bench string, p int, ack, full *exec.Report) {
			t.Addf(bench, p, ack.Time, full.Time, float64(full.Time)/float64(ack.Time))
		})
}

// RunAblationLocality evaluates the Section VII locality-aware coherence
// protocol: low-reuse lines are served remotely at the home tile instead
// of thrashing the private L1s, reducing on-chip traffic for read-write
// shared data.
func RunAblationLocality(cfg *Config) error {
	t := stats.NewTable(
		"Ablation: locality-aware coherence (Section VII-A)",
		"Benchmark", "Threads", "Baseline", "LocalityAware", "Speedup", "L1MissBase%", "L1MissLA%", "FlitHopsRatio")
	return cfg.ablate("abl-locality", t, ablationBenchmarks,
		func(sc *sim.Config) { sc.LocalityAware = true },
		func(bench string, p int, base, la *exec.Report) {
			ratio := 0.0
			if base.NetworkFlitHops > 0 {
				ratio = float64(la.NetworkFlitHops) / float64(base.NetworkFlitHops)
			}
			t.Addf(bench, p, base.Time, la.Time,
				float64(base.Time)/float64(la.Time),
				base.Cache.L1MissRate(), la.Cache.L1MissRate(), ratio)
		})
}

// RunAblationWindow demonstrates why the lax-synchronization window
// exists: with it disabled, the real Go scheduler decides who wins races
// for dynamically distributed work (vertex capture), and the simulated
// load balance of capture-based kernels collapses.
func RunAblationWindow(cfg *Config) error {
	t := stats.NewTable(
		"Ablation: lax-synchronization window (APSP vertex capture, 64 threads)",
		"Window", "Time", "Variability")
	b, err := core.ByName("APSP")
	if err != nil {
		return err
	}
	in := cfg.defaultInput(b)
	for _, w := range []uint64{0, 10_000, 50_000, 200_000} {
		mc := cfg.simConfig(sim.InOrder)
		mc.WindowCycles = w
		rep, err := cfg.report(b, in, min(64, cfg.maxThreads()), mc)
		if err != nil {
			return err
		}
		t.Addf(fmt.Sprint(w), rep.Time, rep.Variability())
	}
	if err := cfg.emit("abl-window", t); err != nil {
		return err
	}
	_, err = fmt.Fprintln(cfg.Out, "\nWindow=0 disables the throttle; expect far higher variability there.")
	return err
}

// RunAblationRouting compares XY routing, the Table II default, against
// O1TURN-style oblivious routing (Section VII-B: "routing protocols, such
// as oblivious routing, may be able to reduce contention").
func RunAblationRouting(cfg *Config) error {
	t := stats.NewTable(
		"Ablation: XY vs oblivious routing (completion time, best threads)",
		"Benchmark", "Threads", "XY", "Oblivious", "Oblivious/XY")
	return cfg.ablate("abl-routing", t, ablationBenchmarks,
		func(sc *sim.Config) { sc.Routing = noc.RouteOblivious },
		func(bench string, p int, xy, obl *exec.Report) {
			t.Addf(bench, p, xy.Time, obl.Time, float64(obl.Time)/float64(xy.Time))
		})
}

// RunAblationPrefetch evaluates the next-line prefetcher (Section VI
// lists data prefetching among the real machine's advantages over the
// simulated futuristic multicore).
func RunAblationPrefetch(cfg *Config) error {
	t := stats.NewTable(
		"Ablation: next-line L1 prefetcher",
		"Benchmark", "Threads", "Baseline", "Prefetch", "Speedup", "MissBase%", "MissPF%")
	return cfg.ablate("abl-prefetch", t, []string{"APSP", "BETW_CENT", "PageRank", "CONN_COMP"},
		func(sc *sim.Config) { sc.NextLinePrefetch = true },
		func(bench string, p int, base, pf *exec.Report) {
			t.Addf(bench, p, base.Time, pf.Time,
				float64(base.Time)/float64(pf.Time),
				base.Cache.L1MissRate(), pf.Cache.L1MissRate())
		})
}

// RunAblationHetero evaluates the heterogeneous design point of
// Section VII-B: one out-of-order core for the master thread (which runs
// the serial reductions between barriers) with in-order cores elsewhere.
func RunAblationHetero(cfg *Config) error {
	t := stats.NewTable(
		"Ablation: heterogeneous master core (OOO tile 0, in-order rest)",
		"Benchmark", "Threads", "Homogeneous", "HeteroMaster", "Speedup")
	return cfg.ablate("abl-hetero", t, []string{"SSSP_DIJK", "CONN_COMP", "COMM"},
		func(sc *sim.Config) { sc.HeteroMasterOOO = true },
		func(bench string, p int, base, het *exec.Report) {
			t.Addf(bench, p, base.Time, het.Time, float64(base.Time)/float64(het.Time))
		})
}

// RunAblationFormulation contrasts algorithmic formulations on the
// simulated machine: push vs pull PageRank (locks vs no locks) and exact
// pareto fronts vs delta-stepping SSSP (rounds vs redundant work) — the
// software-side mitigations for the bottlenecks the paper characterizes.
func RunAblationFormulation(cfg *Config) error {
	t := stats.NewTable(
		"Ablation: algorithmic formulations on the Table II machine",
		"Kernel", "Variant", "Threads", "Time", "Sync%", "Speedup-vs-base")
	sssp, _ := core.ByName("SSSP_DIJK")
	pr, _ := core.ByName("PageRank")
	in, mc := cfg.defaultInput(sssp), cfg.simConfig(sim.InOrder)

	p := cfg.bestThreads("PageRank")
	push, err := cfg.run(pr, core.Request{Input: in, Threads: p, Strategy: core.StrategyScan}, mc)
	if err != nil {
		return err
	}
	pull, err := cfg.run(pr, core.Request{Input: in, Threads: p, Strategy: core.StrategyFrontier}, mc)
	if err != nil {
		return err
	}
	t.Addf("PageRank", "push+locks (paper)", p, push.Report.Time,
		100*push.Report.Breakdown.Fractions()[exec.CompSync], 1.0)
	t.Addf("PageRank", "pull, no locks", p, pull.Report.Time,
		100*pull.Report.Breakdown.Fractions()[exec.CompSync],
		float64(push.Report.Time)/float64(pull.Report.Time))

	// Both SSSP rows run the frontier kernel, so only the bucket width
	// changes: with integer weights, delta=1 settles exact pareto fronts.
	ps := cfg.bestThreads("SSSP_DIJK")
	exact, err := cfg.run(sssp, core.Request{Input: in, Threads: ps, Strategy: core.StrategyFrontier, Delta: 1}, mc)
	if err != nil {
		return err
	}
	wide, err := cfg.run(sssp, core.Request{Input: in, Threads: ps, Strategy: core.StrategyFrontier, Delta: 32}, mc)
	if err != nil {
		return err
	}
	t.Addf("SSSP", "exact fronts (d=1)", ps, exact.Report.Time,
		100*exact.Report.Breakdown.Fractions()[exec.CompSync], 1.0)
	t.Addf("SSSP", "delta-stepping (d=32)", ps, wide.Report.Time,
		100*wide.Report.Breakdown.Fractions()[exec.CompSync],
		float64(exact.Report.Time)/float64(wide.Report.Time))
	if err := cfg.emit("abl-formulation", t); err != nil {
		return err
	}
	_, err = fmt.Fprintf(cfg.Out, "\nrounds: exact=%d delta=%d\n", exact.SSSP.Rounds, wide.SSSP.Rounds)
	return err
}

// RunAblationReorder measures vertex reordering — the software locality
// optimization for the unstructured-access problem the paper
// characterizes. PageRank runs on Table IV's social graph before and
// after BFS relabeling.
func RunAblationReorder(cfg *Config) error {
	t := stats.NewTable(
		"Ablation: BFS vertex reordering (PageRank on a social graph)",
		"Layout", "LocalityScore", "Time", "L1Miss%", "Speedup-vs-original")
	g := cfg.input(string(graph.KindSocial), cfg.kindN(graph.KindSocial)).G
	rg, _ := graph.ReorderBFS(g, 0)
	pr, _ := core.ByName("PageRank")
	p, mc := cfg.bestThreads("PageRank"), cfg.simConfig(sim.InOrder)
	base, err := cfg.report(pr, core.Input{G: g}, p, mc)
	if err != nil {
		return err
	}
	reord, err := cfg.report(pr, core.Input{G: rg}, p, mc)
	if err != nil {
		return err
	}
	t.Addf("original", graph.Locality(g, 256), base.Time, base.Cache.L1MissRate(), 1.0)
	t.Addf("BFS-relabeled", graph.Locality(rg, 256), reord.Time, reord.Cache.L1MissRate(),
		float64(base.Time)/float64(reord.Time))
	return cfg.emit("abl-reorder", t)
}
