package main

import (
	"math/rand"

	"crono"
	"crono/internal/cache"
	"crono/internal/coherence"
	"crono/internal/dram"
	"crono/internal/exec"
	"crono/internal/noc"
)

// The micro-probes time the layers that sit between a request and a
// kernel but that no workload op isolates: the native platform's fixed
// cost per run and per barrier, and the per-event host cost of the four
// simulator substrates. They are properties of a layer, not of a
// workload, so every traced run takes them.

const (
	probeRuns     = 64      // empty-body runs per native probe
	probeBarriers = 1000    // barriers in the barrier probe's body
	probeEvents   = 1 << 18 // events per substrate probe
	probeRepeats  = 5       // repeats of each substrate probe
)

// probeNative times an empty parallel region on the one-shot and on the
// reusable native platform, and a barrier on the latter.
func probeNative(r *run) {
	oneShot := crono.NewNative()
	reusable := crono.NewReusableNative()
	defer reusable.Close()

	empty := func(pl crono.Platform, metric string) {
		bar := pl.NewBarrier(r.p)
		body := func(ctx exec.Ctx) { ctx.Barrier(bar) }
		pl.Run(r.p, body) // start the workers
		for i := 0; i < probeRuns; i++ {
			d := r.timed("native", metric, 1, func() { pl.Run(r.p, body) })
			r.observe("native."+metric, float64(d.Nanoseconds())/1e3)
		}
	}
	empty(oneShot, "run_overhead_us")
	empty(reusable, "reusable_run_overhead_us")

	bar := reusable.NewBarrier(r.p)
	barriers := func(ctx exec.Ctx) {
		for k := 0; k < probeBarriers; k++ {
			if ctx.Checkpoint() != nil {
				return
			}
			ctx.Barrier(bar)
		}
	}
	for i := 0; i < probeRepeats; i++ {
		d := r.timed("native", "barrier_ns", probeBarriers, func() { reusable.Run(r.p, barriers) })
		r.observe("native.barrier_ns", float64(d.Nanoseconds())/probeBarriers)
	}
}

// probeSubstrates drives each simulator substrate's public API in a
// tight loop over a seeded address stream, with the geometry the
// simulator gives it.
func probeSubstrates(r *run) {
	cfg := crono.DefaultSimConfig()
	cfg.Cores = simCores
	rng := rand.New(rand.NewSource(r.opts.seed))
	// Lines are drawn from four times the L1's capacity, so lookups both
	// hit and miss and inserts evict.
	lines := make([]uint64, probeEvents)
	for i := range lines {
		lines[i] = uint64(rng.Intn(4 * cfg.L1DSizeB / cfg.LineBytes))
	}
	cores := make([]int, probeEvents)
	for i := range cores {
		cores[i] = rng.Intn(simCores)
	}

	perEvent := func(layer, metric string, loop func()) {
		for i := 0; i < probeRepeats; i++ {
			d := r.timed(layer, metric, probeEvents, loop)
			r.observe(layer+"."+metric, float64(d.Nanoseconds())/probeEvents)
		}
	}

	l1, err := cache.New(cfg.L1DSizeB, cfg.L1DWays, cfg.LineBytes)
	if err != nil {
		r.fail("probe cache", err)
		return
	}
	perEvent("cache", "insert_ns", func() {
		for _, l := range lines {
			l1.Insert(l, cache.Shared)
		}
	})
	perEvent("cache", "lookup_ns", func() {
		for _, l := range lines {
			l1.Lookup(l)
		}
	})

	dir, err := coherence.New(cfg.DirPointers, simCores)
	if err != nil {
		r.fail("probe coherence", err)
		return
	}
	perEvent("coherence", "read_ns", func() {
		for i, l := range lines {
			dir.Read(l, cores[i])
		}
	})
	perEvent("coherence", "write_ns", func() {
		for i, l := range lines {
			dir.Write(l, cores[i])
		}
	})

	mesh, err := noc.New(simCores, cfg.HopCycles, cfg.FlitBits)
	if err != nil {
		r.fail("probe noc", err)
		return
	}
	bits := cfg.CtrlPacketBits + 8*cfg.LineBytes
	perEvent("noc", "traverse_ns", func() {
		clock := uint64(0)
		for i := 0; i < probeEvents; i++ {
			clock, _ = mesh.Traverse(cores[i], cores[probeEvents-1-i], bits, clock)
		}
	})

	mc, err := dram.New(cfg.ClockHz, cfg.DRAMBandwidthBs, cfg.DRAMLatencyNs)
	if err != nil {
		r.fail("probe dram", err)
		return
	}
	perEvent("dram", "access_ns", func() {
		clock := uint64(0)
		for i := 0; i < probeEvents; i++ {
			clock, _ = mc.Access(clock, cfg.LineBytes)
		}
	})
}
