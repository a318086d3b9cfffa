package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"crono"
	"crono/internal/exec"
)

// simJob is one kernel run on the simulated multicore.
type simJob struct {
	name     string
	kernel   string
	strategy crono.Strategy
	threads  int
}

// simCores is the simulated tile count: 64 keeps a run in the tens of
// milliseconds, and every multi-thread job uses all of them.
const simCores = 64

// oneThread is the job whose simulated cycle and instruction counts
// must repeat bit-for-bit: with one thread there is no lax
// synchronization between simulated cores, so nothing depends on how
// the host schedules them.
const oneThread = "BFS.scan.1t"

// pageRankScan is also the job the traced run repeats with every host
// processor enabled: its per-edge locks make it the most sensitive to
// host parallelism.
var pageRankScan = simJob{"PageRank.scan", "PageRank", crono.StrategyScan, simCores}

var simJobs = []simJob{
	{"BFS.scan", "BFS", crono.StrategyScan, simCores},
	{"BFS.frontier", "BFS", crono.StrategyFrontier, simCores},
	{"SSSP_DIJK.scan", "SSSP_DIJK", crono.StrategyScan, simCores},
	{"CONN_COMP.scan", "CONN_COMP", crono.StrategyScan, simCores},
	pageRankScan,
	{"TRI_CNT.scan", "TRI_CNT", crono.StrategyScan, simCores},
	{oneThread, "BFS", crono.StrategyScan, 1},
}

// simWorkload is sim-sparse: every op builds a fresh simulator and runs
// one job on it. All jobs start from the same source, so a job's
// simulated statistics are comparable from pass to pass.
//
// The workload runs on one host processor. With more, the simulator's
// 64 goroutines contend for its shared state: on the 2-core reference
// host a run takes 3-5 times longer and flips between fast and slow
// regimes for seconds at a time, which no run length averages out. What
// is measured is therefore simulator throughput per host core; the
// traced run reports the cost of a second host processor as
// sim.host_parallel_slowdown.
type simWorkload struct {
	r         *run
	procs     int // GOMAXPROCS before the workload lowered it
	g         *crono.Graph
	truth     *truth
	prRef     []float64
	triangles int64
	// cycles1t is the one-thread job's cycle count on its first run.
	cycles1t uint64
}

func (w *simWorkload) passesPerRound() int { return 0 }
func (w *simWorkload) close()              { runtime.GOMAXPROCS(w.procs) }

// extras repeats pageRankScan with every host processor enabled.
func (w *simWorkload) extras() {
	j := pageRankScan
	one := median(w.r.layer["sim."+j.name+".host_ms"])
	runtime.GOMAXPROCS(w.procs)
	defer runtime.GOMAXPROCS(1)
	var all []float64
	for i := 0; i < w.r.sz.pairedRuns; i++ {
		_, d, err := w.simulate(j)
		if err != nil {
			w.r.fail("parallel-host "+j.name, err)
			return
		}
		all = append(all, float64(d.Nanoseconds())/1e6)
	}
	if one > 0 {
		w.r.observe("sim.host_parallel_slowdown", median(all)/one)
	}
}

func (w *simWorkload) setup() error {
	r := w.r
	w.procs = runtime.GOMAXPROCS(1)
	r.calibrated = true
	w.g = crono.GenerateGraph(crono.GraphSparse, r.sz.simN, r.opts.seed)
	w.truth = newTruth(w.g, rand.New(rand.NewSource(r.opts.seed)))
	w.prRef = pageRankRef(w.g, 1)
	w.triangles = triangleCount(w.g)
	w.passWith(true)
	return nil
}

func (w *simWorkload) pass(int) { w.passWith(false) }

func (w *simWorkload) passWith(full bool) {
	r := w.r
	var (
		total            exec.Breakdown
		accesses, misses uint64
		flitHops, instr  uint64
		hostNs           uint64
	)
	src := w.truth.source(0)
	for _, j := range simJobs {
		start := time.Now()
		res, d, err := w.simulate(j)
		if err == nil {
			err = w.check(j, src, res, full)
		}
		r.done(j.name, true, d, err)
		if err != nil || !r.measuring() {
			continue
		}

		rep := res.Report
		op := r.newOp()
		root := r.span(op, 0, "bench", j.name, start, time.Since(start), 0)
		r.span(op, root, "sim", j.name, start, d, int64(rep.TotalInstructions()))
		r.observe("sim."+j.name+".cycles", float64(rep.Time))
		if j.name == oneThread {
			r.observe("sim."+j.name+".instr", float64(rep.TotalInstructions()))
			continue
		}
		r.observe("sim."+j.name+".host_ms", float64(d.Nanoseconds())/1e6)
		r.observe("sim."+j.name+".host_ns_per_instr", float64(rep.HostNs)/float64(rep.TotalInstructions()))
		total.Add(rep.Breakdown)
		accesses += rep.Cache.L1DAccesses
		for _, n := range rep.Cache.L1DMisses {
			misses += n
		}
		flitHops += rep.NetworkFlitHops
		instr += rep.TotalInstructions()
		hostNs += rep.HostNs
	}
	if hostNs == 0 {
		return
	}
	// The simulated statistics of a pass are summed over its
	// multi-thread jobs. They may drift by the lax-synchronization
	// window from run to run; a host-speed change must not move them.
	r.observe("sim.minstr_per_host_s", float64(instr)/float64(hostNs)*1e3)
	r.observe("sim.l1d_miss_pct", 100*float64(misses)/float64(accesses))
	r.observe("sim.flit_hops", float64(flitHops))
	for c, share := range total.Fractions() {
		r.observe("sim.breakdown."+exec.BreakdownComponent(c).String()+"_share", share)
	}
}

// simulate builds a fresh simulator and runs job j on it.
func (w *simWorkload) simulate(j simJob) (*crono.RunResult, time.Duration, error) {
	cfg := crono.DefaultSimConfig()
	cfg.Cores = simCores
	req := crono.RunRequest{Threads: j.threads, Strategy: j.strategy, Iters: 1}
	req.G, req.Source = w.g, w.truth.source(0)
	start := time.Now()
	m, err := crono.NewSimulator(cfg)
	if err != nil {
		return nil, 0, err
	}
	res, err := crono.Run(context.Background(), m, j.kernel, req)
	return res, time.Since(start), err
}

func (w *simWorkload) check(j simJob, src int, res *crono.RunResult, full bool) error {
	if err := checkResult(w.g, w.truth, w.prRef, j.kernel, src, res, full); err != nil {
		return err
	}
	if j.kernel == "TRI_CNT" && res.Triangles.Total != w.triangles {
		return fmt.Errorf("%d triangles, want %d", res.Triangles.Total, w.triangles)
	}
	if j.name == oneThread {
		if w.cycles1t == 0 {
			w.cycles1t = res.Report.Time
		}
		if res.Report.Time != w.cycles1t {
			return fmt.Errorf("one-thread run took %d simulated cycles, %d before", res.Report.Time, w.cycles1t)
		}
	}
	return nil
}
