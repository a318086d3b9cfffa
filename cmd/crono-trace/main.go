// Command crono-trace implements the two-phase trace-driven workflow:
// record a benchmark's annotation stream once at native speed, then
// replay it through the simulated multicore under different
// configurations.
//
// Usage:
//
//	crono-trace -record bfs.trace -bench BFS -threads 64 -n 16384
//	crono-trace -replay bfs.trace
//	crono-trace -replay bfs.trace -cores 64 -ooo
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/sim"
	"crono/internal/trace"
)

func main() {
	var (
		record  = flag.String("record", "", "record the benchmark's trace into this file")
		replay  = flag.String("replay", "", "replay a trace file through the simulator")
		bench   = flag.String("bench", "BFS", "benchmark to record")
		threads = flag.Int("threads", 64, "thread count to record")
		n       = flag.Int("n", 16384, "vertex count for the recorded input")
		kind    = flag.String("graph", "sparse", "graph family for the recorded input")
		seed    = flag.Int64("seed", 42, "generator seed")
		cores   = flag.Int("cores", 256, "simulated core count for replay")
		ooo     = flag.Bool("ooo", false, "replay on out-of-order cores")
	)
	flag.Parse()

	var err error
	switch {
	case *record != "":
		err = doRecord(*record, *bench, *kind, *threads, *n, *seed)
	case *replay != "":
		err = doReplay(*replay, *cores, *ooo)
	default:
		err = fmt.Errorf("need -record <file> or -replay <file>")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crono-trace:", err)
		os.Exit(1)
	}
}

func doRecord(path, benchName, kind string, threads, n int, seed int64) error {
	b, err := core.ByName(benchName)
	if err != nil {
		return err
	}
	in := core.Input{Source: 0}
	switch {
	case b.UsesMatrix:
		in.D = graph.DenseFromCSR(graph.Generate(graph.Kind(kind), n/16, seed))
	case b.UsesCities:
		in.Cities = graph.Cities(12, seed)
	default:
		in.G = graph.Generate(graph.Kind(kind), n, seed)
	}
	rec := trace.NewRecorder()
	res, err := b.Run(context.Background(), rec, core.Request{Input: in, Threads: threads})
	if err != nil {
		return err
	}
	rep := res.Report
	tr := rec.Trace()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.Write(f); err != nil {
		return err
	}
	fmt.Printf("recorded %s: %d threads, %d ops, %d locks, %d barriers, %d instructions\n",
		benchName, threads, tr.Ops(), tr.Locks, len(tr.Barriers), rep.TotalInstructions())
	return nil
}

func doReplay(path string, cores int, ooo bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return err
	}
	cfg := sim.Default()
	cfg.Cores = cores
	if ooo {
		cfg.CoreType = sim.OutOfOrder
	}
	m, err := sim.New(cfg)
	if err != nil {
		return err
	}
	rep, err := trace.Replay(m, tr)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d ops on %d simulated %s cores: %d cycles\n",
		tr.Ops(), cores, cfg.CoreType, rep.Time)
	fr := rep.Breakdown.Fractions()
	for c := exec.CompCompute; c < exec.NumComponents; c++ {
		fmt.Printf("  %-16s %.3f\n", c.String(), fr[c])
	}
	fmt.Printf("L1-D miss rate %.2f%%, energy %.1f uJ\n",
		rep.Cache.L1MissRate(), rep.Energy.Total()/1e6)
	return nil
}
