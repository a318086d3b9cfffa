package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/sim"
	"crono/internal/trace"
)

// traceCmd is the two-phase trace-driven workflow: record a benchmark's
// annotation stream once at native speed (`crono trace -record bfs.trace
// -bench BFS`), then replay it through the simulated multicore under
// different configurations (`crono trace -replay bfs.trace -cores 64`).
func traceCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("crono trace", stderr)
	var (
		record  = fs.String("record", "", "record the benchmark's trace into this file")
		replay  = fs.String("replay", "", "replay a trace file through the simulator")
		bench   = fs.String("bench", "BFS", "benchmark to record")
		threads = fs.Int("threads", 64, "thread count to record")
		n       = fs.Int("n", 16384, "vertex count for the recorded input")
		kind    = fs.String("graph", "sparse", "graph family for the recorded input")
		seed    = fs.Int64("seed", 42, "generator seed")
		cores   = fs.Int("cores", 256, "simulated core count for replay")
		ooo     = fs.Bool("ooo", false, "replay on out-of-order cores")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	switch {
	case *record != "":
		return recordTrace(stdout, *record, *bench, *kind, *threads, *n, *seed)
	case *replay != "":
		return replayTrace(stdout, *replay, *cores, *ooo)
	}
	return errors.New("need -record <file> or -replay <file>")
}

func recordTrace(w io.Writer, path, benchName, kind string, threads, n int, seed int64) error {
	b, err := core.ByName(benchName)
	if err != nil {
		return err
	}
	in, _ := newInput(b, 0, 12, seed, func(matrix bool) (*graph.CSR, error) { // cannot fail
		if matrix {
			return graph.Generate(graph.Kind(kind), n/16, seed), nil
		}
		return graph.Generate(graph.Kind(kind), n, seed), nil
	})
	rec := trace.NewRecorder()
	res, err := b.Run(context.Background(), rec, core.Request{Input: in, Threads: threads})
	if err != nil {
		return err
	}
	tr := rec.Trace()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.Write(f); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "recorded %s: %d threads, %d ops, %d locks, %d barriers, %d instructions\n",
		benchName, threads, tr.Ops(), tr.Locks, len(tr.Barriers), res.Report.TotalInstructions())
	return err
}

func replayTrace(w io.Writer, path string, cores int, ooo bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return err
	}
	cfg := simConfig(cores, ooo)
	m, err := sim.New(cfg)
	if err != nil {
		return err
	}
	rep, err := trace.Replay(m, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed %d ops on %d simulated %s cores: %d cycles\n",
		tr.Ops(), cores, cfg.CoreType, rep.Time)
	fr := rep.Breakdown.Fractions()
	for c := exec.CompCompute; c < exec.NumComponents; c++ {
		fmt.Fprintf(w, "  %-16s %.3f\n", c.String(), fr[c])
	}
	_, err = fmt.Fprintf(w, "L1-D miss rate %.2f%%, energy %.1f uJ\n",
		rep.Cache.L1MissRate(), rep.Energy.Total()/1e6)
	return err
}
