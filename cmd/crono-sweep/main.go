// Command crono-sweep runs one benchmark across a sweep of one
// architectural dimension and emits CSV — the design-space-exploration
// workflow CRONO exists to support.
//
// Usage:
//
//	crono-sweep -bench BFS -dim threads -values 1,4,16,64,256
//	crono-sweep -bench PageRank -dim mcp -values 0,3,6,10,20 -threads 128
//	crono-sweep -bench SSSP_DIJK -dim l1kb -values 16,32,64,128
//	crono-sweep -bench APSP -dim hoplat -values 1,2,4,8 -n 256
//
// Dimensions: threads, cores, l1kb, l2kb, hoplat, flitbits, dirptrs, mcp,
// dramgbps, window.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/sim"
)

// dimension describes one sweepable architectural parameter.
type dimension struct {
	name  string
	apply func(cfg *sim.Config, v int) error
}

var dimensions = []dimension{
	{"threads", func(*sim.Config, int) error { return nil }}, // handled by the driver
	{"cores", func(c *sim.Config, v int) error { c.Cores = v; return nil }},
	{"l1kb", func(c *sim.Config, v int) error { c.L1DSizeB = v << 10; return nil }},
	{"l2kb", func(c *sim.Config, v int) error { c.L2SliceSizeB = v << 10; return nil }},
	{"hoplat", func(c *sim.Config, v int) error { c.HopCycles = uint64(v); return nil }},
	{"flitbits", func(c *sim.Config, v int) error { c.FlitBits = v; return nil }},
	{"dirptrs", func(c *sim.Config, v int) error { c.DirPointers = v; return nil }},
	{"mcp", func(c *sim.Config, v int) error { c.MCPServiceCycles = uint64(v); return nil }},
	{"dramgbps", func(c *sim.Config, v int) error { c.DRAMBandwidthBs = float64(v) * 1e9; return nil }},
	{"window", func(c *sim.Config, v int) error { c.WindowCycles = uint64(v); return nil }},
}

func findDim(name string) (dimension, bool) {
	for _, d := range dimensions {
		if d.name == name {
			return d, true
		}
	}
	return dimension{}, false
}

func main() {
	var (
		benchName = flag.String("bench", "BFS", "benchmark identifier")
		dimName   = flag.String("dim", "threads", "dimension to sweep")
		values    = flag.String("values", "1,4,16,64,256", "comma-separated sweep values")
		threads   = flag.Int("threads", 64, "thread count (when not sweeping threads)")
		n         = flag.Int("n", 8192, "vertex count (matrix benchmarks use n/16)")
		seed      = flag.Int64("seed", 42, "generator seed")
		ooo       = flag.Bool("ooo", false, "out-of-order cores")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := sweep(ctx, *benchName, *dimName, *values, *threads, *n, *seed, *ooo); err != nil {
		fmt.Fprintln(os.Stderr, "crono-sweep:", err)
		os.Exit(1)
	}
}

func sweep(ctx context.Context, benchName, dimName, values string, threads, n int, seed int64, ooo bool) error {
	b, err := core.ByName(benchName)
	if err != nil {
		return err
	}
	dim, ok := findDim(dimName)
	if !ok {
		names := make([]string, len(dimensions))
		for i, d := range dimensions {
			names[i] = d.name
		}
		return fmt.Errorf("unknown dimension %q (have %s)", dimName, strings.Join(names, ", "))
	}

	var in core.Input
	switch {
	case b.UsesMatrix:
		in = core.Input{D: graph.DenseFromCSR(graph.UniformSparse(max(n/16, 16), 8, 50, seed))}
	case b.UsesCities:
		in = core.Input{Cities: graph.Cities(11, seed)}
	default:
		in = core.Input{G: graph.UniformSparse(n, 8, 100, seed), Source: 0}
	}

	fmt.Printf("benchmark,%s,threads,cycles,compute,l1l2home,waiting,sharers,offchip,sync,l1missrate,flithops,energypj\n", dimName)
	for _, tok := range strings.Split(values, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("bad value %q: %v", tok, err)
		}
		cfg := sim.Default()
		if ooo {
			cfg.CoreType = sim.OutOfOrder
		}
		p := threads
		if dimName == "threads" {
			p = v
		} else if err := dim.apply(&cfg, v); err != nil {
			return err
		}
		m, err := sim.New(cfg)
		if err != nil {
			return fmt.Errorf("%s=%d: %v", dimName, v, err)
		}
		res, err := b.Run(ctx, m, core.Request{Input: in, Threads: p})
		if err != nil {
			return fmt.Errorf("%s=%d: %v", dimName, v, err)
		}
		rep := res.Report
		bd := rep.Breakdown
		fmt.Printf("%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%d,%.0f\n",
			benchName, v, rep.Threads, rep.Time,
			bd[exec.CompCompute], bd[exec.CompL1ToL2], bd[exec.CompWaiting],
			bd[exec.CompSharers], bd[exec.CompOffChip], bd[exec.CompSync],
			rep.Cache.L1MissRate(), rep.NetworkFlitHops, rep.Energy.Total())
	}
	return nil
}
