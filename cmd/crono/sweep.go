package main

import (
	"context"
	"fmt"
	"io"
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
	apply func(cfg *sim.Config, v int)
}

var dimensions = []dimension{
	{"threads", func(*sim.Config, int) {}}, // the sweep loop sets the thread count
	{"cores", func(c *sim.Config, v int) { c.Cores = v }},
	{"l1kb", func(c *sim.Config, v int) { c.L1DSizeB = v << 10 }},
	{"l2kb", func(c *sim.Config, v int) { c.L2SliceSizeB = v << 10 }},
	{"hoplat", func(c *sim.Config, v int) { c.HopCycles = uint64(v) }},
	{"flitbits", func(c *sim.Config, v int) { c.FlitBits = v }},
	{"dirptrs", func(c *sim.Config, v int) { c.DirPointers = v }},
	{"mcp", func(c *sim.Config, v int) { c.MCPServiceCycles = uint64(v) }},
	{"dramgbps", func(c *sim.Config, v int) { c.DRAMBandwidthBs = float64(v) * 1e9 }},
	{"window", func(c *sim.Config, v int) { c.WindowCycles = uint64(v) }},
}

// sweep runs one benchmark across a sweep of one architectural dimension
// and emits CSV — the design-space-exploration workflow CRONO exists to
// support — as in `crono sweep -bench PageRank -dim mcp -values 0,3,6`.
func sweep(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("crono sweep", stderr)
	var (
		benchName = fs.String("bench", "BFS", "benchmark identifier")
		dimName   = fs.String("dim", "threads", "dimension to sweep")
		values    = fs.String("values", "1,4,16,64,256", "comma-separated sweep values")
		threads   = fs.Int("threads", 64, "thread count (when not sweeping threads)")
		n         = fs.Int("n", 8192, "vertex count (matrix benchmarks use n/16)")
		seed      = fs.Int64("seed", 42, "generator seed")
		ooo       = fs.Bool("ooo", false, "out-of-order cores")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	b, err := core.ByName(*benchName)
	if err != nil {
		return err
	}
	var dim *dimension
	names := make([]string, len(dimensions))
	for i := range dimensions {
		names[i] = dimensions[i].name
		if names[i] == *dimName {
			dim = &dimensions[i]
		}
	}
	if dim == nil {
		return fmt.Errorf("unknown dimension %q (have %s)", *dimName, strings.Join(names, ", "))
	}
	in, _ := newInput(b, 0, 11, *seed, func(matrix bool) (*graph.CSR, error) { // cannot fail
		if matrix {
			return graph.UniformSparse(max(*n/16, 16), 8, 50, *seed), nil
		}
		return graph.UniformSparse(*n, 8, 100, *seed), nil
	})

	fmt.Fprintf(stdout, "benchmark,%s,threads,cycles,compute,l1l2home,waiting,sharers,offchip,sync,l1missrate,flithops,energypj\n", *dimName)
	for _, tok := range strings.Split(*values, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("bad value %q: %v", tok, err)
		}
		cfg := simConfig(sim.Default().Cores, *ooo)
		p := *threads
		if *dimName == "threads" {
			p = v
		} else {
			dim.apply(&cfg, v)
		}
		m, err := sim.New(cfg)
		if err != nil {
			return fmt.Errorf("%s=%d: %v", *dimName, v, err)
		}
		res, err := b.Run(context.Background(), m, core.Request{Input: in, Threads: p})
		if err != nil {
			return fmt.Errorf("%s=%d: %v", *dimName, v, err)
		}
		rep := res.Report
		bd := rep.Breakdown
		fmt.Fprintf(stdout, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%d,%.0f\n",
			*benchName, v, rep.Threads, rep.Time,
			bd[exec.CompCompute], bd[exec.CompL1ToL2], bd[exec.CompWaiting],
			bd[exec.CompSharers], bd[exec.CompOffChip], bd[exec.CompSync],
			rep.Cache.L1MissRate(), rep.NetworkFlitHops, rep.Energy.Total())
	}
	return nil
}
