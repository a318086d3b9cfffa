package harness

import (
	"fmt"

	"crono/internal/core"
	"crono/internal/graph"
	"crono/internal/sim"
	"crono/internal/stats"
)

// RunTable1 prints Table I: the suite inventory with its parallelization
// strategies.
func RunTable1(cfg *Config) error {
	t := stats.NewTable("Table I: Benchmarks and parallelizations", "Benchmark", "Parallelization", "Input")
	for _, b := range core.Suite() {
		input := "sparse / road / social graphs"
		if b.UsesMatrix {
			input = "adjacency matrix"
		}
		if b.UsesCities {
			input = "city distance matrix"
		}
		t.Add(b.Name, b.Parallelization, input)
	}
	return cfg.emit("tab1", t)
}

// RunTable2 prints Table II: the simulated architectural parameters.
func RunTable2(cfg *Config) error {
	c := cfg.simConfig(0)
	t := stats.NewTable("Table II: Graphite architectural parameters", "Parameter", "Value")
	t.Add("Number of Cores", fmt.Sprintf("%d @ %.0f GHz", c.Cores, c.ClockHz/1e9))
	t.Add("Compute Pipeline per core", "Single-Issue (in-order / out-of-order)")
	// The simulator models neither the OOO core's queues nor an L1-I, so
	// these rows print the paper's values.
	t.Add("Reorder Buffer Size", "168")
	t.Add("Load/Store Queue Size", "64/48")
	t.Add("L1-I Cache per core", "32 KB, 4-way, 1 cycle")
	t.Add("L1-D Cache per core", fmt.Sprintf("%d KB, %d-way, %d cycle", c.L1DSizeB>>10, c.L1DWays, c.L1LatencyCycles))
	t.Add("L2 Cache per core", fmt.Sprintf("%d KB, %d-way, %d cycle, Inclusive, NUCA", c.L2SliceSizeB>>10, c.L2Ways, c.L2LatencyCycles))
	t.Add("Cache Line Size", fmt.Sprintf("%d bytes", c.LineBytes))
	t.Add("Directory Protocol", fmt.Sprintf("Invalidation-based MESI, ACKWise-%d", c.DirPointers))
	t.Add("Num. of Memory Controllers", fmt.Sprint(c.MemControllers))
	t.Add("DRAM Bandwidth", fmt.Sprintf("%.0f GBps per controller", c.DRAMBandwidthBs/1e9))
	t.Add("DRAM Latency", fmt.Sprintf("%.0f ns", c.DRAMLatencyNs))
	t.Add("Network", fmt.Sprintf("Electrical 2-D Mesh with %s Routing", c.Routing))
	t.Add("Hop Latency", fmt.Sprintf("%d cycles (1-router, 1-link)", c.HopCycles))
	t.Add("Contention Model", "Link contention only (infinite input buffers)")
	t.Add("Flit Width", fmt.Sprintf("%d bits", c.FlitBits))
	return cfg.emit("tab2", t)
}

// RunTable3 generates the input-graph families at the configured scale
// and prints their statistics (the reproduction of Table III; the SNAP
// graphs are replaced by matched synthetic generators, see DESIGN.md).
func RunTable3(cfg *Config) error {
	t := stats.NewTable(
		fmt.Sprintf("Table III: input graphs (scale %.2f; paper-scale sizes in DESIGN.md)", cfg.Scale),
		"Dataset", "Vertices", "Edges", "AvgDeg", "MaxDeg", "Components")
	for _, kind := range graph.Kinds {
		s := graph.Summarize(cfg.input(string(kind), cfg.kindN(kind)).G)
		t.Add(string(kind), fmt.Sprint(s.Vertices), fmt.Sprint(s.Edges),
			fmt.Sprintf("%.2f", s.AvgDegree), fmt.Sprint(s.MaxDegree), fmt.Sprint(s.Components))
	}
	t.Add("cities (TSP)", fmt.Sprint(cfg.TSPCities()), "-", "-", "-", "-")
	return cfg.emit("tab3", t)
}

// tab4Benchmarks are the benchmarks Table IV varies across graph types
// (APSP, BETW_CENT and TSP take fixed inputs and show "-" in the paper).
var tab4Benchmarks = []string{"SSSP_DIJK", "BFS", "DFS", "CONN_COMP", "TRI_CNT", "PageRank", "COMM"}

// RunTable4 reproduces Table IV: best speedups for each benchmark across
// the sparse synthetic, road-network and social-network inputs.
func RunTable4(cfg *Config) error {
	t := stats.NewTable(
		"Table IV: best speedups across graph types (relative to 1-thread run)",
		"Algorithm", "Sparse", "Road-TX", "Road-PA", "Road-CA", "Social")
	for _, name := range tab4Benchmarks {
		b, err := core.ByName(name)
		if err != nil {
			return err
		}
		row := []string{name}
		for _, kind := range graph.Kinds {
			sp, err := cfg.bestSpeedup(b, cfg.input(string(kind), cfg.kindN(kind)), cfg.simConfig(sim.InOrder))
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.2f", sp))
		}
		t.Add(row...)
	}
	if err := cfg.emit("tab4", t); err != nil {
		return err
	}
	_, err := fmt.Fprintln(cfg.Out, "\nAPSP, BETW_CENT and TSP use fixed matrix/city inputs (see fig1); the paper reports '-' for them here.")
	return err
}
