// Command crono runs a single CRONO benchmark on either the native
// platform (real machine) or the futuristic-multicore simulator and
// prints its report.
//
// Usage:
//
//	crono -bench SSSP_DIJK -platform sim -threads 64 -n 16384
//	crono -bench PageRank -platform native -threads 8 -graph social
//	crono -bench BFS -platform sim -input graph.el -threads 16
//	crono -list
//
// SIGINT cancels the in-flight kernel at its next barrier; -timeout
// bounds the whole run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/native"
	"crono/internal/sim"
	"crono/internal/stats"
)

func main() {
	var (
		benchName = flag.String("bench", "SSSP_DIJK", "benchmark identifier (see -list)")
		platform  = flag.String("platform", "sim", "execution platform: sim or native")
		threads   = flag.Int("threads", 16, "thread count")
		n         = flag.Int("n", 16384, "vertex count for generated inputs")
		kind      = flag.String("graph", "sparse", "generated graph family: sparse, road-tx, road-pa, road-ca, social, social-dense")
		inputFile = flag.String("input", "", "read the input graph from an edge-list file instead of generating")
		seed      = flag.Int64("seed", 42, "generator seed")
		cities    = flag.Int("cities", 12, "TSP city count")
		source    = flag.Int("source", 0, "source vertex for SSSP/BFS/DFS")
		strategy  = flag.String("strategy", "scan", "execution strategy for BFS/PageRank/SSSP_DIJK/CONN_COMP/COMM: scan (paper-faithful) or frontier (worklist rounds with push-pull BFS, Afforest components, pull PageRank; hybrid is accepted as a name for it)")
		order     = flag.String("order", "none", "cache-aware vertex reordering: none, degree (hub packing), rcm (bandwidth reduction) or auto (pick from degree skew); results come back in original vertex ids")
		cores     = flag.Int("cores", 256, "simulated core count (sim platform)")
		ooo       = flag.Bool("ooo", false, "simulate out-of-order cores")
		jsonOut   = flag.Bool("json", false, "emit the full report as JSON")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		timeout   = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	)
	flag.Parse()

	if *list {
		for _, b := range core.Suite() {
			fmt.Printf("%-10s %s\n", b.Name, b.Parallelization)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := run(ctx, *benchName, *platform, *strategy, *order, *threads, *n, *kind, *inputFile, *seed, *cities, *source, *cores, *ooo, *jsonOut); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "crono: interrupted")
		} else if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "crono: run exceeded the %s timeout\n", *timeout)
		} else {
			fmt.Fprintln(os.Stderr, "crono:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, benchName, platform, strategy, order string, threads, n int, kind, inputFile string, seed int64, cities, source, cores int, ooo, jsonOut bool) error {
	b, err := core.ByName(benchName)
	if err != nil {
		return err
	}

	in := core.Input{Source: source}
	switch {
	case b.UsesCities:
		in.Cities = graph.Cities(cities, seed)
	case b.UsesMatrix:
		g, err := loadOrGenerate(inputFile, kind, n, seed)
		if err != nil {
			return err
		}
		in.D = graph.DenseFromCSR(g)
	default:
		g, err := loadOrGenerate(inputFile, kind, n, seed)
		if err != nil {
			return err
		}
		in.G = g
	}

	var pl exec.Platform
	switch platform {
	case "native":
		pl = native.New()
	case "sim":
		cfg := sim.Default()
		cfg.Cores = cores
		if ooo {
			cfg.CoreType = sim.OutOfOrder
		}
		m, err := sim.New(cfg)
		if err != nil {
			return err
		}
		pl = m
	default:
		return fmt.Errorf("unknown platform %q (want sim or native)", platform)
	}

	// Resolve the reordering. Non-orderable kernels (COMM) and non-CSR
	// inputs run over the original layout; the kernel un-permutes its
	// payload, so the printed report describes the permuted execution but
	// any result is in original vertex ids.
	if order != "" && order != "auto" && !graph.Order(order).Valid() {
		return fmt.Errorf("unknown order %q (want none, auto, degree or rcm)", order)
	}
	var ro *graph.Reordered
	if in.G != nil && order != "" && order != string(graph.OrderNone) && b.Orderable {
		o := graph.Order(order)
		if order == "auto" {
			o = graph.PickOrder(in.G)
		}
		if ro, err = graph.Reorder(in.G, o); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "crono: vertex order %s (locality %.2f -> %.2f)\n",
			o, graph.Locality(in.G, 64), graph.Locality(ro.G, 64))
	}

	res, err := b.Run(ctx, pl, core.Request{Input: in, Threads: threads, Strategy: core.Strategy(strategy), Reorder: ro})
	if err != nil {
		return err
	}
	rep := res.Report
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reportJSON(b.Name, rep))
	}
	return printReport(b.Name, rep)
}

func loadOrGenerate(file, kind string, n int, seed int64) (*graph.CSR, error) {
	if file == "" {
		if !graph.KnownKind(graph.Kind(kind)) {
			return nil, fmt.Errorf("unknown graph family %q (see -help)", kind)
		}
		return graph.Generate(graph.Kind(kind), n, seed), nil
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(file, ".mtx"):
		return graph.ReadMatrixMarket(f)
	case strings.HasSuffix(file, ".graph") || strings.HasSuffix(file, ".metis"):
		return graph.ReadMETIS(f)
	default:
		return graph.ReadEdgeList(f)
	}
}

// reportJSON shapes a run report for machine consumption.
func reportJSON(name string, rep *exec.Report) map[string]any {
	brk := map[string]uint64{}
	for c := exec.CompCompute; c < exec.NumComponents; c++ {
		brk[c.String()] = rep.Breakdown[c]
	}
	energy := map[string]float64{}
	for c := exec.EnergyL1I; c < exec.NumEnergyComponents; c++ {
		energy[c.String()] = rep.Energy[c]
	}
	return map[string]any{
		"benchmark":    name,
		"platform":     rep.Platform,
		"threads":      rep.Threads,
		"time":         rep.Time,
		"breakdown":    brk,
		"instructions": rep.Instructions,
		"threadTime":   rep.ThreadTime,
		"variability":  rep.Variability(),
		"cache": map[string]any{
			"l1dAccesses":       rep.Cache.L1DAccesses,
			"l1dMissRate":       rep.Cache.L1MissRate(),
			"hierarchyMissRate": rep.Cache.HierarchyMissRate(),
			"l2Misses":          rep.Cache.L2Misses,
		},
		"energyPJ":        energy,
		"networkFlitHops": rep.NetworkFlitHops,
	}
}

func printReport(name string, rep *exec.Report) error {
	unit := "cycles"
	if rep.Platform == "native" {
		unit = "ns"
	}
	fmt.Printf("%s on %s: %d threads, completion time %d %s\n", name, rep.Platform, rep.Threads, rep.Time, unit)
	fmt.Printf("instructions: %d total, variability %.3f\n", rep.TotalInstructions(), rep.Variability())

	t := stats.NewTable("completion time breakdown", "Component", "Fraction")
	f := rep.Breakdown.Fractions()
	for c := exec.CompCompute; c < exec.NumComponents; c++ {
		t.Addf(c.String(), f[c])
	}
	if err := t.Fprint(os.Stdout); err != nil {
		return err
	}

	if rep.Platform == "sim" {
		fmt.Printf("\nL1-D miss rate: %.2f%% (cold %.2f / capacity %.2f / sharing %.2f), hierarchy miss rate: %.3f%%\n",
			rep.Cache.L1MissRate(),
			rep.Cache.L1MissRateByClass()[exec.MissCold],
			rep.Cache.L1MissRateByClass()[exec.MissCapacity],
			rep.Cache.L1MissRateByClass()[exec.MissSharing],
			rep.Cache.HierarchyMissRate())
		e := rep.Energy.Fractions()
		fmt.Printf("dynamic energy: %.1f uJ (network share %.0f%%)\n",
			rep.Energy.Total()/1e6, 100*(e[exec.EnergyRouter]+e[exec.EnergyLink]))
	}
	return nil
}
