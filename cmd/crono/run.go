package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/stats"
)

// run runs one benchmark on the native platform (real machine) or the
// futuristic-multicore simulator and prints its report, as in
// `crono -bench BFS -platform sim -input graph.el -threads 16`. SIGINT
// cancels the in-flight kernel at its next barrier; -timeout bounds the
// whole run.
func run(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("crono", stderr)
	var (
		benchName = fs.String("bench", "SSSP_DIJK", "benchmark identifier (see -list)")
		platform  = fs.String("platform", "sim", "execution platform: sim or native")
		threads   = fs.Int("threads", 16, "thread count")
		n         = fs.Int("n", 16384, "vertex count for generated inputs")
		kind      = fs.String("graph", "sparse", "generated graph family: sparse, road-tx, road-pa, road-ca, social, social-dense")
		inputFile = fs.String("input", "", "read the input graph from an edge-list file instead of generating")
		seed      = fs.Int64("seed", 42, "generator seed")
		cities    = fs.Int("cities", 12, "TSP city count")
		source    = fs.Int("source", 0, "source vertex for SSSP/BFS/DFS")
		strategy  = fs.String("strategy", "scan", "execution strategy for BFS/PageRank/SSSP_DIJK/CONN_COMP/COMM: scan (paper-faithful) or frontier (worklist rounds with push-pull BFS, Afforest components, pull PageRank; hybrid is accepted as a name for it)")
		order     = fs.String("order", "none", "cache-aware vertex reordering: none, degree (hub packing), rcm (bandwidth reduction) or auto (pick from degree skew); results come back in original vertex ids")
		cores     = fs.Int("cores", 256, "simulated core count (sim platform)")
		ooo       = fs.Bool("ooo", false, "simulate out-of-order cores")
		jsonOut   = fs.Bool("json", false, "emit the full report as JSON")
		list      = fs.Bool("list", false, "list benchmarks and exit")
		timeout   = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if *list {
		for _, b := range append(core.Suite(), core.Variants()...) {
			fmt.Fprintf(stdout, "%-10s %s\n", b.Name, b.Parallelization)
		}
		return nil
	}

	ctx, stop := interruptible(*timeout)
	defer stop()
	b, err := core.ByName(*benchName)
	if err != nil {
		return err
	}
	in, err := newInput(b, *source, *cities, *seed, func(bool) (*graph.CSR, error) {
		return loadOrGenerate(*inputFile, *kind, *n, *seed)
	})
	if err != nil {
		return err
	}
	pl, err := newPlatform(*platform, *cores, *ooo)
	if err != nil {
		return err
	}

	// Resolve the reordering. Non-orderable kernels (COMM) and non-CSR
	// inputs run over the original layout; the kernel un-permutes its
	// payload, so the printed report describes the permuted execution but
	// any result is in original vertex ids.
	if *order != "" && *order != "auto" && !graph.Order(*order).Valid() {
		return fmt.Errorf("unknown order %q (want none, auto, degree or rcm)", *order)
	}
	var ro *graph.Reordered
	if in.G != nil && *order != "" && *order != string(graph.OrderNone) && b.Orderable {
		o := graph.Order(*order)
		if *order == "auto" {
			o = graph.PickOrder(in.G)
		}
		if ro, err = graph.Reorder(in.G, o); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "crono: vertex order %s (locality %.2f -> %.2f)\n",
			o, graph.Locality(in.G, 64), graph.Locality(ro.G, 64))
	}

	res, err := b.Run(ctx, pl, core.Request{Input: in, Threads: *threads, Strategy: core.Strategy(*strategy), Reorder: ro})
	if err != nil {
		return explain(err, *timeout)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reportJSON(b.Name, res.Report))
	}
	return printReport(stdout, b.Name, res.Report)
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

func printReport(w io.Writer, name string, rep *exec.Report) error {
	unit := "cycles"
	if rep.Platform == "native" {
		unit = "ns"
	}
	fmt.Fprintf(w, "%s on %s: %d threads, completion time %d %s\n", name, rep.Platform, rep.Threads, rep.Time, unit)
	fmt.Fprintf(w, "instructions: %d total, variability %.3f\n", rep.TotalInstructions(), rep.Variability())

	t := stats.NewTable("completion time breakdown", "Component", "Fraction")
	f := rep.Breakdown.Fractions()
	for c := exec.CompCompute; c < exec.NumComponents; c++ {
		t.Addf(c.String(), f[c])
	}
	if err := t.Fprint(w); err != nil {
		return err
	}

	if rep.Platform == "sim" {
		fmt.Fprintf(w, "\nL1-D miss rate: %.2f%% (cold %.2f / capacity %.2f / sharing %.2f), hierarchy miss rate: %.3f%%\n",
			rep.Cache.L1MissRate(),
			rep.Cache.L1MissRateByClass()[exec.MissCold],
			rep.Cache.L1MissRateByClass()[exec.MissCapacity],
			rep.Cache.L1MissRateByClass()[exec.MissSharing],
			rep.Cache.HierarchyMissRate())
		e := rep.Energy.Fractions()
		fmt.Fprintf(w, "dynamic energy: %.1f uJ (network share %.0f%%)\n",
			rep.Energy.Total()/1e6, 100*(e[exec.EnergyRouter]+e[exec.EnergyLink]))
	}
	return nil
}
