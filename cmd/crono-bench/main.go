// Command crono-bench measures the graph-division kernels in counts that
// repeat bit for bit and writes them to a JSON artifact. Every column is
// the ratio of two exact counts taken at one thread, where no schedule
// decides a CAS winner:
//
//   - frontier: scan over frontier native instructions;
//   - batched (BFS): BFSBatchWidth single-source frontier runs over one
//     bit-parallel BFSBatch pass of the same sources, native instructions;
//   - degreesim, rcmsim (orderable kernels but SSSP_DIJK on a unit-weight
//     graph): the frontier strategy unordered over reordered, in cycles
//     of one simulated thread on the default machine, with n capped at
//     simOrderN.
//
// The counts are the same on every run and host, so an -assert floor on
// them cannot be tripped by runner load. The wall-clock arms of the same
// kernels are measured by the repository benchmark in bench/.
//
// A BFS or SSSP_DIJK row runs one trial per source: trialSources seeded
// vertices of the graph's largest component, never an isolated vertex.
// The artifact records each trial's source, reached-vertex count and
// counts, and a column's ratio is its worst trial. The batched column
// draws its sources the same way.
//
// The warm column is the allocation discipline of the frontier strategy:
// allocs/op of warm reruns on one native platform with a reused
// core.Scratch, at warmThreads threads.
//
// Usage:
//
//	crono-bench                                  # default spec matrix
//	crono-bench -spec BFS:road-ca:262144 -assert BFS:road-ca:14
//	crono-bench -assert BFS:social:batched:4.6,BFS:social:rcmsim:0.5
//	crono-bench -assertallocs BFS:social:0
//
// Each -spec entry is kernel:graph:n. Each -assert entry is
// kernel:graph:min or kernel:graph:column:min, where column is frontier
// (the three-field default), batched, degreesim or rcmsim and must name a
// column the spec ran. Each -assertallocs entry is
// kernel:graph:maxAllocsPerOp (0 = the zero-allocation gate).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/native"
	"crono/internal/sim"
)

// defaultSpec sizes the road-network BFS entry (1M vertices) to expose
// the asymptotic scan-vs-frontier gap. The social-graph BFS entry is
// where the push-to-pull switch and the bit-parallel batched kernel
// show: small-world frontiers overlap, which both exploit. PageRank on
// social is the ordering showcase: pull-mode PageRank gathers over the
// in-edges of every vertex.
const defaultSpec = "BFS:road-ca:1048576,BFS:social:65536,SSSP_DIJK:road-ca:131072,CONN_COMP:road-ca:262144,COMM:social:32768,PageRank:social:131072"

const (
	// trialSources is how many sources a BFS or SSSP_DIJK row draws.
	trialSources = 4
	// simOrderN caps the vertex count of the simulated ordering columns:
	// the detailed memory-system model costs ~1000x native execution.
	simOrderN = 16384
	// warmThreads is the thread count of the warm allocation measurement.
	warmThreads = 8
)

type report struct {
	Suite   string `json:"suite"`
	Seed    int64  `json:"seed"`
	Results []row  `json:"results"`
}

// row is one spec's measurements.
type row struct {
	Kernel string `json:"kernel"`
	Graph  string `json:"graph"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	// Ratios maps each column the row ran to its worst trial's ratio;
	// > 1 means the contender (frontier, batched, ordered) counts less.
	Ratios map[string]float64 `json:"ratios"`
	// Trials are the native runs on the spec's graph (scanInstr,
	// frontierInstr); Batch is the batched column's one trial
	// (sequentialInstr, batchInstr).
	Trials []trial `json:"trials"`
	Batch  *trial  `json:"batch,omitempty"`
	// SimTrials are the simulated runs (noneCycles, degreeCycles,
	// rcmCycles) on the same family generated at SimN vertices.
	SimN      int     `json:"simN,omitempty"`
	SimTrials []trial `json:"simTrials,omitempty"`
	// WarmAllocsPerOp is present for the kernels with a scratch-aware
	// frontier path.
	WarmAllocsPerOp *float64 `json:"warmAllocsPerOp,omitempty"`
}

// trial is one source's runs; a kernel without a source has one trial
// with neither Source nor Reached.
type trial struct {
	Source  *int              `json:"source,omitempty"`
	Reached int               `json:"reached,omitempty"`
	Counts  map[string]uint64 `json:"counts"`
}

// arm is one configuration a trial runs: the name of its count and the
// request, less the source.
type arm struct {
	count string
	req   core.Request
}

// count runs req on a fresh platform and returns the result with its
// exact count: cycles on the default simulated machine, or native
// instructions.
func count(ctx context.Context, bench core.Benchmark, req core.Request, simulated bool) (*core.Result, uint64, error) {
	var pl exec.Platform = native.New()
	if simulated {
		m, err := sim.New(sim.Default())
		if err != nil {
			return nil, 0, err
		}
		pl = m
	}
	res, err := bench.Run(ctx, pl, req)
	if err != nil {
		return nil, 0, err
	}
	if simulated {
		return res, res.Report.Time, nil
	}
	return res, res.Report.TotalInstructions(), nil
}

type spec struct {
	kernel string
	graph  string
	n      int
}

type assertion struct {
	kernel string
	graph  string
	column string // a key of row.Ratios
	min    float64
}

// allocAssertion is one -assertallocs entry: the warm frontier run of
// the named spec must allocate at most max allocations per op.
type allocAssertion struct {
	kernel string
	graph  string
	max    float64
}

func main() {
	var (
		specFlag   = flag.String("spec", defaultSpec, "comma-separated kernel:graph:n entries to measure")
		assertFlag = flag.String("assert", "", "comma-separated kernel:graph:min or kernel:graph:column:min entries that must hold")
		allocsFlag = flag.String("assertallocs", "", "comma-separated kernel:graph:maxAllocsPerOp entries the warm fast path must not exceed")
		seed       = flag.Int64("seed", 42, "graph generator and source picker seed")
		out        = flag.String("out", "BENCH_kernels.json", "output JSON path (- for stdout)")
	)
	flag.Parse()

	specs, err := parseSpecs(*specFlag)
	if err != nil {
		fatal(err)
	}
	asserts, err := parseAsserts(*assertFlag)
	if err != nil {
		fatal(err)
	}
	allocAsserts, err := parseAllocAsserts(*allocsFlag)
	if err != nil {
		fatal(err)
	}

	rep := report{Suite: "crono-bench", Seed: *seed}
	for _, sp := range specs {
		r, err := measure(context.Background(), sp, *seed)
		if err != nil {
			fatal(fmt.Errorf("%s:%s: %w", sp.kernel, sp.graph, err))
		}
		rep.Results = append(rep.Results, r)
	}
	if err := writeReport(*out, &rep); err != nil {
		fatal(err)
	}

	failed := false
	for _, a := range asserts {
		got, ok := findSpeedup(rep.Results, a.kernel, a.graph, a.column)
		if !ok {
			fatal(fmt.Errorf("assert %s:%s:%s names a spec/column that did not run", a.kernel, a.graph, a.column))
		}
		failed = checkAssert(a, got) || failed
	}
	for _, a := range allocAsserts {
		got, ok := findWarmAllocs(rep.Results, a.kernel, a.graph)
		if !ok {
			fatal(fmt.Errorf("assertallocs %s:%s names a spec without a warm measurement", a.kernel, a.graph))
		}
		if got > a.max {
			fmt.Fprintf(os.Stderr, "ASSERT FAILED: %s on %s warm path %.1f allocs/op > allowed %.1f\n",
				a.kernel, a.graph, got, a.max)
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "assert ok: %s on %s warm path %.1f allocs/op <= %.1f\n",
				a.kernel, a.graph, got, a.max)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// measure runs every column the spec's kernel has.
func measure(ctx context.Context, sp spec, seed int64) (row, error) {
	bench, err := core.ByName(sp.kernel)
	if err != nil {
		return row{}, err
	}
	g := graph.Generate(graph.Kind(sp.graph), sp.n, seed)
	fmt.Fprintf(os.Stderr, "bench %s on %s n=%d m=%d\n", sp.kernel, sp.graph, g.N, g.M())
	r := row{Kernel: sp.kernel, Graph: sp.graph, N: g.N, M: g.M(), Ratios: map[string]float64{}}
	sourced := sp.kernel == "BFS" || sp.kernel == "SSSP_DIJK"

	one := core.Request{Input: core.Input{G: g}, Threads: 1}
	scan, frontier := one, one
	scan.Strategy, frontier.Strategy = core.StrategyScan, core.StrategyFrontier
	if r.Trials, err = runTrials(ctx, bench, g, sourced, seed, false,
		[]arm{{"scanInstr", scan}, {"frontierInstr", frontier}}); err != nil {
		return row{}, err
	}
	r.Ratios["frontier"] = worst(r.Trials, "scanInstr", "frontierInstr")

	if sp.kernel == "BFS" {
		if r.Batch, err = batchTrial(ctx, bench, g, seed); err != nil {
			return row{}, err
		}
		if r.Batch != nil {
			r.Ratios["batched"] = worst([]trial{*r.Batch}, "sequentialInstr", "batchInstr")
		}
	}

	// On a unit-weight graph SSSP_DIJK's frontier strategy runs the BFS
	// rounds, so its ordering columns would repeat BFS's bit for bit.
	if bench.Orderable && !(sp.kernel == "SSSP_DIJK" && g.Weights == nil) {
		gs := g
		if sp.n > simOrderN {
			gs = graph.Generate(graph.Kind(sp.graph), simOrderN, seed)
		}
		arms := []arm{{"noneCycles", core.Request{Input: core.Input{G: gs}, Threads: 1, Strategy: core.StrategyFrontier}}}
		for _, o := range graph.Orders() {
			ro, err := graph.Reorder(gs, o)
			if err != nil {
				return row{}, err
			}
			a := arms[0]
			a.count, a.req.Reorder = string(o)+"Cycles", ro
			arms = append(arms, a)
		}
		if r.SimTrials, err = runTrials(ctx, bench, gs, sourced, seed, true, arms); err != nil {
			return row{}, err
		}
		r.SimN = gs.N
		for _, o := range graph.Orders() {
			r.Ratios[string(o)+"sim"] = worst(r.SimTrials, "noneCycles", string(o)+"Cycles")
		}
	}

	if warmKernel(sp.kernel) {
		src := 0
		if sourced {
			src = *r.Trials[0].Source
		}
		allocs, err := measureWarm(ctx, bench, g, src)
		if err != nil {
			return row{}, err
		}
		r.WarmAllocsPerOp = &allocs
	}
	fmt.Fprintf(os.Stderr, "  ratios %v\n", r.Ratios)
	return r, nil
}

// runTrials runs every arm once per trial (see count): once per source
// a sourced kernel draws from g, once otherwise.
func runTrials(ctx context.Context, bench core.Benchmark, g *graph.CSR, sourced bool, seed int64, simulated bool, arms []arm) ([]trial, error) {
	sources := []int{0} // a sourceless kernel ignores it
	if sourced {
		var err error
		if sources, err = pickSources(g, trialSources, seed); err != nil {
			return nil, err
		}
	}
	trials := make([]trial, len(sources))
	for i, src := range sources {
		t := &trials[i]
		t.Counts = map[string]uint64{}
		for _, a := range arms {
			a.req.Source = src
			res, c, err := count(ctx, bench, a.req, simulated)
			if err != nil {
				return nil, fmt.Errorf("%s from %d: %w", a.count, src, err)
			}
			t.Counts[a.count] = c
			if sourced {
				t.Source, t.Reached = &sources[i], reached(res)
			}
		}
		// A trial that reaches a fragment measures set-up, not the kernel.
		if sourced && 2*t.Reached < g.N {
			return nil, fmt.Errorf("source %d reaches %d of %d vertices", src, t.Reached, g.N)
		}
	}
	return trials, nil
}

// reached counts the vertices a BFS or SSSP result reached.
func reached(res *core.Result) int {
	if res.BFS != nil {
		return res.BFS.Visited
	}
	n := 0
	for _, d := range res.SSSP.Dist {
		if d != graph.Inf {
			n++
		}
	}
	return n
}

// pickSources draws k distinct vertices of g's largest connected
// component, seeded, in draw order. Every vertex of a component of two
// or more has an edge, so no isolated vertex is ever drawn; a component
// smaller than k yields all of it.
func pickSources(g *graph.CSR, k int, seed int64) ([]int, error) {
	labels := core.ComponentsRef(g)
	size := make([]int, g.N)
	largest := int32(0)
	for _, l := range labels {
		if size[l]++; size[l] > size[largest] {
			largest = l
		}
	}
	if size[largest] < 2 {
		return nil, fmt.Errorf("graph has no edge to draw a source from")
	}
	var members []int
	for v, l := range labels {
		if l == largest {
			members = append(members, v)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	return members[:min(k, len(members))], nil
}

// batchTrial counts BFSBatchWidth sources, picked as for trials, run one
// at a time through the frontier kernel (what a burst of independent
// requests costs without batching) and as one bit-parallel pass. It
// returns nil when the largest component is too small for a full batch.
func batchTrial(ctx context.Context, bfs core.Benchmark, g *graph.CSR, seed int64) (*trial, error) {
	sources, err := pickSources(g, core.BFSBatchWidth, seed)
	if err != nil || len(sources) < core.BFSBatchWidth {
		return nil, err
	}
	var seq uint64
	for _, src := range sources {
		res, err := bfs.Run(ctx, native.New(), core.Request{Input: core.Input{G: g, Source: src}, Threads: 1, Strategy: core.StrategyFrontier})
		if err != nil {
			return nil, err
		}
		seq += res.Report.TotalInstructions()
	}
	res, err := core.BFSBatch(ctx, native.New(), g, sources, 1)
	if err != nil {
		return nil, err
	}
	return &trial{Counts: map[string]uint64{
		"sequentialInstr": seq,
		"batchInstr":      res.Report.TotalInstructions(),
	}}, nil
}

// worst returns the smallest base/contender ratio over the trials.
func worst(trials []trial, base, contender string) float64 {
	w := 0.0
	for i, t := range trials {
		if s := speedup(t.Counts[base], t.Counts[contender]); i == 0 || s < w {
			w = s
		}
	}
	return w
}

// speedup returns the baseline count over the contender count. A count
// of a run is never zero: every run retires instructions and cycles.
func speedup(base, contender uint64) float64 {
	return float64(base) / float64(contender)
}

// warmKernel reports whether the kernel's frontier strategy has a
// scratch-aware zero-alloc path.
func warmKernel(kernel string) bool {
	switch kernel {
	case "BFS", "SSSP_DIJK", "CONN_COMP", "PageRank":
		return true
	}
	return false
}

// measureWarm returns the steady-state allocations per run of the
// kernel's frontier strategy from src: one native platform plus a reused
// scratch, three warm-up runs to grow every buffer, then
// testing.AllocsPerRun.
func measureWarm(ctx context.Context, bench core.Benchmark, g *graph.CSR, src int) (float64, error) {
	g.InCSR() // the pull kernels' transpose is preprocessing, not per-run cost
	pl := native.New()
	req := core.Request{
		Input:    core.Input{G: g, Source: src},
		Threads:  warmThreads,
		Strategy: core.StrategyFrontier,
		Scratch:  core.NewScratch(),
	}
	for i := 0; i < 3; i++ {
		if _, err := bench.Run(ctx, pl, req); err != nil {
			return 0, err
		}
	}
	var runErr error
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := bench.Run(ctx, pl, req); err != nil && runErr == nil {
			runErr = err
		}
	})
	return allocs, runErr
}

// checkAssert reports whether the assertion failed, logging either way.
func checkAssert(a assertion, got float64) bool {
	if got < a.min {
		fmt.Fprintf(os.Stderr, "ASSERT FAILED: %s on %s %s ratio %.2fx < required %.2fx\n",
			a.kernel, a.graph, a.column, got, a.min)
		return true
	}
	fmt.Fprintf(os.Stderr, "assert ok: %s on %s %s ratio %.2fx >= %.2fx\n",
		a.kernel, a.graph, a.column, got, a.min)
	return false
}

func parseSpecs(s string) ([]spec, error) {
	var out []spec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f := strings.Split(part, ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("spec %q: want kernel:graph:n", part)
		}
		n, err := strconv.Atoi(f[2])
		if err != nil || n < 2 {
			return nil, fmt.Errorf("spec %q: bad vertex count %q", part, f[2])
		}
		if !graph.KnownKind(graph.Kind(f[1])) {
			return nil, fmt.Errorf("spec %q: unknown graph kind %q", part, f[1])
		}
		out = append(out, spec{kernel: f[0], graph: f[1], n: n})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -spec")
	}
	return out, nil
}

func parseAsserts(s string) ([]assertion, error) {
	var out []assertion
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f := strings.Split(part, ":")
		column := "frontier"
		switch len(f) {
		case 3:
		case 4:
			column = f[2]
			switch column {
			case "frontier", "batched", "degreesim", "rcmsim":
			default:
				return nil, fmt.Errorf("assert %q: unknown column %q (want frontier, batched, degreesim or rcmsim)", part, column)
			}
		default:
			return nil, fmt.Errorf("assert %q: want kernel:graph:min or kernel:graph:column:min", part)
		}
		min, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil || min <= 0 {
			return nil, fmt.Errorf("assert %q: bad ratio %q", part, f[len(f)-1])
		}
		out = append(out, assertion{kernel: f[0], graph: f[1], column: column, min: min})
	}
	return out, nil
}

// parseAllocAsserts parses -assertallocs entries
// (kernel:graph:maxAllocsPerOp; 0 is the zero-allocation gate).
func parseAllocAsserts(s string) ([]allocAssertion, error) {
	var out []allocAssertion
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f := strings.Split(part, ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("assertallocs %q: want kernel:graph:maxAllocsPerOp", part)
		}
		max, err := strconv.ParseFloat(f[2], 64)
		if err != nil || max < 0 {
			return nil, fmt.Errorf("assertallocs %q: bad alloc bound %q", part, f[2])
		}
		out = append(out, allocAssertion{kernel: f[0], graph: f[1], max: max})
	}
	return out, nil
}

// findSpeedup returns the named column's ratio for the (kernel, graph)
// result; a column the spec did not run is not found.
func findSpeedup(rs []row, kernel, g, column string) (float64, bool) {
	for _, r := range rs {
		if r.Kernel == kernel && r.Graph == g {
			v, ok := r.Ratios[column]
			return v, ok
		}
	}
	return 0, false
}

// findWarmAllocs returns the warm-path allocs/op for the (kernel, graph)
// result, if that spec ran a warm measurement.
func findWarmAllocs(rs []row, kernel, g string) (float64, bool) {
	for _, r := range rs {
		if r.Kernel == kernel && r.Graph == g && r.WarmAllocsPerOp != nil {
			return *r.WarmAllocsPerOp, true
		}
	}
	return 0, false
}

func writeReport(path string, rep *report) error {
	f := os.Stdout
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
		defer f.Close()
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crono-bench:", err)
	os.Exit(1)
}
