// Package harness regenerates every table and figure of the paper's
// evaluation section. Each experiment is a self-contained driver that
// builds the inputs, runs the suite on the right platform and prints the
// same rows or series the paper reports. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for paper-vs-measured results.
package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/sim"
	"crono/internal/stats"
)

// Config parametrizes an experiment run. A Config runs one experiment
// at a time and remembers the inputs it builds and the simulations it
// runs, so experiments that share a configuration share one simulation.
type Config struct {
	// Out receives the experiment's report.
	Out io.Writer
	// Ctx, when non-nil, cancels in-flight kernels between phases: an
	// experiment run aborted by SIGINT or a --timeout deadline returns
	// the context's error instead of running its remaining kernels to
	// completion. Nil means never canceled.
	Ctx context.Context
	// Scale multiplies the default input sizes (1.0 = the scaled-down
	// defaults documented in DESIGN.md; the paper's full-size inputs
	// correspond to roughly Scale=64 for the sparse graph).
	Scale float64
	// Threads is the simulated thread-count sweep for Figure 1.
	Threads []int
	// Seed drives all graph generation.
	Seed int64
	// Cores overrides the simulated core count (default Table II: 256).
	Cores int
	// CSVDir, when set, additionally writes every table as
	// <CSVDir>/<name>.csv.
	CSVDir string

	inputs map[inputKey]core.Input
	runs   map[runKey]*core.Result
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig(out io.Writer) *Config {
	return &Config{
		Out:     out,
		Scale:   1.0,
		Threads: []int{1, 2, 4, 8, 16, 32, 64, 128, 256},
		Seed:    42,
		Cores:   256,
	}
}

func (c *Config) scaleInt(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 16 {
		n = 16
	}
	return n
}

// SparseN is the vertex count of the default synthetic sparse input
// (paper: 1,048,576 vertices with 16 edges per vertex).
func (c *Config) SparseN() int { return c.scaleInt(16384) }

// MatrixN is the vertex count of the APSP/BETW_CENT adjacency matrix
// (paper: 16,384).
func (c *Config) MatrixN() int { return c.scaleInt(512) }

// TSPCities is the TSP city count (paper: 32).
func (c *Config) TSPCities() int {
	n := 12
	if c.Scale < 0.5 {
		n = 9
	}
	return n
}

// NativeN is the vertex count used on the real-machine platform.
func (c *Config) NativeN() int { return c.scaleInt(131072) }

func (c *Config) threads() []int {
	if len(c.Threads) > 0 {
		return c.Threads
	}
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
}

func (c *Config) maxThreads() int {
	m := 1
	for _, t := range c.threads() {
		if t > m {
			m = t
		}
	}
	return m
}

// simConfig builds the Table II machine configuration.
func (c *Config) simConfig(ct sim.CoreType) sim.Config {
	cfg := sim.Default()
	if c.Cores > 0 {
		cfg.Cores = c.Cores
	}
	cfg.CoreType = ct
	return cfg
}

// BestThreads is the per-benchmark thread count giving the highest
// simulated speedup under the default configuration; the "best thread
// count" experiments (Figures 2-4 and 6-8) run there.
var BestThreads = map[string]int{
	"SSSP_DIJK": 64,
	"APSP":      256,
	"BETW_CENT": 256,
	"BFS":       256,
	"DFS":       128,
	"TSP":       128,
	"CONN_COMP": 256,
	"TRI_CNT":   256,
	"PageRank":  128,
	"COMM":      256,
}

func (c *Config) bestThreads(bench string) int {
	best := BestThreads[bench]
	if best == 0 {
		best = 64
	}
	if mt := c.maxThreads(); best > mt {
		best = mt
	}
	if c.Cores > 0 && best > c.Cores {
		best = c.Cores
	}
	return best
}

// Input families beside the graph.Kind ones: the APSP/BETW_CENT
// adjacency matrix and the TSP cities.
const (
	familyMatrix = "matrix"
	familyCities = "cities"
)

// inputKey names one generated input: its family, size and seed.
type inputKey struct {
	family string
	n      int
	seed   int64
}

// input returns the family's input at size n (vertices, matrix order or
// cities) under the configured seed, built once per Config: equal inputs
// are one pointer, so runs over them share a key.
func (c *Config) input(family string, n int) core.Input {
	k := inputKey{family, n, c.Seed}
	if in, ok := c.inputs[k]; ok {
		return in
	}
	var in core.Input
	switch family {
	case familyMatrix:
		in.D = graph.DenseFromCSR(graph.UniformSparse(n, 8, 50, c.Seed+1))
	case familyCities:
		in.Cities = graph.Cities(n, c.Seed+2)
	default:
		in.G = graph.Generate(graph.Kind(family), n, c.Seed)
	}
	if c.inputs == nil {
		c.inputs = make(map[inputKey]core.Input)
	}
	c.inputs[k] = in
	return in
}

// inputFor returns b's input: the sparse graph on sparseN vertices, the
// matrix of order matrixN, or the configured cities.
func (c *Config) inputFor(b core.Benchmark, sparseN, matrixN int) core.Input {
	switch {
	case b.UsesMatrix:
		return c.input(familyMatrix, matrixN)
	case b.UsesCities:
		return c.input(familyCities, c.TSPCities())
	}
	return c.input(string(graph.KindSparse), sparseN)
}

// defaultInput returns b's input at the configured default sizes.
func (c *Config) defaultInput(b core.Benchmark) core.Input {
	return c.inputFor(b, c.SparseN(), c.MatrixN())
}

// kindN is the vertex count of a Table III graph family: the social
// graph is half the size of the others.
func (c *Config) kindN(kind graph.Kind) int {
	if kind == graph.KindSocial {
		return c.SparseN() / 2
	}
	return c.SparseN()
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	// ID is the harness identifier, e.g. "fig1".
	ID string
	// Title describes the paper artifact.
	Title string
	// Run executes the experiment and writes its report to cfg.Out.
	Run func(cfg *Config) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"tab1", "Table I: benchmarks and parallelizations", RunTable1},
		{"tab2", "Table II: Graphite architectural parameters", RunTable2},
		{"tab3", "Table III: input graphs", RunTable3},
		{"tab4", "Table IV: best speedups across graph types", RunTable4},
		{"fig1", "Figure 1: completion time breakdowns and scalability", RunFig1},
		{"fig2", "Figure 2: active vertices over execution time", RunFig2},
		{"fig3", "Figure 3: private L1 miss rate breakdown", RunFig3},
		{"fig4", "Figure 4: cache hierarchy miss rates", RunFig4},
		{"fig5", "Figure 5: vertex scalability", RunFig5},
		{"fig6", "Figure 6: dynamic energy breakdowns", RunFig6},
		{"fig7", "Figure 7: out-of-order completion time breakdowns", RunFig7},
		{"fig8", "Figure 8: out-of-order speedups", RunFig8},
		{"fig9", "Figure 9: real machine speedups", RunFig9},
		{"abl-dir", "Ablation: ACKWise-4 vs full-map directory", RunAblationDirectory},
		{"abl-locality", "Ablation: locality-aware coherence (Section VII)", RunAblationLocality},
		{"abl-window", "Ablation: lax-synchronization window", RunAblationWindow},
		{"abl-routing", "Ablation: XY vs oblivious routing (Section VII)", RunAblationRouting},
		{"abl-prefetch", "Ablation: next-line L1 prefetcher", RunAblationPrefetch},
		{"abl-hetero", "Ablation: heterogeneous master core (Section VII)", RunAblationHetero},
		{"abl-formulation", "Ablation: push vs pull PageRank, exact vs delta SSSP", RunAblationFormulation},
		{"abl-reorder", "Ablation: BFS vertex reordering for locality", RunAblationReorder},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ids)
}

// emit prints a table to the configured writer and, when CSVDir is set,
// writes it as <CSVDir>/<name>.csv.
func (c *Config) emit(name string, t *stats.Table) error {
	if err := t.Fprint(c.Out); err != nil {
		return err
	}
	if c.CSVDir == "" {
		return nil
	}
	if err := os.MkdirAll(c.CSVDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(c.CSVDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.CSV(f)
}

// ctx returns the experiment context, defaulting to Background.
func (c *Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// runKey names one simulation: the benchmark, the request with its
// defaults resolved (so requests Run treats alike share a key) and the
// machine.
type runKey struct {
	bench string
	req   core.Request
	mc    sim.Config
}

// run returns b's result for req on a fresh machine mc, simulating only
// the first time this Config asks for that benchmark, request and
// machine. A failed or canceled run is not kept.
func (c *Config) run(b core.Benchmark, req core.Request, mc sim.Config) (*core.Result, error) {
	k := runKey{b.Name, req.WithDefaults(), mc}
	k.req.Scratch = nil
	if res, ok := c.runs[k]; ok {
		return res, nil
	}
	m, err := sim.New(mc)
	if err != nil {
		return nil, err
	}
	res, err := b.Run(c.ctx(), m, req)
	if err != nil {
		return nil, err
	}
	if c.runs == nil {
		c.runs = make(map[runKey]*core.Result)
	}
	c.runs[k] = res
	return res, nil
}

// report is run's report for b on in at p threads.
func (c *Config) report(b core.Benchmark, in core.Input, p int, mc sim.Config) (*exec.Report, error) {
	res, err := c.run(b, core.Request{Input: in, Threads: p}, mc)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

// bestSpeedup is b's speedup on in at its best thread count over one
// thread, both on machine mc.
func (c *Config) bestSpeedup(b core.Benchmark, in core.Input, mc sim.Config) (float64, error) {
	seq, err := c.report(b, in, 1, mc)
	if err != nil {
		return 0, err
	}
	best, err := c.report(b, in, c.bestThreads(b.Name), mc)
	if err != nil {
		return 0, err
	}
	return stats.Speedup(seq.Time, best.Time), nil
}

// atBestThreads emits t as name with one row per suite kernel, each from
// the kernel's run at its best thread count on core type ct (Figures 2,
// 3, 4, 6 and 7 describe the same runs).
func (c *Config) atBestThreads(name string, ct sim.CoreType, t *stats.Table, row func(b core.Benchmark, p int, rep *exec.Report)) error {
	for _, b := range core.Suite() {
		p := c.bestThreads(b.Name)
		rep, err := c.report(b, c.defaultInput(b), p, c.simConfig(ct))
		if err != nil {
			return err
		}
		row(b, p, rep)
	}
	return c.emit(name, t)
}
