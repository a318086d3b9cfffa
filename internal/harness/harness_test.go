package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"crono/internal/core"
	"crono/internal/graph"
	"crono/internal/sim"
)

// tinyConfig keeps harness smoke tests fast: minimal inputs, few threads,
// a small simulated machine.
func tinyConfig(buf *bytes.Buffer) *Config {
	return &Config{
		Out:     buf,
		Scale:   0.02, // clamps to the 16-vertex floor for most inputs
		Threads: []int{1, 4},
		Seed:    7,
		Cores:   16,
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := All()
	if len(all) < 13 {
		t.Fatalf("only %d experiments", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"tab1", "tab2", "tab3", "tab4", "fig1", "fig2",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"} {
		if !ids[want] {
			t.Fatalf("missing %s", want)
		}
	}
	if _, err := ByID("fig1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestConfigSizing(t *testing.T) {
	cfg := DefaultConfig(nil)
	if cfg.SparseN() != 16384 || cfg.MatrixN() != 512 {
		t.Fatalf("default sizes %d/%d", cfg.SparseN(), cfg.MatrixN())
	}
	cfg.Scale = 0.5
	if cfg.SparseN() != 8192 {
		t.Fatalf("scaled size %d", cfg.SparseN())
	}
	cfg.Scale = 1e-9
	if cfg.SparseN() < 16 {
		t.Fatal("size floor missing")
	}
	if cfg.TSPCities() < 4 {
		t.Fatal("city floor missing")
	}
}

func TestBestThreadsClamped(t *testing.T) {
	cfg := DefaultConfig(nil)
	cfg.Threads = []int{1, 2}
	if got := cfg.bestThreads("APSP"); got != 2 {
		t.Fatalf("best threads %d, want clamp to 2", got)
	}
	cfg = DefaultConfig(nil)
	cfg.Cores = 16
	if got := cfg.bestThreads("APSP"); got != 16 {
		t.Fatalf("best threads %d, want clamp to cores", got)
	}
	if got := DefaultConfig(nil).bestThreads("unknown"); got != 64 {
		t.Fatalf("fallback best threads %d", got)
	}
}

// TestBestThreadsMatchFigure1: the best-thread experiments must run
// where Figure 1 of the checked-in full run peaks, or they describe a
// configuration Figure 1 does not call best.
func TestBestThreadsMatchFigure1(t *testing.T) {
	out, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	head := regexp.MustCompile(`(?m)^Figure 1 \[(\w+)\]:`)
	best := regexp.MustCompile(`(?m)^best speedup: [0-9.]+x at (\d+) threads$`)
	seen := 0
	for _, loc := range head.FindAllSubmatchIndex(out, -1) {
		name := string(out[loc[2]:loc[3]])
		m := best.FindSubmatch(out[loc[1]:])
		if m == nil {
			t.Fatalf("Figure 1 [%s] has no best speedup line", name)
		}
		if got := string(m[1]); got != strconv.Itoa(BestThreads[name]) {
			t.Errorf("BestThreads[%q] = %d, Figure 1 peaks at %s threads", name, BestThreads[name], got)
		}
		seen++
	}
	if seen != len(BestThreads) {
		t.Errorf("Figure 1 shows %d benchmarks, BestThreads names %d", seen, len(BestThreads))
	}
}

func TestStaticTablesRun(t *testing.T) {
	for _, id := range []string{"tab1", "tab2", "tab3"} {
		var buf bytes.Buffer
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(tinyConfig(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestFig1RunsTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig1(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"SSSP_DIJK", "APSP", "COMM", "best speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig1 output missing %q", want)
		}
	}
}

func TestBestThreadExperimentsRunTiny(t *testing.T) {
	for _, id := range []string{"fig2", "fig3", "fig4", "fig6", "fig7", "fig8"} {
		var buf bytes.Buffer
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(tinyConfig(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "PageRank") {
			t.Fatalf("%s output missing benchmarks:\n%s", id, buf.String())
		}
	}
}

func TestAblationsRunTiny(t *testing.T) {
	for _, id := range []string{"abl-dir", "abl-locality", "abl-window"} {
		var buf bytes.Buffer
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(tinyConfig(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestInputsCached(t *testing.T) {
	cfg := tinyConfig(&bytes.Buffer{})
	suite := core.Suite()
	sssp, apsp, tsp := suite[0], suite[1], suite[5]
	if a, b := cfg.defaultInput(sssp), cfg.defaultInput(sssp); a.G == nil || a.G != b.G {
		t.Fatal("sparse input not built once")
	}
	// Table IV's sparse column and Figure 1's sparse input are one graph.
	if cfg.input(string(graph.KindSparse), cfg.SparseN()).G != cfg.defaultInput(sssp).G {
		t.Fatal("sparse family and default sparse input differ")
	}
	if d := cfg.defaultInput(apsp).D; d == nil || d != cfg.input(familyMatrix, cfg.MatrixN()).D {
		t.Fatal("matrix input missing or rebuilt")
	}
	if c := cfg.defaultInput(tsp).Cities; c == nil || c != cfg.input(familyCities, cfg.TSPCities()).Cities {
		t.Fatal("cities input missing or rebuilt")
	}
	// Another size or seed is another input.
	if cfg.input(string(graph.KindSparse), 2*cfg.SparseN()).G == cfg.defaultInput(sssp).G {
		t.Fatal("sizes share an input")
	}
	g := cfg.defaultInput(sssp).G
	cfg.Seed++
	if cfg.defaultInput(sssp).G == g {
		t.Fatal("seeds share an input")
	}
}

// runAndCount runs the experiments in order on cfg and returns the
// simulations the last one started: every finished simulation is kept.
func runAndCount(t *testing.T, cfg *Config, ids ...string) int {
	t.Helper()
	var last int
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		before := len(cfg.runs)
		if err := e.Run(cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		last = len(cfg.runs) - before
	}
	return last
}

func TestRunsShareSimulations(t *testing.T) {
	cfg := tinyConfig(&bytes.Buffer{})
	if n := runAndCount(t, cfg, "fig1"); n != len(core.Suite())*len(cfg.Threads) {
		t.Fatalf("fig1 started %d simulations", n)
	}
	for _, id := range []string{"fig2", "fig3", "fig4", "fig6"} {
		if n := runAndCount(t, cfg, id); n != 0 {
			t.Errorf("%s after fig1 started %d simulations, want 0", id, n)
		}
	}
	if n := runAndCount(t, cfg, "fig8", "fig7"); n != 0 {
		t.Errorf("fig7 after fig8 started %d simulations, want 0", n)
	}
	// After fig1, each ablation simulates only its changed runs: one per
	// kernel for the mutated machines, three for the formulations (push
	// PageRank is the baseline).
	for id, want := range map[string]int{"abl-dir": 4, "abl-locality": 4, "abl-routing": 4,
		"abl-prefetch": 4, "abl-hetero": 3, "abl-formulation": 3} {
		if n := runAndCount(t, cfg, id); n != want {
			t.Errorf("%s after fig1 started %d simulations, want %d", id, n, want)
		}
	}
	// abl-reorder's baseline is Table IV's social-graph PageRank run.
	if n := runAndCount(t, cfg, "tab4", "abl-reorder"); n != 1 {
		t.Errorf("abl-reorder after tab4 started %d simulations, want 1", n)
	}
}

func TestChangedConfigRunsFresh(t *testing.T) {
	for name, change := range map[string]func(*Config){
		"scale": func(c *Config) { c.Scale = 0.04 },
		"seed":  func(c *Config) { c.Seed++ },
		"cores": func(c *Config) { c.Cores = 64 },
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := tinyConfig(&buf)
			cfg.Threads = []int{1} // one thread is exact, so outputs compare
			runAndCount(t, cfg, "abl-dir")
			before := buf.String()
			change(cfg)
			buf.Reset()
			if n := runAndCount(t, cfg, "abl-dir"); n == 0 {
				t.Fatal("no fresh simulation after the change")
			}
			var want bytes.Buffer
			fresh := tinyConfig(&want)
			fresh.Threads = []int{1}
			change(fresh)
			runAndCount(t, fresh, "abl-dir")
			if buf.String() != want.String() {
				t.Fatalf("changed config reports\n%s\nfresh config reports\n%s", buf.String(), want.String())
			}
			if buf.String() == before {
				t.Fatal("the change did not move abl-dir; the test shows nothing")
			}
		})
	}
}

func TestFailedRunNotKept(t *testing.T) {
	cfg := tinyConfig(&bytes.Buffer{})
	b, err := core.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	req, mc := core.Request{Input: cfg.defaultInput(b), Threads: 2}, cfg.simConfig(sim.InOrder)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	if _, err := cfg.run(b, req, mc); err == nil {
		t.Fatal("canceled run succeeded")
	}
	if len(cfg.runs) != 0 {
		t.Fatal("canceled run kept")
	}
	cfg.Ctx = nil
	if _, err := cfg.run(b, req, mc); err != nil || len(cfg.runs) != 1 {
		t.Fatalf("next call did not simulate (%d runs kept, err %v)", len(cfg.runs), err)
	}
	// An unset strategy runs as scan, so both name one simulation.
	req.Strategy = core.StrategyScan
	if _, err := cfg.run(b, req, mc); err != nil || len(cfg.runs) != 1 {
		t.Fatalf("scan request simulated again (%d runs kept, err %v)", len(cfg.runs), err)
	}
}

func TestHeavyExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy harness smoke tests")
	}
	for _, id := range []string{"fig5", "tab4", "fig9"} {
		var buf bytes.Buffer
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(tinyConfig(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "SSSP_DIJK") {
			t.Fatalf("%s output incomplete", id)
		}
	}
}

func TestNewAblationsRunTiny(t *testing.T) {
	for _, id := range []string{"abl-routing", "abl-prefetch", "abl-hetero", "abl-formulation", "abl-reorder"} {
		var buf bytes.Buffer
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(tinyConfig(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestCSVExport(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.CSVDir = t.TempDir()
	if err := RunTable1(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.CSVDir, "tab1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "SSSP_DIJK") {
		t.Fatalf("csv incomplete: %s", data)
	}
}

// TestAblationWindowRepeats: the simulator's scheduler makes
// multi-thread simulations repeat bit for bit, so an experiment's
// printed table does too. abl-window runs APSP's vertex capture at
// several windows, the output most sensitive to the interleaving. CI
// runs it at several GOMAXPROCS (-cpu 1,2,4).
func TestAblationWindowRepeats(t *testing.T) {
	e, err := ByID("abl-window")
	if err != nil {
		t.Fatal(err)
	}
	var out [2]bytes.Buffer
	for i := range out {
		cfg := tinyConfig(&out[i])
		cfg.Scale = 0.1
		cfg.Threads = []int{16}
		if err := e.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := out[0].String(), out[1].String(); a != b {
		t.Fatalf("two runs print different tables\n%s\n%s", a, b)
	}
}
