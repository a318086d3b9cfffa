package racecheck

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
)

// sweepCase is one cell of the zero-race pin matrix.
type sweepCase struct {
	bench    core.Benchmark
	strategy core.Strategy
	kind     graph.Kind
	threads  int
}

// sweepCases enumerates every shipped execution × generator ×
// thread-count cell checked for freedom from annotation-level races.
// Every suite kernel runs its scan execution; those with a frontier
// execution (core.Benchmark.Frontier) run it too, under the frontier
// name (for PageRank that is the pull form). Variants run once per
// generator cell.
//
// Inputs are tiny: the deterministic scheduler yields at every
// annotation, so cost scales with annotation count, and a race in the
// access pattern shows up at any size.
func sweepCases() []sweepCase {
	kinds := []graph.Kind{graph.KindSparse, graph.KindRoadTX}
	threadCounts := []int{2, 3}
	var cases []sweepCase
	for _, b := range core.Suite() {
		strats := []core.Strategy{core.StrategyScan}
		if b.Frontier {
			strats = append(strats, core.StrategyFrontier)
		}
		for _, s := range strats {
			for _, k := range kinds {
				for _, th := range threadCounts {
					cases = append(cases, sweepCase{b, s, k, th})
				}
			}
		}
	}
	// Variants are single-strategy kernels: one strategy column each.
	for _, b := range core.Variants() {
		for _, k := range kinds {
			for _, th := range threadCounts {
				cases = append(cases, sweepCase{b, core.StrategyScan, k, th})
			}
		}
	}
	// The entry points outside the registry run the frontier bodies from
	// other start states: one frontier column each.
	for _, b := range seededEntryPoints() {
		for _, k := range kinds {
			for _, th := range threadCounts {
				cases = append(cases, sweepCase{b, core.StrategyFrontier, k, th})
			}
		}
	}
	return cases
}

// seededEntryPoints wraps BFSBatch and the two kernels' Repair as sweep
// cells. Each repair is seeded from a full result on req.G plus a
// small random delta, and runs on the mutated graph.
func seededEntryPoints() []core.Benchmark {
	// delta draws a few fresh inserts and, when asked, deletes of
	// existing edges; the seed is fixed, so cells are reproducible.
	delta := func(g *graph.CSR, deletes int) (*graph.EdgeDelta, *graph.CSR, error) {
		rng := rand.New(rand.NewSource(7))
		d := &graph.EdgeDelta{}
		for len(d.Inserts) < 3 {
			if a, b := int32(rng.Intn(g.N)), int32(rng.Intn(g.N)); a != b {
				d.Inserts = append(d.Inserts, graph.Edge{From: a, To: b, Weight: 1 + int32(rng.Intn(8))})
			}
		}
		for v := 0; v < g.N && len(d.Deletes) < deletes; v += 5 {
			if ts, _ := g.Neighbors(v); len(ts) > 0 {
				d.Deletes = append(d.Deletes, graph.Edge{From: int32(v), To: ts[len(ts)-1]})
			}
		}
		// Canonicalize rejects the rare draw that repeats an insert or
		// inserts a deleted edge; the fixed seed avoids both here.
		if err := d.Canonicalize(g.N); err != nil {
			return nil, nil, err
		}
		return d, graph.ApplyDelta(g, d), nil
	}
	wrap := func(name string, run func(ctx context.Context, pl exec.Platform, req core.Request) (*exec.Report, error)) core.Benchmark {
		return core.Benchmark{Name: name, Run: func(ctx context.Context, pl exec.Platform, req core.Request) (*core.Result, error) {
			rep, err := run(ctx, pl, req)
			if err != nil {
				return nil, err
			}
			return &core.Result{Report: rep}, nil
		}}
	}
	// repair runs kernel's Benchmark.Repair; a delta it declines fails
	// the cell.
	repair := func(ctx context.Context, pl exec.Platform, kernel string, req core.Request, prev *core.Result, d *graph.EdgeDelta) (*exec.Report, error) {
		b, err := core.ByName(kernel)
		if err != nil {
			return nil, err
		}
		r, err := b.Repair(ctx, pl, req, prev, d)
		if err != nil {
			return nil, err
		}
		return r.Report, nil
	}
	return []core.Benchmark{
		wrap("BFSBatch", func(ctx context.Context, pl exec.Platform, req core.Request) (*exec.Report, error) {
			r, err := core.BFSBatch(ctx, pl, req.G, []int{0, 1, req.G.N - 1, 1}, req.Threads)
			if err != nil {
				return nil, err
			}
			return r.Report, nil
		}),
		wrap("BFSIncremental", func(ctx context.Context, pl exec.Platform, req core.Request) (*exec.Report, error) {
			d, next, err := delta(req.G, 2)
			if err != nil {
				return nil, err
			}
			prev := &core.Result{BFS: &core.BFSResult{Level: core.BFSRef(req.G, req.Source)}}
			req.G = next
			return repair(ctx, pl, "BFS", req, prev, d)
		}),
		wrap("ComponentsIncremental", func(ctx context.Context, pl exec.Platform, req core.Request) (*exec.Report, error) {
			d, _, err := delta(req.G, 0)
			if err != nil {
				return nil, err
			}
			// A one-way edge from every other component's root to vertex 0
			// merges them all, so the compress phase runs too.
			old := core.ComponentsRef(req.G)
			for v, l := range old {
				if l == int32(v) && l != old[0] {
					d.Inserts = append(d.Inserts, graph.Edge{From: l, To: 0, Weight: 1})
				}
			}
			if err := d.Canonicalize(req.G.N); err != nil {
				return nil, err
			}
			req.G = graph.ApplyDelta(req.G, d)
			return repair(ctx, pl, "CONN_COMP", req, &core.Result{Components: &core.ComponentsResult{Labels: old}}, d)
		}),
	}
}

// TestKernelSweepZeroRaces pins the absence of annotation-level races
// across the shipped kernels on the deterministic platform. A failure
// here means either a kernel regression (an annotation lost its lock or
// barrier ordering) or a detector regression (a phantom race).
func TestKernelSweepZeroRaces(t *testing.T) {
	for _, tc := range sweepCases() {
		tc := tc
		name := fmt.Sprintf("%s/%s/%s/t%d", tc.bench.Name, tc.strategy, tc.kind, tc.threads)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pl := New()
			req := core.Request{
				Threads:  tc.threads,
				Strategy: tc.strategy,
			}
			req.G = graph.Generate(tc.kind, 40, 1)
			req.Source = 0
			switch {
			case tc.bench.UsesMatrix:
				req.D = graph.DenseFromCSR(graph.Generate(tc.kind, 12, 1))
			case tc.bench.UsesCities:
				req.Cities = graph.Cities(7, 3)
			}
			if _, err := tc.bench.Run(context.Background(), pl, req); err != nil {
				t.Fatal(err)
			}
			if races := pl.Races(); len(races) != 0 {
				t.Fatalf("kernel reported %d races:\n%s", len(races), formatRaces(races))
			}
		})
	}
}

// sweepInstrPinned holds each sweep cell's per-thread instruction counts
// on New(). The round-robin scheduler decides which thread claims which
// work in the frontier and lock-heavy kernels, so these vectors pin the
// interleaving, not only the kernels' totals. Run with
// CRONO_RACE_PIN_GEN=1 to print the table instead.
var sweepInstrPinned = map[string]string{
	"SSSP_DIJK/scan/sparse/t2":                  "[4120 4103]",
	"SSSP_DIJK/scan/sparse/t3":                  "[2964 2611 2699]",
	"SSSP_DIJK/scan/road-tx/t2":                 "[130 122]",
	"SSSP_DIJK/scan/road-tx/t3":                 "[96 80 80]",
	"SSSP_DIJK/frontier/sparse/t2":              "[3329 1]",
	"SSSP_DIJK/frontier/sparse/t3":              "[3330 1 1]",
	"SSSP_DIJK/frontier/road-tx/t2":             "[7 1]",
	"SSSP_DIJK/frontier/road-tx/t3":             "[8 1 1]",
	"APSP/scan/sparse/t2":                       "[4777 4763]",
	"APSP/scan/sparse/t3":                       "[3183 3176 3185]",
	"APSP/scan/road-tx/t2":                      "[4548 3930]",
	"APSP/scan/road-tx/t3":                      "[3034 2413 3035]",
	"BETW_CENT/scan/sparse/t2":                  "[7375 7333]",
	"BETW_CENT/scan/sparse/t3":                  "[4915 4900 4897]",
	"BETW_CENT/scan/road-tx/t2":                 "[6538 6292]",
	"BETW_CENT/scan/road-tx/t3":                 "[4238 3985 4611]",
	"BFS/scan/sparse/t2":                        "[998 992]",
	"BFS/scan/sparse/t3":                        "[724 608 658]",
	"BFS/scan/road-tx/t2":                       "[44 41]",
	"BFS/scan/road-tx/t3":                       "[33 27 27]",
	"BFS/frontier/sparse/t2":                    "[273 155]",
	"BFS/frontier/sparse/t3":                    "[198 136 94]",
	"BFS/frontier/road-tx/t2":                   "[2 0]",
	"BFS/frontier/road-tx/t3":                   "[2 0 0]",
	"DFS/scan/sparse/t2":                        "[1741 1391]",
	"DFS/scan/sparse/t3":                        "[1741 1391 1391]",
	"DFS/scan/road-tx/t2":                       "[10 7]",
	"DFS/scan/road-tx/t3":                       "[10 7 7]",
	"TSP/scan/sparse/t2":                        "[1401 1288]",
	"TSP/scan/sparse/t3":                        "[949 852 885]",
	"TSP/scan/road-tx/t2":                       "[1401 1288]",
	"TSP/scan/road-tx/t3":                       "[949 852 885]",
	"CONN_COMP/scan/sparse/t2":                  "[2430 2638]",
	"CONN_COMP/scan/sparse/t3":                  "[1728 1608 1730]",
	"CONN_COMP/scan/road-tx/t2":                 "[1017 1081]",
	"CONN_COMP/scan/road-tx/t3":                 "[842 833 865]",
	"CONN_COMP/frontier/sparse/t2":              "[634 524]",
	"CONN_COMP/frontier/sparse/t3":              "[474 347 341]",
	"CONN_COMP/frontier/road-tx/t2":             "[593 559]",
	"CONN_COMP/frontier/road-tx/t3":             "[434 367 366]",
	"TRI_CNT/scan/sparse/t2":                    "[11985 3163]",
	"TRI_CNT/scan/sparse/t3":                    "[9331 4469 1348]",
	"TRI_CNT/scan/road-tx/t2":                   "[344 301]",
	"TRI_CNT/scan/road-tx/t3":                   "[245 201 199]",
	"PageRank/scan/sparse/t2":                   "[13650 14750]",
	"PageRank/scan/sparse/t3":                   "[9680 9010 9710]",
	"PageRank/scan/road-tx/t2":                  "[3660 3580]",
	"PageRank/scan/road-tx/t3":                  "[2540 2360 2340]",
	"PageRank/frontier/sparse/t2":               "[8210 8870]",
	"PageRank/frontier/sparse/t3":               "[5822 5419 5839]",
	"PageRank/frontier/road-tx/t2":              "[2240 2180]",
	"PageRank/frontier/road-tx/t3":              "[1562 1429 1429]",
	"COMM/scan/sparse/t2":                       "[9412 9579]",
	"COMM/scan/sparse/t3":                       "[13605 11803 12626]",
	"COMM/scan/road-tx/t2":                      "[1920 1554]",
	"COMM/scan/road-tx/t3":                      "[1434 1008 1017]",
	"COMM/frontier/sparse/t2":                   "[6302 6255]",
	"COMM/frontier/sparse/t3":                   "[6416 6030 5788]",
	"COMM/frontier/road-tx/t2":                  "[1023 995]",
	"COMM/frontier/road-tx/t3":                  "[596 584 590]",
	"BETW_BRANDES/scan/sparse/t2":               "[82324 82740]",
	"BETW_BRANDES/scan/sparse/t3":               "[53641 57590 53837]",
	"BETW_BRANDES/scan/road-tx/t2":              "[20288 19368]",
	"BETW_BRANDES/scan/road-tx/t3":              "[14038 12874 12748]",
	"BFSBatch/frontier/sparse/t2":               "[617 516]",
	"BFSBatch/frontier/sparse/t3":               "[391 380 362]",
	"BFSBatch/frontier/road-tx/t2":              "[307 295]",
	"BFSBatch/frontier/road-tx/t3":              "[260 187 155]",
	"BFSIncremental/frontier/sparse/t2":         "[268 167]",
	"BFSIncremental/frontier/sparse/t3":         "[193 136 106]",
	"BFSIncremental/frontier/road-tx/t2":        "[0 0]",
	"BFSIncremental/frontier/road-tx/t3":        "[0 0 0]",
	"ComponentsIncremental/frontier/sparse/t2":  "[12 6]",
	"ComponentsIncremental/frontier/sparse/t3":  "[6 6 6]",
	"ComponentsIncremental/frontier/road-tx/t2": "[108 110]",
	"ComponentsIncremental/frontier/road-tx/t3": "[66 80 72]",
}

// TestSweepInstructionsPinned runs every sweepCases cell on the
// deterministic checker and compares its Report.Instructions with
// sweepInstrPinned.
func TestSweepInstructionsPinned(t *testing.T) {
	gen := os.Getenv("CRONO_RACE_PIN_GEN") != ""
	cases := sweepCases()
	got := make([]string, len(cases))
	t.Run("cells", func(t *testing.T) {
		for i, tc := range cases {
			i, tc := i, tc
			t.Run(sweepName(tc), func(t *testing.T) {
				t.Parallel()
				req := core.Request{Threads: tc.threads, Strategy: tc.strategy}
				req.G = graph.Generate(tc.kind, 40, 1)
				switch {
				case tc.bench.UsesMatrix:
					req.D = graph.DenseFromCSR(graph.Generate(tc.kind, 12, 1))
				case tc.bench.UsesCities:
					req.Cities = graph.Cities(7, 3)
				}
				res, err := tc.bench.Run(context.Background(), New(), req)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = fmt.Sprint(res.Report.Instructions)
			})
		}
	})
	for i, tc := range cases {
		name := sweepName(tc)
		if gen {
			fmt.Printf("\t%q: %q,\n", name, got[i])
			continue
		}
		if want := sweepInstrPinned[name]; got[i] != want {
			t.Errorf("%s: per-thread instructions %s, want %s", name, got[i], want)
		}
	}
	if len(cases) != len(sweepInstrPinned) && !gen {
		t.Errorf("%d cells, %d pinned", len(cases), len(sweepInstrPinned))
	}
}

func sweepName(tc sweepCase) string {
	return fmt.Sprintf("%s/%s/%s/t%d", tc.bench.Name, tc.strategy, tc.kind, tc.threads)
}
