// Package core implements the CRONO benchmark suite: ten multithreaded
// graph kernels written against the exec.Platform abstraction so that the
// same code runs on real hardware (internal/native) and on the futuristic
// multicore simulator (internal/sim).
//
// The kernels and their parallelization strategies follow Table I of the
// paper:
//
//	SSSP_DIJK  - graph division over pareto fronts
//	APSP       - vertex capture, per-thread Dijkstra
//	BETW_CENT  - vertex capture + outer loop
//	BFS        - graph division, level synchronous
//	DFS        - branch and bound (branch capture)
//	TSP        - branch and bound
//	CONN_COMP  - graph division, label propagation
//	TRI_CNT    - vertex capture & graph division
//	PageRank   - vertex capture & graph division
//	COMM       - vertex capture & graph division (parallel Louvain)
package core

import (
	"context"
	"fmt"
	"slices"

	"crono/internal/exec"
	"crono/internal/graph"
)

// Input bundles the possible benchmark inputs. CSR-based benchmarks use G;
// APSP and BETW_CENT use the dense matrix D (Section IV-F); TSP uses the
// Cities distance matrix.
type Input struct {
	G      *graph.CSR
	D      *graph.Dense
	Cities *graph.Dense
	Source int
}

// Strategy selects how the graph-division kernels execute.
//
// StrategyScan is the paper-faithful style of the original CRONO
// pthreads code: every round, every thread scans its whole static
// vertex range for members of the current frontier. StrategyFrontier is
// one fast kernel per problem: BFS runs over an explicit compact worklist
// (per-thread next-frontier buffers merged at each barrier) and flips to
// in-CSR pull rounds while the frontier is dense, SSSP_DIJK and COMM run
// over the worklist, CONN_COMP runs Afforest's sampled union-find and
// PageRank pulls contributions over the transpose. Both strategies
// produce identical results for BFS, SSSP_DIJK and CONN_COMP; COMM keeps
// the same move rule but replaces the modularity-plateau stop with
// worklist exhaustion.
//
// Kernels without a frontier formulation (the matrix, branch-and-bound
// and fixed-iteration kernels) ignore the knob, like any other option
// they do not consume.
type Strategy string

const (
	// StrategyScan is the paper-fidelity full-range scan execution.
	StrategyScan Strategy = "scan"
	// StrategyFrontier is the fast execution: worklists, direction
	// optimization, Afforest and pull PageRank.
	StrategyFrontier Strategy = "frontier"
	// StrategyHybrid is an accepted name for StrategyFrontier; Canonical
	// maps it there.
	StrategyHybrid Strategy = "hybrid"
)

// Valid reports whether s names a known strategy.
func (s Strategy) Valid() bool {
	return s == StrategyScan || s == StrategyFrontier || s == StrategyHybrid
}

// Canonical returns the strategy s executes as: StrategyFrontier for its
// alias StrategyHybrid, s itself otherwise.
func (s Strategy) Canonical() Strategy {
	if s == StrategyHybrid {
		return StrategyFrontier
	}
	return s
}

// Request bundles one kernel execution's input and options. Zero-valued
// options resolve to validated defaults, so callers set only what they
// care about; kernels that do not consume an option ignore it.
type Request struct {
	// Input carries the graph and matrix inputs plus the source vertex.
	Input
	// Threads is the parallelism degree (minimum and default 1).
	Threads int
	// Strategy selects scan or frontier execution for the kernels that
	// support both (BFS, SSSP_DIJK, CONN_COMP, PageRank, COMM). The zero
	// value is StrategyScan, keeping paper-fidelity the default.
	Strategy Strategy
	// Iters is the PageRank iteration count (default
	// DefaultPageRankIters).
	Iters int
	// MaxPasses bounds Louvain passes (COMM; default
	// DefaultCommunityPasses).
	MaxPasses int
	// Delta is the bucket width of SSSP_DIJK's frontier strategy. Zero
	// means AutoSSSPDelta of the graph, which the kernel entry resolves
	// because it depends on the input. It has no effect on a unit-weight
	// graph, where the frontier strategy runs breadth-first rounds.
	Delta int32
	// Reorder, when non-nil, makes orderable kernels execute over the
	// permuted CSR it carries (which must be a reordering of G) and
	// un-permute their per-vertex payloads before returning, so callers
	// only ever observe original vertex ids. Kernels without a
	// label-invariant result (COMM) ignore it. See Benchmark.Orderable.
	Reorder *graph.Reordered
	// Scratch supplies pooled buffers to the frontier executions of BFS,
	// SSSP_DIJK, CONN_COMP and PageRank so warm repeat runs allocate
	// nothing, and holds the Result every Run returns (see Scratch for
	// who owns what); nil means a fresh scratch in DetachResults mode. A
	// Scratch is single-run state: never share one across concurrent
	// requests.
	Scratch *Scratch
}

// WithDefaults returns the request with every zero-valued option resolved
// to its documented default.
func (r Request) WithDefaults() Request {
	if r.Threads < 1 {
		r.Threads = 1
	}
	if r.Iters < 1 {
		r.Iters = DefaultPageRankIters
	}
	if r.MaxPasses < 1 {
		r.MaxPasses = DefaultCommunityPasses
	}
	if r.Strategy == "" {
		r.Strategy = StrategyScan
	}
	r.Strategy = r.Strategy.Canonical()
	if r.Scratch == nil {
		r.Scratch = &Scratch{DetachResults: true}
	}
	return r
}

// strategyErr rejects unrecognized strategy values. The dispatcher calls
// it only for kernels with both executions; single-strategy kernels
// ignore the knob entirely.
func (r Request) strategyErr() error {
	if !r.Strategy.Valid() {
		return fmt.Errorf("core: unknown strategy %q (want %q or %q)",
			r.Strategy, StrategyScan, StrategyFrontier)
	}
	return nil
}

// Result is one kernel execution's outcome: the platform report plus the
// kernel's typed payload. Exactly one payload field is non-nil — the one
// matching the benchmark that produced it.
type Result struct {
	// Report is the platform execution report.
	Report *exec.Report

	SSSP        *SSSPResult
	APSP        *APSPResult
	Betweenness *BetweennessResult
	BFS         *BFSResult
	DFS         *DFSResult
	TSP         *TSPResult
	Components  *ComponentsResult
	Triangles   *TriangleCountResult
	PageRank    *PageRankResult
	Community   *CommunityResult
	Brandes     *BrandesResult
}

// Benchmark describes one suite entry for the harness.
type Benchmark struct {
	// Name is the paper identifier (Table I), e.g. "SSSP_DIJK".
	Name string
	// Parallelization is the Table I strategy description.
	Parallelization string
	// UsesMatrix marks the adjacency-matrix benchmarks (APSP, BETW_CENT).
	UsesMatrix bool
	// UsesCities marks TSP.
	UsesCities bool
	// Frontier marks the kernels with a frontier execution beside the
	// scan one (BFS, SSSP_DIJK, CONN_COMP, PageRank and COMM), between
	// which Request.Strategy picks; the others ignore Strategy.
	Frontier bool
	// Orderable marks the kernels that consume Request.Reorder: their
	// payloads un-permute to the unordered result. COMM's Louvain moves
	// depend on vertex order, so it is not.
	Orderable bool
	// Run executes the kernel under ctx and returns the report plus the
	// kernel's typed payload. Cancellation is cooperative: when ctx is
	// canceled the kernel unwinds at its next phase boundary and Run
	// returns ctx.Err() with partial results discarded.
	Run func(ctx context.Context, pl exec.Platform, req Request) (*Result, error)
	// Repair, nil for kernels without an incremental form, computes Run's
	// result on req.G from prev — this benchmark's result for the same
	// request on the graph the edge delta d turned into req.G — as a
	// seeded frontier run over req.G (Reorder is ignored). It returns
	// ErrNoIncremental for a delta it has no repair for (BFS repairs any
	// delta RepairPays accepts, CONN_COMP insert-only ones), after which
	// the caller runs Run (RepairOrRun). It runs on req.Scratch like Run,
	// and prev may be that scratch's own result.
	Repair func(ctx context.Context, pl exec.Platform, req Request, prev *Result, d *graph.EdgeDelta) (*Result, error)
}

// suite and variants are built once; Suite, Variants and ByName hand out
// copies, so looking a kernel up allocates nothing.
var suite = wrapSuite([]Benchmark{
	dispatch(Benchmark{Name: "SSSP_DIJK", Parallelization: "Graph Division", Orderable: true},
		func(res *Result, r *SSSPResult) { res.Report, res.SSSP = r.Report, r },
		func(ctx context.Context, pl exec.Platform, req Request) (*SSSPResult, error) {
			return SSSP(ctx, pl, req.G, req.Source, req.Threads)
		},
		func(ctx context.Context, pl exec.Platform, req Request) (*SSSPResult, error) {
			if req.Delta < 1 {
				req.Delta = AutoSSSPDelta(req.G)
			}
			return ssspFrontier(ctx, pl, req.G, req.Source, req.Threads, req.Delta, req.Scratch)
		}),
	dispatch(Benchmark{Name: "APSP", Parallelization: "Vertex Capture", UsesMatrix: true},
		func(res *Result, r *APSPResult) { res.Report, res.APSP = r.Report, r },
		func(ctx context.Context, pl exec.Platform, req Request) (*APSPResult, error) {
			return APSP(ctx, pl, req.D, req.Threads)
		}, nil),
	dispatch(Benchmark{Name: "BETW_CENT", Parallelization: "Vertex Capture & Outer Loop", UsesMatrix: true},
		func(res *Result, r *BetweennessResult) { res.Report, res.Betweenness = r.Report, r },
		func(ctx context.Context, pl exec.Platform, req Request) (*BetweennessResult, error) {
			return Betweenness(ctx, pl, req.D, req.Threads)
		}, nil),
	dispatch(Benchmark{Name: "BFS", Parallelization: "Graph Division", Orderable: true,
		Repair: gateRepair(func(res *Result, r *BFSResult) { res.Report, res.BFS = r.Report, r },
			func(ctx context.Context, pl exec.Platform, req Request, prev *Result, d *graph.EdgeDelta) (*BFSResult, error) {
				return bfsIncremental(ctx, pl, req.G, req.Source, req.Threads, prev.BFS.Level, d, req.Scratch)
			})},
		func(res *Result, r *BFSResult) { res.Report, res.BFS = r.Report, r },
		func(ctx context.Context, pl exec.Platform, req Request) (*BFSResult, error) {
			return BFS(ctx, pl, req.G, req.Source, req.Threads)
		},
		func(ctx context.Context, pl exec.Platform, req Request) (*BFSResult, error) {
			return bfsFrontier(ctx, pl, req.G, req.Source, req.Threads, req.Scratch)
		}),
	dispatch(Benchmark{Name: "DFS", Parallelization: "Branch and Bound", Orderable: true},
		func(res *Result, r *DFSResult) { res.Report, res.DFS = r.Report, r },
		func(ctx context.Context, pl exec.Platform, req Request) (*DFSResult, error) {
			return DFS(ctx, pl, req.G, req.Source, req.Threads)
		}, nil),
	dispatch(Benchmark{Name: "TSP", Parallelization: "Branch and Bound", UsesCities: true},
		func(res *Result, r *TSPResult) { res.Report, res.TSP = r.Report, r },
		func(ctx context.Context, pl exec.Platform, req Request) (*TSPResult, error) {
			return TSP(ctx, pl, req.Cities, req.Threads)
		}, nil),
	dispatch(Benchmark{Name: "CONN_COMP", Parallelization: "Graph Division", Orderable: true,
		Repair: gateRepair(func(res *Result, r *ComponentsResult) { res.Report, res.Components = r.Report, r },
			func(ctx context.Context, pl exec.Platform, req Request, prev *Result, d *graph.EdgeDelta) (*ComponentsResult, error) {
				return componentsIncremental(ctx, pl, req.G, req.Threads, prev.Components.Labels, d, req.Scratch)
			})},
		func(res *Result, r *ComponentsResult) { res.Report, res.Components = r.Report, r },
		func(ctx context.Context, pl exec.Platform, req Request) (*ComponentsResult, error) {
			return ConnectedComponents(ctx, pl, req.G, req.Threads)
		},
		func(ctx context.Context, pl exec.Platform, req Request) (*ComponentsResult, error) {
			return componentsFrontier(ctx, pl, req.G, req.Threads, req.Scratch)
		}),
	dispatch(Benchmark{Name: "TRI_CNT", Parallelization: "Vertex Capture & Graph Division", Orderable: true},
		func(res *Result, r *TriangleCountResult) { res.Report, res.Triangles = r.Report, r },
		func(ctx context.Context, pl exec.Platform, req Request) (*TriangleCountResult, error) {
			return TriangleCount(ctx, pl, req.G, req.Threads)
		}, nil),
	dispatch(Benchmark{Name: "PageRank", Parallelization: "Vertex Capture & Graph Division", Orderable: true},
		func(res *Result, r *PageRankResult) { res.Report, res.PageRank = r.Report, r },
		func(ctx context.Context, pl exec.Platform, req Request) (*PageRankResult, error) {
			return PageRank(ctx, pl, req.G, req.Threads, req.Iters)
		},
		func(ctx context.Context, pl exec.Platform, req Request) (*PageRankResult, error) {
			return pageRankPull(ctx, pl, req.G, req.Threads, req.Iters, req.Scratch)
		}),
	dispatch(Benchmark{Name: "COMM", Parallelization: "Vertex Capture & Graph Division"},
		func(res *Result, r *CommunityResult) { res.Report, res.Community = r.Report, r },
		func(ctx context.Context, pl exec.Platform, req Request) (*CommunityResult, error) {
			return Community(ctx, pl, req.G, req.Threads, req.MaxPasses)
		},
		func(ctx context.Context, pl exec.Platform, req Request) (*CommunityResult, error) {
			return communityFrontier(ctx, pl, req.G, req.Threads, req.MaxPasses)
		}),
})

// Suite lists all ten benchmarks in paper order.
func Suite() []Benchmark { return slices.Clone(suite) }

var variants = wrapSuite([]Benchmark{
	dispatch(Benchmark{Name: "BETW_BRANDES", Parallelization: "Vertex Capture (Brandes)", Orderable: true},
		func(res *Result, r *BrandesResult) { res.Report, res.Brandes = r.Report, r },
		func(ctx context.Context, pl exec.Platform, req Request) (*BrandesResult, error) {
			return BetweennessBrandes(ctx, pl, req.G, req.Threads)
		}, nil),
})

// Variants lists the kernels beyond the Table I suite as runnable
// benchmarks. ByName resolves them, so the service and the CLI can
// execute them by name.
func Variants() []Benchmark { return slices.Clone(variants) }

// ByName returns the suite benchmark or variant with the given
// identifier.
func ByName(name string) (Benchmark, error) {
	for _, b := range suite {
		if b.Name == name {
			return b, nil
		}
	}
	for _, b := range variants {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("core: unknown benchmark %q", name)
}

// dispatch completes a suite entry from its scan execution and, for the
// kernels that have one, its frontier execution (nil otherwise): it sets
// Frontier and builds Run, which resolves the request's defaults,
// rejects an unknown strategy where there is a choice to make, runs the
// chosen execution and wraps its payload (wrapPayload).
func dispatch[T any](b Benchmark, set func(*Result, T), scan, frontier func(context.Context, exec.Platform, Request) (T, error)) Benchmark {
	b.Frontier = frontier != nil
	b.Run = func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
		req = req.WithDefaults()
		run := scan
		if frontier != nil {
			if err := req.strategyErr(); err != nil {
				return nil, err
			}
			if req.Strategy == StrategyFrontier {
				run = frontier
			}
		}
		r, err := run(ctx, pl, req)
		return wrapPayload(req.Scratch, set, r, err)
	}
	return b
}

// wrapSuite applies the reorder/un-permute wrapper to every orderable
// Run.
func wrapSuite(bs []Benchmark) []Benchmark {
	for i := range bs {
		if bs[i].Orderable {
			bs[i].Run = withReorder(bs[i].Run)
		}
	}
	return bs
}

// chunk statically divides n items among p threads and returns tid's
// half-open range. This is the paper's static "graph division".
func chunk(tid, p, n int) (lo, hi int) {
	per := n / p
	rem := n % p
	lo = tid*per + min(tid, rem)
	hi = lo + per
	if tid < rem {
		hi++
	}
	return lo, hi
}

// validate checks the common preconditions of CSR kernels.
func validate(g *graph.CSR, src, threads int) error {
	if g == nil {
		return fmt.Errorf("core: nil graph")
	}
	if g.N == 0 {
		return fmt.Errorf("core: empty graph")
	}
	if src < 0 || src >= g.N {
		return fmt.Errorf("core: source %d out of range [0,%d)", src, g.N)
	}
	if threads < 1 {
		return fmt.Errorf("core: thread count %d < 1", threads)
	}
	return nil
}
