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
	// Iters is the PageRank iteration count (PageRank and PAGERANK_PULL;
	// default DefaultPageRankIters).
	Iters int
	// MaxPasses bounds Louvain passes (COMM; default
	// DefaultCommunityPasses).
	MaxPasses int
	// Delta is the delta-stepping bucket width (SSSP_DELTA; default
	// DefaultSSSPDelta).
	Delta int32
	// Target is the vertex BFS_TARGET searches for. The zero value is
	// vertex 0; the kernel validates the range.
	Target int
	// Reorder, when non-nil, makes orderable kernels execute over the
	// permuted CSR it carries (which must be a reordering of G) and
	// un-permute their per-vertex payloads before returning, so callers
	// only ever observe original vertex ids. Kernels without a
	// label-invariant result (COMM) ignore it. See Benchmark.Orderable.
	Reorder *graph.Reordered
	// Scratch, when non-nil, supplies pooled buffers to the frontier and
	// pull fast paths (BFS/SSSP_DIJK frontier, CONN_COMP frontier,
	// PageRank pull) so warm repeat runs allocate nothing. A Scratch is
	// single-run state: never share one across concurrent requests.
	// Kernels without a scratch-aware path ignore it.
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
	if r.Delta < 1 {
		r.Delta = DefaultSSSPDelta
	}
	if r.Strategy == "" {
		r.Strategy = StrategyScan
	}
	r.Strategy = r.Strategy.Canonical()
	return r
}

// strategyErr rejects unrecognized strategy values. Kernels with both
// executions call it after WithDefaults; single-strategy kernels ignore
// the knob entirely.
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
	BFSTarget   *BFSTargetResult
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
	// ErrNoIncremental for a delta it has no repair for (BFS and COMM
	// repair any delta RepairPays accepts, CONN_COMP insert-only ones),
	// after which the caller runs Run.
	Repair func(ctx context.Context, pl exec.Platform, req Request, prev *Result, d *graph.EdgeDelta) (*Result, error)
}

// Suite lists all ten benchmarks in paper order.
func Suite() []Benchmark {
	return wrapSuite([]Benchmark{
		{
			Name: "SSSP_DIJK", Parallelization: "Graph Division", Orderable: true,
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				// Delta unset means auto-tune: derive the band width from
				// the graph (AutoSSSPDelta) instead of the fixed default.
				autoDelta := req.Delta == 0 && req.G != nil
				req = req.WithDefaults()
				if err := req.strategyErr(); err != nil {
					return nil, err
				}
				var (
					r   *SSSPResult
					err error
				)
				if req.Strategy == StrategyFrontier {
					delta := req.Delta
					if autoDelta {
						delta = AutoSSSPDelta(req.G)
					}
					r, err = ssspFrontier(ctx, pl, req.G, req.Source, req.Threads, delta, req.Scratch)
				} else {
					r, err = SSSP(ctx, pl, req.G, req.Source, req.Threads)
				}
				if err != nil {
					return nil, err
				}
				res := newResult(req.Scratch)
				res.Report, res.SSSP = r.Report, r
				return res, nil
			},
		},
		{
			Name: "APSP", Parallelization: "Vertex Capture", UsesMatrix: true,
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				req = req.WithDefaults()
				r, err := APSP(ctx, pl, req.D, req.Threads)
				if err != nil {
					return nil, err
				}
				return &Result{Report: r.Report, APSP: r}, nil
			},
		},
		{
			Name: "BETW_CENT", Parallelization: "Vertex Capture & Outer Loop", UsesMatrix: true,
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				req = req.WithDefaults()
				r, err := Betweenness(ctx, pl, req.D, req.Threads)
				if err != nil {
					return nil, err
				}
				return &Result{Report: r.Report, Betweenness: r}, nil
			},
		},
		{
			Name: "BFS", Parallelization: "Graph Division", Orderable: true,
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				req = req.WithDefaults()
				if err := req.strategyErr(); err != nil {
					return nil, err
				}
				var (
					r   *BFSResult
					err error
				)
				if req.Strategy == StrategyFrontier {
					r, err = bfsFrontier(ctx, pl, req.G, req.Source, req.Threads, req.Scratch)
				} else {
					r, err = BFS(ctx, pl, req.G, req.Source, req.Threads)
				}
				if err != nil {
					return nil, err
				}
				res := newResult(req.Scratch)
				res.Report, res.BFS = r.Report, r
				return res, nil
			},
			Repair: func(ctx context.Context, pl exec.Platform, req Request, prev *Result, d *graph.EdgeDelta) (*Result, error) {
				r, err := bfsIncremental(ctx, pl, req.G, req.Source, req.Threads, prev.BFS.Level, d, req.Scratch)
				if err != nil {
					return nil, err
				}
				return &Result{Report: r.Report, BFS: r}, nil
			},
		},
		{
			Name: "DFS", Parallelization: "Branch and Bound", Orderable: true,
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				req = req.WithDefaults()
				r, err := DFS(ctx, pl, req.G, req.Source, req.Threads)
				if err != nil {
					return nil, err
				}
				return &Result{Report: r.Report, DFS: r}, nil
			},
		},
		{
			Name: "TSP", Parallelization: "Branch and Bound", UsesCities: true,
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				req = req.WithDefaults()
				r, err := TSP(ctx, pl, req.Cities, req.Threads)
				if err != nil {
					return nil, err
				}
				return &Result{Report: r.Report, TSP: r}, nil
			},
		},
		{
			Name: "CONN_COMP", Parallelization: "Graph Division", Orderable: true,
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				req = req.WithDefaults()
				if err := req.strategyErr(); err != nil {
					return nil, err
				}
				var (
					r   *ComponentsResult
					err error
				)
				if req.Strategy == StrategyFrontier {
					r, err = componentsFrontier(ctx, pl, req.G, req.Threads, req.Scratch)
				} else {
					r, err = ConnectedComponents(ctx, pl, req.G, req.Threads)
				}
				if err != nil {
					return nil, err
				}
				res := newResult(req.Scratch)
				res.Report, res.Components = r.Report, r
				return res, nil
			},
			Repair: func(ctx context.Context, pl exec.Platform, req Request, prev *Result, d *graph.EdgeDelta) (*Result, error) {
				r, err := ComponentsIncremental(ctx, pl, req.G, req.Threads, prev.Components.Labels, d)
				if err != nil {
					return nil, err
				}
				return &Result{Report: r.Report, Components: r}, nil
			},
		},
		{
			Name: "TRI_CNT", Parallelization: "Vertex Capture & Graph Division", Orderable: true,
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				req = req.WithDefaults()
				r, err := TriangleCount(ctx, pl, req.G, req.Threads)
				if err != nil {
					return nil, err
				}
				return &Result{Report: r.Report, Triangles: r}, nil
			},
		},
		{
			Name: "PageRank", Parallelization: "Vertex Capture & Graph Division", Orderable: true,
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				req = req.WithDefaults()
				if err := req.strategyErr(); err != nil {
					return nil, err
				}
				var (
					r   *PageRankResult
					err error
				)
				if req.Strategy == StrategyFrontier {
					r, err = pageRankPull(ctx, pl, req.G, req.Threads, req.Iters, req.Scratch)
				} else {
					r, err = PageRank(ctx, pl, req.G, req.Threads, req.Iters)
				}
				if err != nil {
					return nil, err
				}
				res := newResult(req.Scratch)
				res.Report, res.PageRank = r.Report, r
				return res, nil
			},
		},
		{
			Name: "COMM", Parallelization: "Vertex Capture & Graph Division",
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				req = req.WithDefaults()
				if err := req.strategyErr(); err != nil {
					return nil, err
				}
				var (
					r   *CommunityResult
					err error
				)
				if req.Strategy == StrategyFrontier {
					r, err = CommunityFrontier(ctx, pl, req.G, req.Threads, req.MaxPasses)
				} else {
					r, err = Community(ctx, pl, req.G, req.Threads, req.MaxPasses)
				}
				if err != nil {
					return nil, err
				}
				return &Result{Report: r.Report, Community: r}, nil
			},
			Repair: func(ctx context.Context, pl exec.Platform, req Request, prev *Result, d *graph.EdgeDelta) (*Result, error) {
				r, err := CommunityIncremental(ctx, pl, req.G, req.Threads, req.MaxPasses, prev.Community.Community, d)
				if err != nil {
					return nil, err
				}
				return &Result{Report: r.Report, Community: r}, nil
			},
		},
	})
}

// wrapSuite applies the cross-cutting decorators: the reorder/un-permute
// wrapper to every orderable Run and the shared gate to every Repair.
func wrapSuite(bs []Benchmark) []Benchmark {
	for i := range bs {
		if bs[i].Orderable {
			bs[i].Run = withReorder(bs[i].Run)
		}
		if bs[i].Repair != nil {
			bs[i].Repair = gateRepair(bs[i].Repair)
		}
	}
	return bs
}

// Variants lists the Section III algorithmic variants as runnable
// benchmarks. They are not part of the Table I suite, but ByName resolves
// them, so the service and the CLI can execute them by name.
func Variants() []Benchmark {
	return wrapSuite([]Benchmark{
		{
			Name: "SSSP_DELTA", Parallelization: "Graph Division (delta-stepping)", Orderable: true,
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				req = req.WithDefaults()
				r, err := SSSPDelta(ctx, pl, req.G, req.Source, req.Threads, req.Delta)
				if err != nil {
					return nil, err
				}
				return &Result{Report: r.Report, SSSP: r}, nil
			},
		},
		{
			Name: "BFS_TARGET", Parallelization: "Graph Division (early exit)", Orderable: true,
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				req = req.WithDefaults()
				r, err := BFSTarget(ctx, pl, req.G, req.Source, req.Target, req.Threads)
				if err != nil {
					return nil, err
				}
				return &Result{Report: r.Report, BFSTarget: r}, nil
			},
		},
		{
			Name: "BETW_BRANDES", Parallelization: "Vertex Capture (Brandes)", Orderable: true,
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				req = req.WithDefaults()
				r, err := BetweennessBrandes(ctx, pl, req.G, req.Threads)
				if err != nil {
					return nil, err
				}
				return &Result{Report: r.Report, Brandes: r}, nil
			},
		},
		{
			Name: "PAGERANK_PULL", Parallelization: "Graph Division (pull)", Orderable: true,
			Run: func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
				req = req.WithDefaults()
				r, err := pageRankPull(ctx, pl, req.G, req.Threads, req.Iters, req.Scratch)
				if err != nil {
					return nil, err
				}
				res := newResult(req.Scratch)
				res.Report, res.PageRank = r.Report, r
				return res, nil
			},
		},
	})
}

// ByName returns the suite benchmark or variant with the given
// identifier.
func ByName(name string) (Benchmark, error) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, nil
		}
	}
	for _, b := range Variants() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("core: unknown benchmark %q", name)
}

// Names returns all benchmark identifiers in paper order.
func Names() []string {
	s := Suite()
	out := make([]string, len(s))
	for i, b := range s {
		out[i] = b.Name
	}
	return out
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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
