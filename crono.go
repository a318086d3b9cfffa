// Package crono is a Go reproduction of CRONO, the benchmark suite for
// multithreaded graph algorithms executing on futuristic multicores
// (Ahmad, Hijaz, Shi, Khan — IISWC 2015).
//
// It provides:
//
//   - the ten CRONO graph kernels (SSSP, APSP, betweenness centrality,
//     BFS, DFS, TSP, connected components, triangle counting, PageRank
//     and Louvain community detection), parallelized with the paper's
//     strategies (graph division, vertex capture, branch and bound);
//   - two execution platforms behind one abstraction: a native goroutine
//     platform (the paper's "real machine setup") and a detailed
//     futuristic-multicore simulator (256 tiles, private L1s, NUCA L2,
//     ACKWise-4 MESI directory, 2-D mesh NoC, 11 nm energy model);
//   - synthetic input generators standing in for the paper's GTgraph and
//     SNAP graphs;
//   - an experiment harness, run as `crono experiments`, regenerating
//     every table and figure of the paper's evaluation section.
//
// Quick start:
//
//	g := crono.GenerateGraph(crono.GraphSparse, 1<<16, 42)
//	res, err := crono.SSSP(crono.NewNative(), g, 0, 8)
//	fmt.Println(res.Dist[100], res.Report.Time)
//
// To characterize a kernel on the simulated 256-core machine:
//
//	m, _ := crono.NewSimulator(crono.DefaultSimConfig())
//	res, _ := crono.BFS(m, g, 0, 64)
//	fmt.Println(res.Report.Breakdown.Fractions())
package crono

import (
	"context"
	"io"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/native"
	"crono/internal/service"
	"crono/internal/sim"
)

// Platform abstracts where a kernel executes: real hardware or the
// simulated multicore. See exec.Platform for the contract.
type Platform = exec.Platform

// Report is the result of one parallel run: completion time, the paper's
// six-component breakdown, per-thread instruction counts, cache and
// energy statistics.
type Report = exec.Report

// Graph is a weighted graph in compressed-sparse-row form. A graph whose
// weights are all 1 has a nil Weights; read weights through Neighbors or
// Weight.
type Graph = graph.CSR

// Dense is a weighted adjacency matrix (APSP, BETW_CENT and TSP inputs).
type Dense = graph.Dense

// Edge is one weighted directed edge.
type Edge = graph.Edge

// GraphKind selects a Table III input family.
type GraphKind = graph.Kind

// Input-graph families (Table III).
const (
	GraphSparse GraphKind = graph.KindSparse
	GraphRoadTX GraphKind = graph.KindRoadTX
	GraphRoadCA GraphKind = graph.KindRoadCA
	GraphSocial GraphKind = graph.KindSocial
)

// SimConfig configures the simulated multicore (Table II).
type SimConfig = sim.Config

// CoreType selects the simulated compute pipeline.
type CoreType = sim.CoreType

// Simulated core models (Table II).
const (
	CoreOutOfOrder CoreType = sim.OutOfOrder
)

// Benchmark describes one suite entry.
type Benchmark = core.Benchmark

// BenchmarkInput bundles the inputs a Benchmark.Run expects.
type BenchmarkInput = core.Input

// RunRequest is the typed argument of Benchmark.Run and crono.Run: the
// input plus thread count and per-kernel knobs (PageRank iterations,
// COMM pass bound, SSSP_DIJK frontier bucket width).
// Zero-valued knobs take kernel defaults.
type RunRequest = core.Request

// RunResult is the typed result of Benchmark.Run and crono.Run: the
// platform Report plus exactly one populated kernel payload.
type RunResult = core.Result

// Strategy selects how the graph-division kernels (BFS, SSSP_DIJK,
// CONN_COMP, PageRank, COMM) execute: the paper-faithful full-range scan
// or the frontier fast path. See core.Strategy.
type Strategy = core.Strategy

// Execution strategies.
const (
	// StrategyScan scans every thread's whole vertex range each round,
	// exactly as the paper's pthreads code does. Default for RunRequest
	// and the experiment harness, keeping paper fidelity.
	StrategyScan Strategy = core.StrategyScan
	// StrategyFrontier is one fast kernel per problem: worklist rounds
	// (BFS switching to pull rounds while the frontier is dense), Afforest
	// connected components and pull PageRank over the in-edge CSR.
	// Results match the scan oracles. Default for the serving layer.
	StrategyFrontier Strategy = core.StrategyFrontier
	// StrategyHybrid is an accepted name for StrategyFrontier.
	StrategyHybrid Strategy = core.StrategyHybrid
)

// Order names a cache-aware vertex reordering. Build one with
// ReorderGraph and pass it via RunRequest.Reorder: the kernel executes
// over the permuted CSR and un-permutes its result, so payloads stay in
// original vertex ids and are bit-identical to unordered runs.
type Order = graph.Order

// Reordered is a permuted CSR plus its forward/inverse vertex maps.
type Reordered = graph.Reordered

// Vertex orderings.
const (
	// OrderDegree packs vertices in descending degree order — the hub
	// locality play for power-law social graphs.
	OrderDegree Order = graph.OrderDegree
	// OrderRCM is a reverse-Cuthill–McKee-style bandwidth reducer — the
	// neighborhood locality play for road networks and meshes.
	OrderRCM Order = graph.OrderRCM
)

// ReorderGraph renumbers g's vertices under the given ordering.
func ReorderGraph(g *Graph, o Order) (*Reordered, error) { return graph.Reorder(g, o) }

// PickOrder chooses an ordering from g's degree skew: heavily skewed
// degree distributions take OrderDegree, flat ones OrderRCM.
func PickOrder(g *Graph) Order { return graph.PickOrder(g) }

// Scratch owns the per-run vertex-indexed buffers of the graph-division
// kernels; pass one via RunRequest.Scratch and repeat runs allocate
// nothing after warm-up. ScratchPool recycles them by size class.
type (
	Scratch     = core.Scratch
	ScratchPool = core.ScratchPool
)

// NewScratch returns an empty scratch arena; its buffers grow to the
// largest graph it serves and are reused across runs.
func NewScratch() *Scratch { return core.NewScratch() }

// NewReusableNative is NewNative returning the concrete type. There is
// one native platform and every instance is reusable; the name and the
// concrete return type (for its Close, which only marks the platform
// closed — nothing needs releasing) survive because the repository
// benchmark under bench/ is written against them.
func NewReusableNative() *native.Platform { return native.New() }

// Result types of the ten kernels.
type (
	SSSPResult          = core.SSSPResult
	APSPResult          = core.APSPResult
	BetweennessResult   = core.BetweennessResult
	BFSResult           = core.BFSResult
	DFSResult           = core.DFSResult
	TSPResult           = core.TSPResult
	ComponentsResult    = core.ComponentsResult
	TriangleCountResult = core.TriangleCountResult
	PageRankResult      = core.PageRankResult
	CommunityResult     = core.CommunityResult
)

// NewNative returns the real-machine platform: kernels run on host
// goroutines at full speed. A platform runs one region at a time and
// may be reused for any number of runs; each Run's report is the
// caller's to keep. It holds no goroutines between runs, so it is
// simply dropped when no longer needed.
func NewNative() Platform { return native.New() }

// DefaultSimConfig returns the paper's Table II machine configuration.
func DefaultSimConfig() SimConfig { return sim.Default() }

// NewSimulator builds a simulated multicore from cfg.
func NewSimulator(cfg SimConfig) (Platform, error) { return sim.New(cfg) }

// GenerateGraph builds a synthetic input graph of the given family with
// approximately n vertices, deterministically from seed.
func GenerateGraph(kind GraphKind, n int, seed int64) *Graph {
	return graph.Generate(kind, n, seed)
}

// ReadGraph parses a SNAP-style edge list.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r, graph.MaxN) }

// WriteGraph writes a graph as a SNAP-style edge list.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ReadMatrixMarket parses a MatrixMarket coordinate file.
func ReadMatrixMarket(r io.Reader) (*Graph, error) { return graph.ReadMatrixMarket(r, graph.MaxN) }

// WriteMatrixMarket writes a MatrixMarket coordinate integer matrix.
func WriteMatrixMarket(w io.Writer, g *Graph) error { return graph.WriteMatrixMarket(w, g) }

// Suite returns the ten benchmarks in paper order.
func Suite() []Benchmark { return core.Suite() }

// Run executes a kernel by name under ctx. Canceling ctx (or exceeding
// its deadline) aborts the run at the kernel's next phase boundary;
// partial results are discarded and ctx.Err() is returned. Strategy in
// req picks the execution of the kernels that have two. The per-kernel
// wrappers below are the never-canceled scan equivalents.
func Run(ctx context.Context, pl Platform, kernel string, req RunRequest) (*RunResult, error) {
	b, err := core.ByName(kernel)
	if err != nil {
		return nil, err
	}
	return b.Run(ctx, pl, req)
}

// SSSP runs single-source shortest paths (Dijkstra over pareto fronts).
func SSSP(pl Platform, g *Graph, source, threads int) (*SSSPResult, error) {
	return core.SSSP(context.Background(), pl, g, source, threads)
}

// APSP runs all-pairs shortest paths by vertex capture.
func APSP(pl Platform, d *Dense, threads int) (*APSPResult, error) {
	return core.APSP(context.Background(), pl, d, threads)
}

// Betweenness runs betweenness centrality (APSP phase + centrality loop).
func Betweenness(pl Platform, d *Dense, threads int) (*BetweennessResult, error) {
	return core.Betweenness(context.Background(), pl, d, threads)
}

// BFS runs level-synchronous breadth-first search.
func BFS(pl Platform, g *Graph, source, threads int) (*BFSResult, error) {
	return core.BFS(context.Background(), pl, g, source, threads)
}

// DFS runs branch-parallel depth-first search.
func DFS(pl Platform, g *Graph, source, threads int) (*DFSResult, error) {
	return core.DFS(context.Background(), pl, g, source, threads)
}

// TSP runs the branch-and-bound travelling salesman benchmark.
func TSP(pl Platform, cities *Dense, threads int) (*TSPResult, error) {
	return core.TSP(context.Background(), pl, cities, threads)
}

// ConnectedComponents runs label-propagation connected components.
func ConnectedComponents(pl Platform, g *Graph, threads int) (*ComponentsResult, error) {
	return core.ConnectedComponents(context.Background(), pl, g, threads)
}

// TriangleCount runs exact triangle counting.
func TriangleCount(pl Platform, g *Graph, threads int) (*TriangleCountResult, error) {
	return core.TriangleCount(context.Background(), pl, g, threads)
}

// PageRank runs the paper's Equation (1) PageRank for iters iterations.
func PageRank(pl Platform, g *Graph, threads, iters int) (*PageRankResult, error) {
	return core.PageRank(context.Background(), pl, g, threads, iters)
}

// Community runs parallel Louvain community detection.
func Community(pl Platform, g *Graph, threads, maxPasses int) (*CommunityResult, error) {
	return core.Community(context.Background(), pl, g, threads, maxPasses)
}

// BFSFrontier runs breadth-first search with the frontier strategy:
// Run's BFS with StrategyFrontier, never canceled. Levels match BFS
// exactly.
func BFSFrontier(pl Platform, g *Graph, source, threads int) (*BFSResult, error) {
	res, err := Run(context.Background(), pl, "BFS", RunRequest{
		Input: BenchmarkInput{G: g, Source: source}, Threads: threads, Strategy: StrategyFrontier,
	})
	if err != nil {
		return nil, err
	}
	return res.BFS, nil
}

// BFSBatchResult carries one full BFS payload per source of a batched
// multi-source pass.
type BFSBatchResult = core.BFSBatchResult

// BFSBatchWidth is the most sources one BFSBatch pass carries.
const BFSBatchWidth = core.BFSBatchWidth

// BFSBatch runs up to BFSBatchWidth breadth-first searches in one
// bit-parallel pass: each vertex carries a word with one reached-bit per
// source, so one edge traversal advances every search at once. Per-source
// levels match BFS exactly. The serving layer uses it to coalesce
// concurrent same-graph run requests that differ only in source.
func BFSBatch(pl Platform, g *Graph, sources []int, threads int) (*BFSBatchResult, error) {
	return core.BFSBatch(context.Background(), pl, g, sources, threads)
}

// Modularity evaluates Newman modularity of a community assignment.
func Modularity(g *Graph, community []int32) float64 { return core.Modularity(g, community) }

// EdgeDelta is a validated batch of edge mutations against a CSR graph:
// the dynamic-graph unit of change. Canonicalize before use.
type EdgeDelta = graph.EdgeDelta

// ApplyDelta materializes the graph a canonical delta produces from base:
// one linear merge pass, base untouched (copy-on-write).
func ApplyDelta(base *Graph, d *EdgeDelta) *Graph { return graph.ApplyDelta(base, d) }

// BFSIncremental returns the BFS levels of g, the graph the delta d made
// from one with levels oldLevel: BFS's Repair where the delta pays, a
// fresh frontier run otherwise, either way equal to a full recompute.
func BFSIncremental(pl Platform, g *Graph, source, threads int, oldLevel []int32, d *EdgeDelta) (*BFSResult, error) {
	b, _ := core.ByName("BFS")
	req := RunRequest{Input: BenchmarkInput{G: g, Source: source}, Threads: threads, Strategy: StrategyFrontier}
	res, _, err := b.RepairOrRun(context.Background(), pl, req, &RunResult{BFS: &BFSResult{Level: oldLevel}}, d)
	if err != nil {
		return nil, err
	}
	return res.BFS, nil
}

// Server is the graph-analytics HTTP service: a versioned graph store, a
// bounded kernel worker pool with load shedding, a segmented-LRU reply
// cache with in-flight coalescing, and Prometheus-text metrics. Mount Handler() on an
// http.Server; cmd/crono-serve is the ready-made binary.
type Server = service.Server

// ServeConfig parametrizes the service (worker pool, queue bound, cache
// and store capacities, deadlines).
type ServeConfig = service.Config

// DefaultServeConfig returns production-leaning service defaults.
func DefaultServeConfig() ServeConfig { return service.DefaultConfig() }

// NewServer builds the graph-analytics service from cfg; zero-valued
// fields are defaulted.
func NewServer(cfg ServeConfig) *Server { return service.New(cfg) }
