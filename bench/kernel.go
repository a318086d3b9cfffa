package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"crono"
	"crono/internal/exec"
)

// arm is one kernel rendition a kernel-* workload times.
type arm struct {
	name     string
	kernel   string
	strategy crono.Strategy
	rcm      bool // run over the RCM-reordered CSR
	batch    bool // one 64-source BFSBatch pass per op
}

var (
	bfsFrontier  = arm{name: "BFS.frontier", kernel: "BFS", strategy: crono.StrategyFrontier}
	bfsHybrid    = arm{name: "BFS.hybrid", kernel: "BFS", strategy: crono.StrategyHybrid}
	bfsScan      = arm{name: "BFS.scan", kernel: "BFS", strategy: crono.StrategyScan}
	bfsBatch     = arm{name: "BFS.batch64", kernel: "BFS", batch: true}
	ssspFrontier = arm{name: "SSSP_DIJK.frontier", kernel: "SSSP_DIJK", strategy: crono.StrategyFrontier}
	ccFrontier   = arm{name: "CONN_COMP.frontier", kernel: "CONN_COMP", strategy: crono.StrategyFrontier}
	ccHybrid     = arm{name: "CONN_COMP.hybrid", kernel: "CONN_COMP", strategy: crono.StrategyHybrid}
	ccRCM        = arm{name: "CONN_COMP.frontier.rcm", kernel: "CONN_COMP", strategy: crono.StrategyFrontier, rcm: true}
	prHybrid     = arm{name: "PageRank.hybrid", kernel: "PageRank", strategy: crono.StrategyHybrid}
	prRCM        = arm{name: "PageRank.hybrid.rcm", kernel: "PageRank", strategy: crono.StrategyHybrid, rcm: true}
	commFrontier = arm{name: "COMM.frontier", kernel: "COMM", strategy: crono.StrategyFrontier}

	socialArms = []arm{bfsFrontier, bfsHybrid, bfsScan, bfsBatch, ssspFrontier, ccFrontier, ccHybrid, prHybrid, prRCM}
	roadArms   = []arm{bfsFrontier, bfsHybrid, bfsScan, ssspFrontier, ccFrontier, ccHybrid, ccRCM, prHybrid}
	// tracedArms run in kernel-social's traced run only. Louvain's moves
	// race, so one COMM op takes anywhere from 250 to 380 ms on the same
	// graph; as the slowest arm by far it would set, and unsettle,
	// throughput and the pooled percentile of the whole workload.
	tracedArms = []arm{commFrontier}
)

// pageRankIters is the iteration count of the PageRank arms (the
// kernel's default, stated so the reference uses the same).
const pageRankIters = 10

// commPasses bounds the Louvain sweeps of the COMM arm: three sweeps do
// the bulk of the moves in half the time of the kernel's default 8.
const commPasses = 3

// kernelWorkload is kernel-social or kernel-road: crono.Run on a warm
// reusable native platform with a reused Scratch, one op at a time with
// P kernel threads, arms in round-robin order.
type kernelWorkload struct {
	r    *run
	road bool
	arms []arm

	g   *crono.Graph
	rcm *crono.Reordered
	pl  interface {
		crono.Platform
		Close()
	}
	sc    *crono.Scratch
	truth *truth
	prRef []float64
}

func (w *kernelWorkload) passesPerRound() int { return 0 }

func (w *kernelWorkload) close() {
	if w.pl != nil {
		w.pl.Close()
	}
}

func (w *kernelWorkload) setup() error {
	r := w.r
	var err error
	if w.road {
		w.g = generate(r, crono.GraphRoadCA, r.sz.kernelRoadN)
		// The SNAP round trip is how a user's own graph gets in; the
		// arms run on the parsed copy.
		if w.g, err = snapRoundTrip(r, w.g); err != nil {
			return err
		}
		if _, err = reorder(r, w.g, crono.OrderDegree); err != nil {
			return err
		}
	} else {
		w.g = generate(r, crono.GraphSocial, r.sz.kernelSocialN)
	}
	if w.rcm, err = reorder(r, w.g, crono.OrderRCM); err != nil {
		return err
	}
	w.truth = newTruth(w.g, rand.New(rand.NewSource(r.opts.seed)))
	w.prRef = pageRankRef(w.g, pageRankIters)
	w.pl = crono.NewReusableNative()
	w.sc = crono.NewScratch()
	for _, a := range w.arms {
		w.op(a, 0, true)
	}
	return nil
}

func (w *kernelWorkload) pass(i int) {
	for _, a := range w.arms {
		w.op(a, i, false)
	}
}

// op runs one arm once and checks its output off the clock. Measured
// and traced-only ops are observed; the warm-up pass is only checked.
func (w *kernelWorkload) op(a arm, i int, full bool) {
	r := w.r
	var (
		res   *crono.RunResult
		batch *crono.BFSBatchResult
		rep   *crono.Report
		err   error
	)
	src := w.truth.source(i)
	start := time.Now()
	if a.batch {
		batch, err = crono.BFSBatch(w.pl, w.g, w.batchSources(i), r.p)
	} else {
		res, err = crono.Run(context.Background(), w.pl, a.kernel, w.request(a, src))
	}
	d := time.Since(start)
	if err == nil {
		if a.batch {
			rep, err = batch.Report, w.checkBatch(batch, full)
		} else {
			rep, err = res.Report, checkResult(w.g, w.truth, w.prRef, a.kernel, src, res, full)
		}
	}
	r.done(a.name, true, d, err)
	if full {
		return
	}

	op := r.newOp()
	root := r.span(op, 0, "bench", a.name, start, time.Since(start), 0)
	r.span(op, root, "core", a.name, start, d, int64(w.g.M()))
	r.observe("core."+a.name+".p50_ms", float64(d.Nanoseconds())/1e6)
	if rep != nil && rep.Breakdown.Total() > 0 {
		r.observe("core."+a.name+".sync_share",
			float64(rep.Breakdown[exec.CompSync])/float64(rep.Breakdown.Total()))
	}
}

func (w *kernelWorkload) request(a arm, src int) crono.RunRequest {
	req := crono.RunRequest{Threads: w.r.p, Strategy: a.strategy, Iters: pageRankIters, MaxPasses: commPasses, Scratch: w.sc}
	req.G, req.Source = w.g, src
	if a.rcm {
		req.Reorder = w.rcm
	}
	return req
}

// batchSources returns the 64 consecutive sources of pass i's batch.
func (w *kernelWorkload) batchSources(i int) []int {
	srcs := make([]int, crono.BFSBatchWidth)
	for k := range srcs {
		srcs[k] = w.truth.source(i*len(srcs) + k)
	}
	return srcs
}

func (w *kernelWorkload) checkBatch(b *crono.BFSBatchResult, full bool) error {
	for k, src := range b.Sources {
		if b.Visited[k] != w.truth.reach {
			return fmt.Errorf("source %d reached %d vertices, want %d", src, b.Visited[k], w.truth.reach)
		}
		// A quarter of the batch gets the edge-by-edge check: all 64
		// would dominate set-up without checking anything new.
		if full && k%16 == 0 {
			if err := checkBFS(w.g, src, b.Level[k], w.truth.reach); err != nil {
				return fmt.Errorf("source %d: %w", src, err)
			}
		}
	}
	return nil
}

// extras runs the traced-only arms and counts heap allocations per op
// of every arm on the warm platform.
func (w *kernelWorkload) extras() {
	arms := w.arms
	if !w.road {
		arms = append(arms[:len(arms):len(arms)], tracedArms...)
		for _, a := range tracedArms {
			w.op(a, 0, true)
			for i := 0; i < w.r.sz.pairedRuns; i++ {
				w.op(a, i, false)
			}
		}
	}
	const ops = 3
	var before, after runtime.MemStats
	for _, a := range arms {
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			if a.batch {
				crono.BFSBatch(w.pl, w.g, w.batchSources(i), w.r.p) //nolint:errcheck // checked in every pass
			} else {
				crono.Run(context.Background(), w.pl, a.kernel, w.request(a, w.truth.source(i))) //nolint:errcheck // checked in every pass
			}
		}
		runtime.ReadMemStats(&after)
		w.r.observe("core."+a.name+".allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops)
	}
}

// checkResult checks a kernel's payload against the benchmark's own
// answers: a cheap check on every op, the problem-level check when full
// is set. Reordered arms come back in original vertex ids, so the same
// checks prove them identical to the unordered arms.
func checkResult(g *crono.Graph, t *truth, prRef []float64, kernel string, src int, res *crono.RunResult, full bool) error {
	if res.Report == nil || res.Report.TotalInstructions() == 0 {
		return fmt.Errorf("report counts no instructions")
	}
	switch kernel {
	case "BFS":
		if res.BFS.Visited != t.reach {
			return fmt.Errorf("BFS from %d reached %d vertices, want %d", src, res.BFS.Visited, t.reach)
		}
		if full {
			return checkBFS(g, src, res.BFS.Level, t.reach)
		}
	case "SSSP_DIJK":
		if full {
			return checkSSSP(g, src, res.SSSP.Dist, t.reach)
		}
		if n := reachedCount(res.SSSP.Dist); n != t.reach {
			return fmt.Errorf("SSSP from %d reached %d vertices, want %d", src, n, t.reach)
		}
	case "CONN_COMP":
		if res.Components.Components != t.comps {
			return fmt.Errorf("%d components, want %d", res.Components.Components, t.comps)
		}
		if full && !slices.Equal(res.Components.Labels, t.labels) {
			return fmt.Errorf("component labels differ from union-find")
		}
	case "PageRank":
		if got, want := sum(res.PageRank.Ranks), sum(prRef); !closeTo(got, want) {
			return fmt.Errorf("PageRank mass %v, want %v", got, want)
		}
		if full {
			for v, rank := range res.PageRank.Ranks {
				if !closeTo(rank, prRef[v]) {
					return fmt.Errorf("rank[%d] = %v, want %v", v, rank, prRef[v])
				}
			}
		}
	case "COMM":
		c := res.Community
		if c.Communities < 1 || c.Communities > g.N || math.IsNaN(c.Modularity) {
			return fmt.Errorf("%d communities, modularity %v", c.Communities, c.Modularity)
		}
		if full {
			if q := crono.Modularity(g, c.Community); !closeTo(q, c.Modularity) {
				return fmt.Errorf("reported modularity %v, assignment has %v", c.Modularity, q)
			}
		}
	case "TRI_CNT":
		// The triangle total is checked by the caller, which owns the
		// reference count.
	default:
		return fmt.Errorf("no check for kernel %s", kernel)
	}
	return nil
}

// generate builds a graph of the run's seed and times it per edge.
func generate(r *run, kind crono.GraphKind, n int) *crono.Graph {
	var g *crono.Graph
	name := "road"
	if kind == crono.GraphSocial {
		name = "social"
	}
	d := r.timed("graph", "generate."+name, 0, func() { g = crono.GenerateGraph(kind, n, r.opts.seed) })
	r.observe("graph.generate_ns_per_edge."+name, float64(d.Nanoseconds())/float64(g.M()))
	return g
}

// reorder builds a vertex reordering and times it per edge.
func reorder(r *run, g *crono.Graph, o crono.Order) (*crono.Reordered, error) {
	var (
		ro  *crono.Reordered
		err error
	)
	d := r.timed("graph", "reorder."+string(o), int64(g.M()), func() { ro, err = crono.ReorderGraph(g, o) })
	r.observe("graph.reorder_"+string(o)+"_ns_per_edge", float64(d.Nanoseconds())/float64(g.M()))
	return ro, err
}

// snapText writes g as a SNAP edge list.
func snapText(g *crono.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := crono.WriteGraph(&buf, g); err != nil {
		return nil, fmt.Errorf("write SNAP: %w", err)
	}
	return buf.Bytes(), nil
}

// snapRoundTrip writes g as a SNAP edge list, parses it back (timed per
// edge) and returns the parsed copy, which must be the same graph.
func snapRoundTrip(r *run, g *crono.Graph) (*crono.Graph, error) {
	text, err := snapText(g)
	if err != nil {
		return nil, err
	}
	var parsed *crono.Graph
	d := r.timed("graph", "parse_snap", int64(g.M()), func() { parsed, err = crono.ReadGraph(bytes.NewReader(text)) })
	if err != nil {
		return nil, fmt.Errorf("parse SNAP: %w", err)
	}
	if parsed.Fingerprint() != g.Fingerprint() {
		return nil, fmt.Errorf("SNAP round trip changed the graph")
	}
	r.observe("graph.parse_snap_ns_per_edge", float64(d.Nanoseconds())/float64(g.M()))
	return parsed, nil
}
