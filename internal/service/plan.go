package service

import (
	"fmt"
	"net/http"
	"time"

	"crono/internal/core"
	"crono/internal/graph"
	"crono/internal/sim"
)

// runSpec is a validated run request (validateRun): defaults filled in,
// the strategy canonical, and what the request resolved to.
type runSpec struct {
	req     runRequest
	bench   core.Benchmark
	vf      *forms     // the input version's materialization, held until the run ends; nil for TSP
	in      core.Input // the kernel input, in original vertex ids
	sim     sim.Config // the machine a sim run builds
	timeout time.Duration
}

// runError is a rejected run request: the status and catalogued code it
// is answered with.
type runError struct {
	status int
	code   string
	msg    string
}

func badRun(status int, code, format string, args ...any) *runError {
	return &runError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// validateRun checks a decoded run request against the server's limits
// and resolves its input. The checks run in a fixed order, so a request
// with several faults is always answered with the same code.
func (s *Server) validateRun(req runRequest) (*runSpec, *runError) {
	bench, err := core.ByName(req.Kernel)
	if err != nil {
		return nil, badRun(http.StatusBadRequest, codeUnknownKernel, "%v", err)
	}
	if req.Platform == "" {
		req.Platform = "native"
	}
	if req.Platform != "native" && req.Platform != "sim" {
		return nil, badRun(http.StatusBadRequest, codeUnknownPlatform,
			"unknown platform %q (want native or sim)", req.Platform)
	}
	if req.Strategy == "" {
		req.Strategy = string(core.StrategyFrontier)
	}
	if !core.Strategy(req.Strategy).Valid() {
		return nil, badRun(http.StatusBadRequest, codeUnknownStrategy,
			"unknown strategy %q (want %q or %q)",
			req.Strategy, core.StrategyScan, core.StrategyFrontier)
	}
	// From here on the request names the strategy it executes as, so an
	// alias shares the cache entry, batch group and repair of its target.
	req.Strategy = string(core.Strategy(req.Strategy).Canonical())
	if req.Order != "" && req.Order != "auto" && !graph.Order(req.Order).Valid() {
		return nil, badRun(http.StatusBadRequest, codeUnknownOrder,
			"unknown order %q (want %q, %q, %q or %q)",
			req.Order, graph.OrderNone, "auto", graph.OrderDegree, graph.OrderRCM)
	}
	if req.Threads == 0 {
		req.Threads = 8
	}
	if req.Threads < 1 || req.Threads > s.cfg.MaxThreads {
		return nil, badRun(http.StatusBadRequest, codeThreadsOutOfRange,
			"threads %d out of range [1, %d]", req.Threads, s.cfg.MaxThreads)
	}
	if req.Iters < 0 || req.MaxPasses < 0 || req.Delta < 0 {
		return nil, badRun(http.StatusBadRequest, codeBadParams,
			"iters, maxPasses and delta must be >= 0 (0 = default)")
	}
	if req.TimeoutMS < 0 {
		return nil, badRun(http.StatusBadRequest, codeBadParams,
			"timeoutMs %d must be >= 0 (0 = server default)", req.TimeoutMS)
	}
	spec := &runSpec{bench: bench, in: core.Input{Source: req.Source}, timeout: s.cfg.DefaultTimeout}
	if req.TimeoutMS > 0 {
		spec.timeout = time.Duration(min(int64(req.TimeoutMS), s.cfg.MaxTimeout.Milliseconds())) * time.Millisecond
	}
	if req.Platform == "sim" {
		if req.SimCores == 0 {
			req.SimCores = s.cfg.SimCores
		}
		if req.Threads > req.SimCores {
			return nil, badRun(http.StatusBadRequest, codeSimThreadOverflow,
				"threads %d exceed %d simulated cores", req.Threads, req.SimCores)
		}
		spec.sim = sim.Default()
		spec.sim.Cores = req.SimCores
		if req.OutOfOrder {
			spec.sim.CoreType = sim.OutOfOrder
		}
		if err := spec.sim.Validate(); err != nil || req.SimCores > sim.Default().Cores {
			return nil, badRun(http.StatusBadRequest, codeSimCoresOutOfRange,
				"simCores %d: want a perfect square in [%d, %d]", req.SimCores, spec.sim.MemControllers, sim.Default().Cores)
		}
	}
	spec.req = req

	if bench.UsesCities {
		if req.Cities < 3 || req.Cities > 20 {
			return nil, badRun(http.StatusBadRequest, codeCitiesOutOfRange,
				"cities %d out of range [3, 20] for TSP", req.Cities)
		}
		spec.in.Cities = graph.Cities(req.Cities, req.Seed)
		return spec, nil
	}
	_, ver, ok := s.store.Resolve(req.Graph)
	if !ok {
		return nil, badRun(http.StatusNotFound, codeGraphNotFound,
			"graph %q not found (POST /v1/graphs first)", req.Graph)
	}
	vf := ver.materialize()
	g := vf.g
	if req.Source < 0 || req.Source >= g.N {
		return nil, badRun(http.StatusBadRequest, codeSourceOutOfRange,
			"source %d out of range [0, %d)", req.Source, g.N)
	}
	if bench.UsesMatrix {
		if g.N > s.cfg.MaxDenseVertices {
			return nil, badRun(http.StatusUnprocessableEntity, codeDenseTooLarge,
				"%s needs a dense O(N²) matrix; graph has %d vertices, limit %d",
				bench.Name, g.N, s.cfg.MaxDenseVertices)
		}
		spec.in.D = vf.Dense()
	} else {
		spec.in.G = g
	}
	spec.vf = vf
	return spec, nil
}

// runPlan is how one validated run executes (planRun).
type runPlan struct {
	order graph.Order      // resolved vertex ordering, OrderNone if unordered
	prev  *core.Result     // parent version's result to Repair; nil for a fresh run
	delta *graph.EdgeDelta // the delta from that version to this one
	keep  bool             // the result is offered as its lineage's repair seed (StoredGraph.offerSeed)
	join  bool             // the run goes to its batch group
	plan  string           // the batch decision echoed in the reply, "" for a shape that never batches
	key   string           // result-cache key
	group string           // batch-group key, set when join
}

// planRun makes every decision about a validated run that depends on more
// than the request — the resolved ordering, whether it repairs its parent
// version's result, whether it joins a batch group — and derives every
// key from them; handleRun only executes the plan. vf is the input
// version's materialization (nil for TSP). It is pure: besides its
// arguments it reads only the version's memoized statistics and its
// lineage's repair seed. Each rule is stated once:
//
//   - An ordering applies only to an Orderable kernel; any other run is
//     unordered and shares the unordered cache entry. "auto" resolves per
//     version, so it shares the entry of the order it resolves to.
//   - A run keeps its result as its lineage's repair seed only when it is
//     a frontier run (scan stays paper-faithful full recompute), unordered
//     (the payload is in original ids and a repair would walk the
//     permuted CSR) and of a kernel with a Repair; the seed is the newest
//     such result on the head (StoredGraph.offerSeed). No other run's
//     payload outlives its reply.
//   - A run repairs its parent's result only when it would keep its own,
//     on a version whose delta core.RepairPays accepts, and the lineage's
//     seed is the parent version's result for the same request. Which
//     deltas a kernel can repair is the kernel's answer
//     (core.Benchmark.RepairOrRun), not the planner's.
//   - Only a native frontier BFS that is neither ordered nor a repair
//     joins a batch group: a sim run is a timing experiment unrelated
//     sources would corrupt, a pass runs over the original layout, and a
//     repair is seeded from one parent result. It joins only when a full
//     group would run as a pass on its version (planBatch).
//   - Sim-only knobs (simCores, outOfOrder) are not part of a native key.
func planRun(bench core.Benchmark, req *runRequest, vf *forms) runPlan {
	p := runPlan{order: graph.OrderNone}
	kr := *req // the request as its keys see it
	if kr.Platform == "native" {
		kr.SimCores, kr.OutOfOrder = 0, false
	}
	key := func(input string, src int, ord graph.Order) string {
		kr.Source = src
		return runCacheKey(input, bench, &kr, ord)
	}
	if vf == nil {
		p.key = key(fmt.Sprintf("tsp:n=%d:seed=%d", req.Cities, req.Seed), req.Source, p.order)
		return p
	}
	ver := vf.ver
	if bench.Orderable && req.Order != "" && req.Order != string(graph.OrderNone) {
		if p.order = graph.Order(req.Order); req.Order == "auto" {
			p.order = vf.AutoOrder()
		}
	}
	p.key = key(ver.ID, req.Source, p.order)
	unordered := p.order == graph.OrderNone
	frontier := req.Strategy == string(core.StrategyFrontier)
	p.keep = frontier && unordered && bench.Repair != nil
	if p.keep && core.RepairPays(ver.Delta, vf.g.M()) {
		p.prev, p.delta = ver.lineage.seed(bench.Name, key(ver.Parent, req.Source, graph.OrderNone)), ver.Delta
	}
	if bench.Name == "BFS" && req.Platform == "native" && frontier && unordered && p.prev == nil {
		p.join, p.plan = planBatch(core.BFSBatchWidth, vf.BFSDepth())
		if p.join {
			p.group = key(ver.ID, -1, graph.OrderNone)
		}
	}
	return p
}
