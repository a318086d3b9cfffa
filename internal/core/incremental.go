package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"crono/internal/exec"
	"crono/internal/graph"
)

// This file implements incremental recompute for the dynamic-graph
// subsystem: kernels that repair a previous result after an edge delta
// instead of recomputing from scratch. Each validates its inputs, derives
// a seed state from the previous version's result and the delta, and
// hands it to the run state of the full frontier kernel: the BFS repair
// seeds its worklist, the CONN_COMP repair seeds Afforest's union-find
// forest. Benchmark.Repair is the only way in, gated by RepairPays and
// run on the request's Scratch; RepairOrRun falls back to a fresh Run.

// ErrNoIncremental reports that a kernel has no incremental repair for
// the given delta shape; callers fall back to full recompute.
var ErrNoIncremental = errors.New("core: no incremental form for this delta")

// incrementalMaxDeltaRatio gates repair by delta size: a delta touching
// more than 1/8 of the edges tends to invalidate enough of the old
// result that the repair frontier approaches the full frontier, and the
// seeding overhead stops paying for itself.
const incrementalMaxDeltaRatio = 8

// RepairPays reports whether a repair can pay for a delta d against a
// graph of edges directed edges: d is non-empty and |d|·8 ≤ edges.
// Beyond that, full recompute wins for every kernel.
func RepairPays(d *graph.EdgeDelta, edges int) bool {
	return d != nil && d.Size() > 0 && d.Size()*incrementalMaxDeltaRatio <= edges
}

type repairFunc func(ctx context.Context, pl exec.Platform, req Request, prev *Result, d *graph.EdgeDelta) (*Result, error)

// gateRepair builds a Repair from a typed repair as dispatch builds Run:
// a delta RepairPays declines is ErrNoIncremental, one naming a vertex
// outside the graph an error; then defaults, repair, wrapPayload.
func gateRepair[T any](set func(*Result, T), repair func(context.Context, exec.Platform, Request, *Result, *graph.EdgeDelta) (T, error)) repairFunc {
	return func(ctx context.Context, pl exec.Platform, req Request, prev *Result, d *graph.EdgeDelta) (*Result, error) {
		if req.G == nil || prev == nil || !RepairPays(d, req.G.M()) {
			return nil, ErrNoIncremental
		}
		if err := checkDelta(d, req.G.N); err != nil {
			return nil, err
		}
		req = req.WithDefaults()
		r, err := repair(ctx, pl, req, prev, d)
		return wrapPayload(req.Scratch, set, r, err)
	}
}

// RepairOrRun returns Run's result for req, repaired from prev across d
// where b's Repair takes d and by Run otherwise; repaired reports which.
func (b Benchmark) RepairOrRun(ctx context.Context, pl exec.Platform, req Request, prev *Result, d *graph.EdgeDelta) (res *Result, repaired bool, err error) {
	if b.Repair != nil {
		if res, err = b.Repair(ctx, pl, req, prev, d); !errors.Is(err, ErrNoIncremental) {
			return res, err == nil, err
		}
	}
	res, err = b.Run(ctx, pl, req)
	return res, false, err
}

// checkDelta rejects a delta naming a vertex outside [0,n). The repairs
// index per-vertex arrays by delta endpoints, and the public facade hands
// them deltas that never went through Canonicalize.
func checkDelta(d *graph.EdgeDelta, n int) error {
	for _, es := range [2][]graph.Edge{d.Inserts, d.Deletes} {
		for _, e := range es {
			if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
				return fmt.Errorf("core: delta edge %d->%d outside [0,%d)", e.From, e.To, n)
			}
		}
	}
	return nil
}

// repairCutoff returns the smallest BFS level that an edge delta can
// influence: min over delta edges (u,v) with oldLevel[u] >= 0 of
// oldLevel[u]+1, or MaxInt32 when no delta edge leaves a reachable
// vertex. Any source-to-x path that crosses a delta edge is at least
// this long at its first crossing, so every vertex with an old level
// below the cutoff keeps its exact level.
func repairCutoff(oldLevel []int32, d *graph.EdgeDelta) int32 {
	cut := int32(math.MaxInt32)
	for _, es := range [2][]graph.Edge{d.Inserts, d.Deletes} {
		for _, e := range es {
			if l := oldLevel[e.From]; l >= 0 && l+1 < cut {
				cut = l + 1
			}
		}
	}
	return cut
}

// bfsIncremental repairs a BFS result after an edge delta: g is the
// post-delta graph, oldLevel the pre-delta levels from the same source.
// Levels below the repair cutoff are provably unchanged (see
// repairCutoff), so the kernel resets only levels at or beyond it and
// re-runs the frontier BFS seeded with the last intact level. Because
// BFS levels are uniquely determined by graph and source, the repaired
// result is bit-identical to a full recompute on g — the property test
// in incremental_test.go pins this across the generator matrix. oldLevel
// may be s's own level array.
func bfsIncremental(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int, oldLevel []int32, d *graph.EdgeDelta, s *Scratch) (*BFSResult, error) {
	if err := validate(g, src, threads); err != nil {
		return nil, err
	}
	if len(oldLevel) != g.N {
		return nil, fmt.Errorf("core: seed levels for %d vertices, graph has %d", len(oldLevel), g.N)
	}
	if oldLevel[src] != 0 {
		return nil, fmt.Errorf("core: seed has source %d at level %d, want 0", src, oldLevel[src])
	}
	// Keep the levels below the cutoff, reset the suspect region and seed
	// the frontier with the last level known exact (ascending, so the seed
	// is deterministic). When no delta edge leaves a reachable vertex the
	// cutoff is MaxInt32: nothing is reset, the seed is empty and the run
	// ends after one empty round with every level untouched.
	cut := repairCutoff(oldLevel, d)
	k := s.bfsFrontier()
	k.level = grow32(k.level, g.N, s.DetachResults)
	k.wl.prepare(threads, 0)
	for v, l := range oldLevel {
		switch {
		case l >= cut:
			l = -1
		case l == cut-1:
			k.wl.seed(int32(v))
		}
		k.level[v] = l
	}
	return k.execute(goCtx, pl, g, threads, cut-1, s)
}

// componentsIncremental repairs a connected-components labeling after
// an insert-only edge delta: g is the post-delta graph, oldLabels (which
// may be s's own) the pre-delta labels, already a union-find forest of
// depth one. The repair is Afforest's link and compress over it on the
// scratch's Afforest state (afforestRun.repair). It reads no adjacency
// list, so a directed graph needs no transpose, and min-hooking makes
// the labels bit-identical to a full run. A delete can split a
// component, which a union cannot undo: ErrNoIncremental.
func componentsIncremental(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int, oldLabels []int32, d *graph.EdgeDelta, s *Scratch) (*ComponentsResult, error) {
	if len(d.Deletes) != 0 {
		return nil, ErrNoIncremental
	}
	if len(oldLabels) != g.N {
		return nil, fmt.Errorf("core: seed labels for %d vertices, graph has %d", len(oldLabels), g.N)
	}
	// A label above its vertex or naming a non-root would let a find chase
	// a cycle; min-id component labels satisfy neither.
	for v, l := range oldLabels {
		if l < 0 || int(l) > v || oldLabels[l] != l {
			return nil, fmt.Errorf("core: seed label %d of vertex %d is not the least vertex of a component", l, v)
		}
	}
	k := s.afforest()
	k.g, k.threads, k.inserts, k.hooked = g, threads, d.Inserts, 0
	k.parent = grow32(k.parent, g.N, s.DetachResults)
	copy(k.parent, oldLabels)
	k.rPar = pl.Alloc("ccaf.parent", g.N, 4)
	k.bar = s.barrierFor(pl, threads)
	if k.repairBody == nil {
		k.repairBody = k.repair
	}
	rep, err := s.run(goCtx, pl, threads, k.repairBody)
	if err != nil {
		return nil, err
	}
	return k.result(rep, 1, s), nil
}
