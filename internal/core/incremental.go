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
// forest. Benchmark.Repair wraps them behind RepairPays; a repair that
// declines a delta returns ErrNoIncremental.

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

// gateRepair applies what every Repair shares: a delta RepairPays
// declines is ErrNoIncremental, and the options take their defaults.
func gateRepair(repair repairFunc) repairFunc {
	return func(ctx context.Context, pl exec.Platform, req Request, prev *Result, d *graph.EdgeDelta) (*Result, error) {
		if req.G == nil || prev == nil || !RepairPays(d, req.G.M()) {
			return nil, ErrNoIncremental
		}
		return repair(ctx, pl, req.WithDefaults(), prev, d)
	}
}

// checkDelta rejects a nil delta or one naming a vertex outside [0,n).
// The repairs index per-vertex arrays by delta endpoints, and the public
// facade hands them deltas that never went through Canonicalize.
func checkDelta(d *graph.EdgeDelta, n int) error {
	if d == nil {
		return errors.New("core: nil edge delta")
	}
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

// BFSIncremental repairs a BFS result after an edge delta: g is the
// post-delta graph, oldLevel the pre-delta levels from the same source.
// Levels below the repair cutoff are provably unchanged (see
// repairCutoff), so the kernel resets only levels at or beyond it and
// re-runs the frontier BFS seeded with the last intact level. Because
// BFS levels are uniquely determined by graph and source, the repaired
// result is bit-identical to a full recompute on g — the property test
// in incremental_test.go pins this across the generator matrix.
func BFSIncremental(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int, oldLevel []int32, d *graph.EdgeDelta) (*BFSResult, error) {
	return bfsIncremental(goCtx, pl, g, src, threads, oldLevel, d, &Scratch{DetachResults: true})
}

// bfsIncremental is BFSIncremental on a scratch workspace.
func bfsIncremental(goCtx context.Context, pl exec.Platform, g *graph.CSR, src, threads int, oldLevel []int32, d *graph.EdgeDelta, s *Scratch) (*BFSResult, error) {
	if err := validate(g, src, threads); err != nil {
		return nil, err
	}
	if err := checkDelta(d, g.N); err != nil {
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

// ComponentsIncremental repairs a connected-components labeling after an
// insert-only edge delta: g is the post-delta graph, oldLabels the
// pre-delta labels. The old labels are already a union-find forest of
// depth one — every vertex points at its component's least vertex, a
// root — so the repair is Afforest's link and compress over that forest:
// the threads link the endpoints of their share of the inserted edges
// and, only if some link merged two components, compress every label to
// its new root. It never reads an adjacency list, so a directed graph
// needs no transpose, and min-hooking makes the labels bit-identical to a
// full run. Deltas with deletes return ErrNoIncremental: removing an edge
// can split a component, which a union cannot undo.
func ComponentsIncremental(goCtx context.Context, pl exec.Platform, g *graph.CSR, threads int, oldLabels []int32, d *graph.EdgeDelta) (*ComponentsResult, error) {
	if err := validate(g, 0, threads); err != nil {
		return nil, err
	}
	if err := checkDelta(d, g.N); err != nil {
		return nil, err
	}
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
	k := &afforestRun{g: g, threads: threads, parent: append([]int32(nil), oldLabels...)}
	k.rPar = pl.Alloc("ccaf.parent", g.N, 4)
	k.bar = pl.NewBarrier(threads)
	rep, err := pl.RunCtx(goCtx, threads, func(ctx exec.Ctx) { k.repair(ctx, d.Inserts) })
	if err != nil {
		return nil, err
	}
	return &ComponentsResult{Labels: k.parent, Components: countRoots(k.parent), Iterations: 1, Report: rep}, nil
}
