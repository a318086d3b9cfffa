package core

import (
	"context"
	"fmt"

	"crono/internal/exec"
	"crono/internal/graph"
)

// This file threads graph reordering (internal/graph Reorder) through the
// typed Run path. The permutation contract: when Request.Reorder is set,
// the kernel executes over the permuted CSR — that is the whole point,
// neighbor scatter/gather lands on nearby cache lines — and every
// per-vertex payload is mapped back through the inverse permutation
// before it leaves the benchmark, so callers only ever observe original
// vertex ids. Schedule statistics (relaxations, rounds, iterations) and
// the platform report describe the permuted execution and are passed
// through unchanged. Benchmarks that are not Orderable ignore the
// ordering like any other option they do not consume.

type runFunc func(ctx context.Context, pl exec.Platform, req Request) (*Result, error)

// withReorder decorates an orderable benchmark's Run so a set
// Request.Reorder swaps in the permuted graph, maps the source/target
// vertices forward, and un-permutes the typed payload afterwards.
func withReorder(run runFunc) runFunc {
	return func(ctx context.Context, pl exec.Platform, req Request) (*Result, error) {
		ro := req.Reorder
		if ro == nil || req.G == nil {
			return run(ctx, pl, req)
		}
		if ro.G == nil || ro.G.N != req.G.N || len(ro.Perm) != req.G.N || len(ro.Inv) != req.G.N {
			return nil, fmt.Errorf("core: reorder maps do not match graph (n=%d)", req.G.N)
		}
		inner := req
		inner.Reorder = nil
		inner.G = ro.G
		if req.Source >= 0 && req.Source < req.G.N {
			inner.Source = int(ro.Perm[req.Source])
		}
		if req.Target >= 0 && req.Target < req.G.N {
			inner.Target = int(ro.Perm[req.Target])
		}
		res, err := run(ctx, pl, inner)
		if err != nil {
			return nil, err
		}
		unpermuteResult(res, ro.Inv)
		return res, nil
	}
}

// unpermuteResult restores every per-vertex payload slice of res to the
// original vertex labeling: out[v] = in[Perm[v]], i.e.
// ApplyVertexPermutation with the inverse map. Fresh slices are
// installed, so scratch-owned kernel buffers are never aliased by
// returned results.
func unpermuteResult(res *Result, inv []int32) {
	switch {
	case res.BFS != nil:
		res.BFS.Level = graph.ApplyVertexPermutation(res.BFS.Level, inv)
	case res.SSSP != nil:
		res.SSSP.Dist = graph.ApplyVertexPermutation(res.SSSP.Dist, inv)
	case res.DFS != nil:
		res.DFS.Visited = graph.ApplyVertexPermutation(res.DFS.Visited, inv)
	case res.Components != nil:
		res.Components.Labels = canonicalLabels(res.Components.Labels, inv)
	case res.Triangles != nil:
		res.Triangles.PerVertex = graph.ApplyVertexPermutation(res.Triangles.PerVertex, inv)
	case res.PageRank != nil:
		res.PageRank.Ranks = graph.ApplyVertexPermutation(res.PageRank.Ranks, inv)
	case res.Brandes != nil:
		res.Brandes.Centrality = graph.ApplyVertexPermutation(res.Brandes.Centrality, inv)
	case res.BFSTarget != nil:
		// Scalar payload: Found/Level/Explored are label-invariant.
	}
}

// canonicalLabels un-permutes component labels. Positions move through
// the inverse map like any other payload, but label values are vertex
// ids too — on the permuted graph they converge to the minimum
// *permuted* id of each component, which is generally not the minimum
// original id. A single ascending sweep fixes that: the first original
// vertex seen with a given raw label is, by construction, the smallest
// original id in that component, so it becomes the canonical
// representative. The result is bit-identical to an unordered run.
func canonicalLabels(labels []int32, inv []int32) []int32 {
	byPos := graph.ApplyVertexPermutation(labels, inv)
	rep := make([]int32, len(labels))
	for i := range rep {
		rep[i] = -1
	}
	out := make([]int32, len(byPos))
	for v, l := range byPos {
		if rep[l] == -1 {
			rep[l] = int32(v)
		}
		out[v] = rep[l]
	}
	return out
}
