package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"crono/internal/core"
	"crono/internal/graph"
	"crono/internal/native"
)

// This file implements cross-request run batching: concurrent /v1/run
// frontier BFS requests that differ only in source vertex — same graph
// version and thread count — can share one bit-parallel multi-source
// pass (core.BFSBatch) that is fanned back out per source.
//
// The batcher is work-conserving: the first request of a key opens a
// group and submits it to the worker pool at once, and later same-key
// requests join it only until a worker dequeues it. The collection
// window is therefore the queue wait — zero on an idle pool, as long as
// the backlog under saturation — and no request ever waits on a timer.
// At dequeue planBatch decides from the size of the group how its
// members run.
//
// The collector sits *inside* the result cache's compute path: each
// request still owns its per-source key in Cache.Do, so identical
// sources coalesce there and results are cached per source, exactly as
// for ungrouped runs.

// batchGroup accumulates the members of one group key between its
// submission to the pool and its dequeue.
type batchGroup struct {
	key     string
	members []*pending // their requests differ in Source only
}

// batcher holds the open groups: those a worker has not dequeued yet and
// that still have room. A group is keyed by everything in the run cache
// key except the source vertex, so members are guaranteed to want the
// same kernel on the same input with the same options.
type batcher struct {
	mu     sync.Mutex
	groups map[string]*batchGroup
}

// seal closes grp to further joiners and returns its members. Only the
// one owner of the group calls it: the worker that dequeued it, or the
// creator whose submission failed.
func (b *batcher) seal(grp *batchGroup) []*pending {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.groups[grp.key] == grp {
		delete(b.groups, grp.key)
	}
	return grp.members
}

// The constants planBatch decides by, each from a row of the sizing
// table in DESIGN.md §5b "Batching" (BFSBatch pass against single-source
// runs, 2 threads).
const (
	// breakEven: on social n=16384 a frontier run costs 1.0–1.3 ms, which
	// a pass that pulls its dense rounds undercuts from k=4 in every
	// session measured (0.52–0.76 ms per source).
	breakEven = 4
	// deepBFSDepth: on road-ca n=65536 (depth 65) one frontier run costs
	// ~5 ms; a pass costs 5.4 ms per source at k=16, and at k=64 2.9 per
	// source but 188 ms for every member, against ~160 ms on average for
	// 64 singles in a row. The shallow rows are 3–5 levels deep, the road
	// families 43–68; the bound sits between the two clusters.
	deepBFSDepth = 16
)

// planBatch decides how the k members of a group run, from the version's
// BFS depth estimate: one bit-parallel pass only when the version is
// shallow and k is at or above the break-even. The reason is echoed as
// "plan" in the reply.
func planBatch(k, depth int) (batch bool, reason string) {
	switch {
	case depth > deepBFSDepth:
		return false, fmt.Sprintf("single:deep(depth=%d)", depth)
	case k == 1:
		return false, "single:alone"
	case k < breakEven:
		return false, fmt.Sprintf("single:below-break-even(k=%d<%d)", k, breakEven)
	}
	return true, fmt.Sprintf("batch:k=%d", k)
}

// joinBatch enrolls the request in the open group of its plan's group
// key, opening and submitting one if there is none, and blocks until a
// worker delivers this source's reply or ctx expires. It runs inside
// Cache.Do's compute slot for the request's own per-source key, so its
// return value is cached per source like any other run reply.
func (s *Server) joinBatch(ctx context.Context, spec *runSpec, rp runPlan) (any, error) {
	m := newPending(ctx, spec, rp)
	key := rp.group

	b := s.batches
	b.mu.Lock()
	grp := b.groups[key]
	created := grp == nil
	if created {
		grp = &batchGroup{key: key}
		b.groups[key] = grp
	}
	grp.members = append(grp.members, m)
	if len(grp.members) == core.BFSBatchWidth {
		delete(b.groups, key) // full: the next same-key request opens a new group
	}
	b.mu.Unlock()

	if created {
		// The group outlives any one member's request, so it is queued
		// under no request's context.
		if err := s.pool.Submit(context.Background(), func() { s.runGroup(grp) }); err != nil {
			for _, o := range b.seal(grp) {
				o.ch <- runOut{err: err}
			}
		}
	}
	return s.await(m)
}

// runGroup is the dequeue of a group on a pool worker: it closes the
// group, answers members whose context is already done without running
// them, and runs the rest as planBatch decides. Singles run one after
// another on this worker — a group never re-enters the pool.
func (s *Server) runGroup(grp *batchGroup) {
	members := s.batches.seal(grp)
	live := members[:0]
	for _, m := range members {
		if err := m.ctx.Err(); err != nil {
			m.ch <- runOut{err: err}
			continue
		}
		live = append(live, m)
	}
	if len(live) == 0 {
		return
	}
	batch, plan := planBatch(len(live), live[0].spec.vf.BFSDepth())
	if batch {
		s.runPass(live, plan)
		return
	}
	for _, m := range live {
		m.rp.plan = plan
		m.ch <- s.runOne(m)
	}
}

// runPass executes one multi-source pass and fans the per-source results
// out to the members, settling each member's payload in member order. It
// runs under a server-owned context with the default deadline, so one
// member's cancellation never kills the traversal the others are waiting
// on.
func (s *Server) runPass(members []*pending, plan string) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultTimeout)
	defer cancel()
	sources := make([]int, len(members))
	for i, m := range members {
		sources[i] = m.spec.req.Source
	}
	first := members[0].spec
	s.inflight.Add(1)
	start := time.Now()
	res, err := core.BFSBatch(ctx, native.New(), first.in.G, sources, first.req.Threads)
	wall := time.Since(start)
	s.inflight.Add(-1)
	if err != nil {
		for _, m := range members {
			m.ch <- runOut{err: err}
		}
		return
	}
	name := first.bench.Name
	s.m.runs(name).Inc()
	s.m.latency(name, first.req.Platform).Observe(wall.Seconds())
	s.m.batchPasses.Inc()
	s.m.batched(name).Add(uint64(len(members)))
	for i, m := range members {
		resp := newRunResponse(m.spec, graph.OrderNone, res.Report, wall, start.Sub(m.accepted))
		resp.Batched, resp.Plan = true, plan
		s.m.queueWait(name).Observe(resp.QueueWaitSeconds)
		bfs := &core.BFSResult{Level: res.Level[i], Visited: res.Visited[i], Levels: res.Levels[i], Report: res.Report}
		s.settle(m, &core.Result{Report: res.Report, BFS: bfs})
		m.ch <- runOut{resp: resp}
	}
}
