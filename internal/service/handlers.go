package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/native"
	"crono/internal/sim"
)

// ---- wire types ----

// graphRequest creates a graph: either a generated family (kind/n/seed) or
// an uploaded file (format/data).
type graphRequest struct {
	// Generated inputs (Table III families).
	Kind string `json:"kind,omitempty"`
	N    int    `json:"n,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	// Uploaded inputs: format is "snap", "mtx" or "metis"; data is the
	// file content.
	Format string `json:"format,omitempty"`
	Data   string `json:"data,omitempty"`
}

// graphResponse describes a resident graph at one version (the head,
// unless the request named a version explicitly).
type graphResponse struct {
	ID string `json:"id"`
	// Version is the resolved version ID; Versions counts the lineage.
	Version     string  `json:"version"`
	Versions    int     `json:"versions"`
	Fingerprint string  `json:"fingerprint"`
	Desc        string  `json:"desc"`
	N           int     `json:"n"`
	M           int     `json:"m"`
	AvgDegree   float64 `json:"avgDegree"`
	MaxDegree   int     `json:"maxDegree"`
}

// edgeSpec is one edge mutation in a patch request. An insert with no
// weight gets weight 1, as a SNAP line with no weight column does; an
// explicit "weight":0 stays 0.
type edgeSpec struct {
	From   int32  `json:"from"`
	To     int32  `json:"to"`
	Weight *int32 `json:"weight,omitempty"`
}

// edge is the graph edge e names, its absent weight read as 1.
func (e edgeSpec) edge() graph.Edge {
	w := int32(1)
	if e.Weight != nil {
		w = *e.Weight
	}
	return graph.Edge{From: e.From, To: e.To, Weight: w}
}

// patchRequest mutates a graph: validated edge insert/delete batches,
// optionally pinned to an expected parent version (optimistic
// concurrency control — see handlePatch).
type patchRequest struct {
	Inserts []edgeSpec `json:"inserts,omitempty"`
	Deletes []edgeSpec `json:"deletes,omitempty"`
	// Parent pins the version this patch expects to apply to. Empty means
	// "the current head, whatever it is".
	Parent string `json:"parent,omitempty"`
}

// patchResponse reports the version a patch produced (or replayed).
type patchResponse struct {
	Graph   string `json:"graph"`
	Version string `json:"version"`
	Parent  string `json:"parent"`
	Ordinal int    `json:"ordinal"`
	// DeltaSize is the number of mutations applied from the parent.
	DeltaSize int `json:"deltaSize"`
	// Replayed is true when an identical patch (same parent, same delta)
	// had already been applied and the stored version is returned —
	// idempotent retry semantics.
	Replayed    bool   `json:"replayed,omitempty"`
	Fingerprint string `json:"fingerprint"`
}

// graphSummary is one row of the paged graph listing.
type graphSummary struct {
	ID       string `json:"id"`
	Desc     string `json:"desc"`
	N        int    `json:"n"`
	Versions int    `json:"versions"`
	Head     string `json:"head"`
}

// graphListResponse is the paged GET /v1/graphs body.
type graphListResponse struct {
	Graphs []graphSummary `json:"graphs"`
	Total  int            `json:"total"`
	Offset int            `json:"offset"`
	Limit  int            `json:"limit"`
}

// versionInfo is one lineage entry of GET /v1/graphs/{id}/versions.
type versionInfo struct {
	ID          string `json:"id"`
	Parent      string `json:"parent,omitempty"`
	Ordinal     int    `json:"ordinal"`
	DeltaSize   int    `json:"deltaSize"`
	Fingerprint string `json:"fingerprint"`
	// ResidentBytes is the memory of the CSR and derived forms the
	// version holds: 0 unless it is the lineage's root or head.
	ResidentBytes int64 `json:"residentBytes"`
}

// versionsResponse is the lineage listing, root first.
type versionsResponse struct {
	Graph    string        `json:"graph"`
	Head     string        `json:"head"`
	Versions []versionInfo `json:"versions"`
}

// runRequest executes one kernel.
type runRequest struct {
	// Graph references the input: a graph ID ("g…", resolving to the
	// lineage head) or a version ID ("v…", pinning an exact version).
	// Unused by TSP.
	Graph string `json:"graph,omitempty"`
	// Kernel is the paper identifier, e.g. "BFS" or "SSSP_DIJK".
	Kernel string `json:"kernel"`
	// Platform is "native" (default) or "sim".
	Platform string `json:"platform,omitempty"`
	// Strategy is "scan" or "frontier" for the kernels with multiple
	// executions; "hybrid" is accepted as a name for "frontier". The
	// serving layer defaults to "frontier" (fast path); paper-fidelity
	// experiments should pass "scan" explicitly.
	Strategy string `json:"strategy,omitempty"`
	// Order requests a cache-aware vertex reordering: "none" (default),
	// "degree" (hub packing), "rcm" (bandwidth reduction) or "auto" (pick
	// from the graph's degree skew). The reordered CSR is materialized
	// lazily per graph version and memoized while the version is its
	// lineage's root or head; results always come back in
	// original vertex ids (the kernel un-permutes before returning).
	// Kernels without a label-invariant result (COMM) and non-CSR inputs
	// ignore it.
	Order   string `json:"order,omitempty"`
	Threads int    `json:"threads,omitempty"`
	// Source is the start vertex of SSSP/BFS/DFS.
	Source int `json:"source,omitempty"`
	// Iters bounds PageRank iterations (0 = kernel default).
	Iters int `json:"iters,omitempty"`
	// MaxPasses bounds COMM move sweeps (0 = kernel default).
	MaxPasses int `json:"maxPasses,omitempty"`
	// Delta is the bucket width of SSSP_DIJK's frontier strategy (0 =
	// AutoSSSPDelta of the graph). It has no effect on a unit-weight
	// graph.
	Delta int32 `json:"delta,omitempty"`
	// Cities and Seed parametrize TSP, which takes no graph.
	Cities int   `json:"cities,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	// SimCores overrides the simulated tile count (a perfect square, at most 256).
	SimCores int `json:"simCores,omitempty"`
	// OutOfOrder selects the out-of-order core model on sim.
	OutOfOrder bool `json:"outOfOrder,omitempty"`
	// TimeoutMS bounds this request; 0 means the server default.
	TimeoutMS int `json:"timeoutMs,omitempty"`
}

// runResponse reports one kernel execution (or cached result).
type runResponse struct {
	Kernel   string `json:"kernel"`
	Platform string `json:"platform"`
	Threads  int    `json:"threads"`
	// Graph and GraphVersion name the exact input the result was computed
	// on. GraphVersion is the resolved version even when the request used
	// the graph ID: the contract that a cached result is never served for
	// a version other than the one named here.
	Graph        string `json:"graph,omitempty"`
	GraphVersion string `json:"graphVersion,omitempty"`
	// Incremental is true when the result was repaired from the parent
	// version's result (its lineage's repair seed) instead of recomputed
	// from scratch.
	Incremental bool `json:"incremental,omitempty"`
	// Cached is true when the result came from the LRU or an in-flight
	// coalesced computation rather than a fresh kernel execution.
	Cached bool `json:"cached"`
	// Batched is true when the result was computed by a shared
	// multi-source kernel pass that coalesced this request with other
	// queued sources on the same graph version.
	Batched bool `json:"batched,omitempty"`
	// Plan is the batcher's decision for a BFS of the shape that batches,
	// with its reason (see planBatch), e.g. "single:alone" or "batch:k=28".
	Plan string `json:"plan,omitempty"`
	// Order is the resolved vertex ordering the kernel ran under ("auto"
	// resolves to the concrete policy). Omitted for unordered runs.
	Order string `json:"order,omitempty"`
	// TimeUnit is "cycles" on sim, "ns" on native.
	TimeUnit          string            `json:"timeUnit"`
	Time              uint64            `json:"time"`
	TotalInstructions uint64            `json:"totalInstructions"`
	Variability       float64           `json:"variability"`
	Breakdown         map[string]uint64 `json:"breakdown"`
	// WallSeconds is the service-side execution latency of the kernel.
	WallSeconds float64 `json:"wallSeconds"`
	// QueueWaitSeconds is the time from the handler accepting the compute
	// to the kernel starting: the pool queue, including any time in an
	// open batch group. Cached replies repeat the original run's value.
	QueueWaitSeconds float64        `json:"queueWaitSeconds"`
	Sim              *simRunDetails `json:"sim,omitempty"`
}

// simRunDetails carries simulator-only statistics.
type simRunDetails struct {
	L1DMissRatePct       float64            `json:"l1dMissRatePct"`
	HierarchyMissRatePct float64            `json:"hierarchyMissRatePct"`
	EnergyPJ             map[string]float64 `json:"energyPJ"`
	NetworkFlitHops      uint64             `json:"networkFlitHops"`
}

type kernelInfo struct {
	Name            string `json:"name"`
	Parallelization string `json:"parallelization"`
	Input           string `json:"input"`
}

// ---- helpers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeError(w, http.StatusBadRequest, codeBadJSON, "invalid request body: %v", err)
		}
		return false
	}
	return true
}

func graphToResponse(sg *StoredGraph, v *Version) graphResponse {
	g := v.Graph()
	return graphResponse{
		ID:          sg.ID,
		Version:     v.ID,
		Versions:    sg.VersionCount(),
		Fingerprint: fmt.Sprintf("%016x", v.Fingerprint),
		Desc:        sg.Desc,
		N:           g.N,
		M:           g.M(),
		AvgDegree:   g.AvgDegree(),
		MaxDegree:   g.MaxDegree(),
	}
}

// runCacheKey builds the result-cache key. inputKey is the resolved
// version ID for graph kernels (the lineage fingerprint makes per-version
// results safe with zero invalidation), or the TSP parameter string. ord
// is the *resolved* ordering, so "auto" shares cache entries with the
// concrete policy it resolves to (results are identical by the
// permutation contract, but the schedule statistics differ, hence the
// key split from "none").
func runCacheKey(inputKey string, bench core.Benchmark, req *runRequest, ord graph.Order) string {
	return fmt.Sprintf("run|%s|%s|%s|st=%s|ord=%s|t=%d|src=%d|it=%d|mp=%d|dl=%d|cores=%d|ooo=%t",
		inputKey, bench.Name, req.Platform, req.Strategy, ord, req.Threads, req.Source,
		req.Iters, req.MaxPasses, req.Delta, req.SimCores, req.OutOfOrder)
}

// ---- handlers ----

func (s *Server) handleGraphCreate(w http.ResponseWriter, r *http.Request) {
	var req graphRequest
	if !s.decode(w, r, &req) {
		return
	}
	var (
		g    *graph.CSR
		desc string
		err  error
	)
	switch {
	case req.Format != "" && req.Kind != "":
		writeError(w, http.StatusBadRequest, codeConflictingInput,
			"specify either kind (generate) or format (upload), not both")
		return
	case req.Format != "":
		rd := strings.NewReader(req.Data)
		switch req.Format {
		case "snap":
			g, err = graph.ReadEdgeList(rd, s.cfg.MaxVertices)
		case "mtx":
			g, err = graph.ReadMatrixMarket(rd, s.cfg.MaxVertices)
		case "metis":
			g, err = graph.ReadMETIS(rd, s.cfg.MaxVertices)
		default:
			writeError(w, http.StatusBadRequest, codeUnknownFormat,
				"unknown format %q (want snap, mtx or metis)", req.Format)
			return
		}
		if errors.Is(err, graph.ErrTooManyVertices) {
			writeError(w, http.StatusRequestEntityTooLarge, codeGraphTooLarge, "parse %s input: %v", req.Format, err)
			return
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, codeParseFailed, "parse %s input: %v", req.Format, err)
			return
		}
		desc = "uploaded:" + req.Format
	case req.Kind != "":
		if !graph.KnownKind(graph.Kind(req.Kind)) {
			writeError(w, http.StatusBadRequest, codeUnknownKind, "unknown graph kind %q", req.Kind)
			return
		}
		if req.N < 2 || req.N > s.cfg.MaxVertices {
			writeError(w, http.StatusBadRequest, codeNOutOfRange,
				"n %d out of range [2, %d]", req.N, s.cfg.MaxVertices)
			return
		}
		g = graph.Generate(graph.Kind(req.Kind), req.N, req.Seed)
		desc = "generated:" + req.Kind
	default:
		writeError(w, http.StatusBadRequest, codeMissingInput,
			"specify kind (generate) or format (upload)")
		return
	}
	if g.N == 0 {
		writeError(w, http.StatusBadRequest, codeEmptyGraph, "graph has no vertices")
		return
	}
	if g.N > s.cfg.MaxVertices {
		writeError(w, http.StatusRequestEntityTooLarge, codeGraphTooLarge,
			"graph has %d vertices, limit %d", g.N, s.cfg.MaxVertices)
		return
	}
	sg, err := s.store.Put(g, desc)
	if err != nil {
		writeError(w, http.StatusInsufficientStorage, codeStoreFull,
			"%v (limit %d versions)", err, s.cfg.MaxGraphs)
		return
	}
	writeJSON(w, http.StatusCreated, graphToResponse(sg, sg.Head()))
}

func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	sg, v, ok := s.store.Resolve(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeGraphNotFound,
			"graph %q not found", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, graphToResponse(sg, v))
}

// handleGraphList serves the paged graph listing. Paging is
// offset/limit over the ID-sorted lineage list, so pages are stable
// while the store is quiescent.
func (s *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	offset, limit := 0, 50
	if raw := q.Get("offset"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, codeBadPage, "offset %q must be a non-negative integer", raw)
			return
		}
		offset = n
	}
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, codeBadPage, "limit %q must be a positive integer", raw)
			return
		}
		limit = n
	}
	if limit > 500 {
		limit = 500
	}
	all := s.store.List()
	total := len(all)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	out := graphListResponse{
		Graphs: make([]graphSummary, 0, end-offset),
		Total:  total,
		Offset: offset,
		Limit:  limit,
	}
	for _, sg := range all[offset:end] {
		head := sg.Head()
		out.Graphs = append(out.Graphs, graphSummary{
			ID:       sg.ID,
			Desc:     sg.Desc,
			N:        sg.N(),
			Versions: head.Ordinal + 1,
			Head:     head.ID,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleGraphVersions serves the lineage of one graph, root first.
func (s *Server) handleGraphVersions(w http.ResponseWriter, r *http.Request) {
	sg, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeGraphNotFound,
			"graph %q not found", r.PathValue("id"))
		return
	}
	versions := sg.Versions()
	out := versionsResponse{
		Graph:    sg.ID,
		Head:     versions[len(versions)-1].ID,
		Versions: make([]versionInfo, len(versions)),
	}
	for i, v := range versions {
		out.Versions[i] = versionInfo{
			ID:            v.ID,
			Parent:        v.Parent,
			Ordinal:       v.Ordinal,
			DeltaSize:     v.DeltaSize(),
			Fingerprint:   fmt.Sprintf("%016x", v.Fingerprint),
			ResidentBytes: v.residentBytes(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePatch applies an edge insert/delete batch to a graph, producing
// a new immutable version (copy-on-write: O(delta) stored). The new head's
// CSR is materialized lazily, by its first run, which releases the CSR of
// the version it supersedes (the residency rule, see Version). The
// optional parent pin gives optimistic concurrency: a patch pinned to a
// stale head 409s with version-conflict unless it is an exact replay of
// an already-applied patch, which returns the stored version (idempotent
// retries).
func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req patchRequest
	if !s.decode(w, r, &req) {
		s.m.patches("invalid").Inc()
		return
	}
	sg, ok := s.store.Get(id)
	if !ok {
		s.m.patches("not-found").Inc()
		writeError(w, http.StatusNotFound, codeGraphNotFound, "graph %q not found", id)
		return
	}
	if len(req.Inserts) == 0 && len(req.Deletes) == 0 {
		s.m.patches("invalid").Inc()
		writeError(w, http.StatusBadRequest, codeEmptyDelta,
			"patch has no inserts and no deletes")
		return
	}
	d := &graph.EdgeDelta{
		Inserts: make([]graph.Edge, len(req.Inserts)),
		Deletes: make([]graph.Edge, len(req.Deletes)),
	}
	for i, e := range req.Inserts {
		d.Inserts[i] = e.edge()
	}
	for i, e := range req.Deletes {
		d.Deletes[i] = graph.Edge{From: e.From, To: e.To}
	}
	if err := d.Canonicalize(sg.N()); err != nil {
		s.m.patches("invalid").Inc()
		writeError(w, http.StatusBadRequest, codeInvalidDelta, "%v", err)
		return
	}
	v, replayed, found, err := s.store.Patch(id, d, req.Parent)
	switch {
	case !found:
		s.m.patches("not-found").Inc()
		writeError(w, http.StatusNotFound, codeGraphNotFound,
			"parent version %q not found in graph %q", req.Parent, id)
		return
	case errors.Is(err, ErrVersionConflict):
		s.m.patches("conflict").Inc()
		writeError(w, http.StatusConflict, codeVersionConflict,
			"parent %q is no longer the head of %q", req.Parent, id)
		return
	case errors.Is(err, ErrStoreFull):
		s.m.patches("store-full").Inc()
		writeError(w, http.StatusInsufficientStorage, codeStoreFull,
			"%v (limit %d versions)", err, s.cfg.MaxGraphs)
		return
	case err != nil:
		s.m.patches("error").Inc()
		writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	if replayed {
		s.m.patches("replayed").Inc()
	} else {
		s.m.patches("applied").Inc()
	}
	writeJSON(w, http.StatusOK, patchResponse{
		Graph:       sg.ID,
		Version:     v.ID,
		Parent:      v.Parent,
		Ordinal:     v.Ordinal,
		DeltaSize:   v.DeltaSize(),
		Replayed:    replayed,
		Fingerprint: fmt.Sprintf("%016x", v.Fingerprint),
	})
}

// handleKernels lists every kernel /v1/run serves: the suite in paper
// order, then the variants.
func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	kernels := append(core.Suite(), core.Variants()...)
	out := make([]kernelInfo, len(kernels))
	for i, b := range kernels {
		input := "csr"
		switch {
		case b.UsesMatrix:
			input = "dense"
		case b.UsesCities:
			input = "cities"
		}
		out[i] = kernelInfo{Name: b.Name, Parallelization: b.Parallelization, Input: input}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.reg.WriteTo(w) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !s.decode(w, r, &req) {
		return
	}
	spec, bad := s.validateRun(req)
	if bad != nil {
		writeError(w, bad.status, bad.code, "%s", bad.msg)
		return
	}
	p := planRun(spec.bench, &spec.req, spec.vf)

	ctx, cancel := context.WithTimeout(r.Context(), spec.timeout)
	defer cancel()
	val, started, err := s.cache.Do(ctx, p.key, func() (any, error) {
		if p.join {
			return s.joinBatch(ctx, spec, p)
		}
		return s.execute(ctx, spec, p)
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrSaturated):
			s.m.shed.Inc()
			writeSaturated(w, s.retryAfterSeconds())
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, codeDeadline,
				"run exceeded %s deadline", spec.timeout)
		case errors.Is(err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, codeCanceled, "request canceled")
		case errors.Is(err, ErrPoolClosed):
			writeError(w, http.StatusServiceUnavailable, codeShuttingDown, "server shutting down")
		default:
			writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		}
		return
	}
	resp := *val.(*runResponse) // copy so Cached can differ per caller
	resp.Cached = !started
	writeJSON(w, http.StatusOK, &resp)
}

// errReason maps a run failure to the crono_run_errors_total reason label.
func errReason(err error) string {
	switch {
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "error"
	}
}

// pending is one accepted run waiting for a worker: the validated
// request, its plan, its context, when the handler accepted the compute
// (where its queue wait starts) and where the worker delivers the reply.
type pending struct {
	ctx      context.Context
	spec     *runSpec
	rp       runPlan
	accepted time.Time
	ch       chan runOut
}

// runOut is what a worker delivers for one pending run: the reply the
// cache keeps, not the payload (see settle).
type runOut struct {
	resp *runResponse
	err  error
}

func newPending(ctx context.Context, spec *runSpec, rp runPlan) *pending {
	return &pending{ctx: ctx, spec: spec, rp: rp, accepted: time.Now(), ch: make(chan runOut, 1)}
}

// settle hands a finished run's payload to the one place it may outlive
// the reply: its lineage's repair seed, when the plan keeps it. The test
// observer, when set, sees every payload.
func (s *Server) settle(p *pending, res *core.Result) {
	if s.observe != nil {
		s.observe(p.rp.key, res)
	}
	if p.rp.keep {
		ver := p.spec.vf.ver
		ver.lineage.offerSeed(ver, p.spec.bench.Name, p.rp.key, res)
	}
}

// await blocks until the worker delivers p's result or p's context ends,
// and accounts a run that produced none (a failed pool admission is a
// shed, which the handler counts). A context that ends first stops no
// shared pass; this result is just not cached (Do drops errored computes).
func (s *Server) await(p *pending) (any, error) {
	var err error
	select {
	case out := <-p.ch:
		if out.err == nil {
			return out.resp, nil
		}
		err = out.err
	case <-p.ctx.Done():
		err = p.ctx.Err()
	}
	if !errors.Is(err, ErrSaturated) && !errors.Is(err, ErrPoolClosed) {
		s.m.runErrors(p.spec.bench.Name, errReason(err)).Inc()
	}
	return nil, err
}

// execute submits the run to the worker pool and waits for its result.
// It is called exactly once per cache key by Cache.Do; concurrent
// identical requests coalesce onto its result.
func (s *Server) execute(ctx context.Context, spec *runSpec, rp runPlan) (any, error) {
	p := newPending(ctx, spec, rp)
	if err := s.pool.Submit(ctx, func() { p.ch <- s.runOne(p) }); err != nil {
		return nil, err
	}
	return s.await(p)
}

// runOne is the worker-side body of every single-source run: it builds
// the platform, runs the kernel — or its repair of the plan's prev —
// under the request's own context, settles the payload and shapes the
// reply. Batch-group members below break-even come through here too, on
// the worker that dequeued their group.
func (s *Server) runOne(p *pending) runOut {
	ctx, spec, req, rp := p.ctx, p.spec, &p.spec.req, &p.rp
	var pl exec.Platform
	switch req.Platform {
	case "native":
		pl = native.New()
	case "sim":
		m, err := sim.New(spec.sim)
		if err != nil {
			return runOut{err: fmt.Errorf("sim config: %w", err)}
		}
		pl = m
	}

	creq := core.Request{
		Input:     spec.in,
		Strategy:  core.Strategy(req.Strategy),
		Threads:   req.Threads,
		Iters:     req.Iters,
		MaxPasses: req.MaxPasses,
		Delta:     req.Delta,
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()
	// Materialize the reordered CSR on the worker, not the handler: the
	// first run on a (version, order) pays the permutation build (memoized
	// on a root or head version's forms), later runs get it for free.
	if rp.order != graph.OrderNone {
		ro, err := spec.vf.Ordered(rp.order)
		if err != nil {
			return runOut{err: err}
		}
		creq.Reorder = ro
	}
	// Native runs borrow a pooled scratch in serving mode: internal kernel
	// buffers (worklists, marks, bucket bins) are reused across requests
	// while result-bearing arrays are freshly allocated and left behind by
	// the scratch, so a repair seed never aliases pooled memory and a
	// pooled scratch never pins a payload.
	if spec.in.G != nil && req.Platform == "native" {
		sc := s.scratches.Get(spec.in.G.N)
		sc.DetachResults = true
		creq.Scratch = sc
		defer s.scratches.Put(sc)
	}
	// The request context reaches the kernel's barriers: a canceled or
	// deadlined request aborts the run within one kernel round, freeing
	// this worker slot long before the kernel would have completed. A
	// repair seed the kernel declines (or none) means a full run.
	res, incremental, err := spec.bench.RepairOrRun(ctx, pl, creq, rp.prev, rp.delta)
	wall := time.Since(start)
	if err != nil {
		return runOut{err: err}
	}
	s.m.runs(spec.bench.Name).Inc()
	s.m.latency(spec.bench.Name, req.Platform).Observe(wall.Seconds())
	if incremental {
		s.m.incremental(spec.bench.Name).Inc()
	}

	rep := res.Report
	resp := newRunResponse(spec, rp.order, rep, wall, start.Sub(p.accepted))
	s.m.queueWait(spec.bench.Name).Observe(resp.QueueWaitSeconds)
	resp.Incremental, resp.Plan = incremental, rp.plan
	if rep.Platform == "sim" {
		resp.TimeUnit = "cycles"
		energy := make(map[string]float64, exec.NumEnergyComponents)
		for c := exec.EnergyL1I; c < exec.NumEnergyComponents; c++ {
			energy[c.String()] = rep.Energy[c]
		}
		resp.Sim = &simRunDetails{
			L1DMissRatePct:       rep.Cache.L1MissRate(),
			HierarchyMissRatePct: rep.Cache.HierarchyMissRate(),
			EnergyPJ:             energy,
			NetworkFlitHops:      rep.NetworkFlitHops,
		}
	}
	s.settle(p, res)
	return runOut{resp: resp}
}

// newRunResponse shapes the reply fields every run shares, single or
// batched.
func newRunResponse(spec *runSpec, order graph.Order, rep *exec.Report, wall, queued time.Duration) *runResponse {
	resp := &runResponse{
		Kernel:            spec.bench.Name,
		Platform:          rep.Platform,
		Threads:           rep.Threads,
		TimeUnit:          "ns",
		Time:              rep.Time,
		TotalInstructions: rep.TotalInstructions(),
		Variability:       rep.Variability(),
		Breakdown:         make(map[string]uint64, exec.NumComponents),
		WallSeconds:       wall.Seconds(),
		QueueWaitSeconds:  queued.Seconds(),
	}
	if spec.vf != nil {
		resp.Graph, resp.GraphVersion = spec.vf.ver.GraphID, spec.vf.ver.ID
	}
	if order != graph.OrderNone {
		resp.Order = string(order) // omitted for unordered runs
	}
	for c := exec.CompCompute; c < exec.NumComponents; c++ {
		resp.Breakdown[c.String()] = rep.Breakdown[c]
	}
	return resp
}
