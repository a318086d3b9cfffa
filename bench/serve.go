package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crono"
)

// The wire types below are the benchmark's own reading of the HTTP API:
// only the fields it sends or checks.

type runRequest struct {
	Graph    string `json:"graph"`
	Kernel   string `json:"kernel"`
	Strategy string `json:"strategy,omitempty"`
	Order    string `json:"order,omitempty"`
	Threads  int    `json:"threads"`
	Source   int    `json:"source"`
}

type runResponse struct {
	GraphVersion      string  `json:"graphVersion"`
	Incremental       bool    `json:"incremental"`
	Cached            bool    `json:"cached"`
	Order             string  `json:"order"`
	TotalInstructions uint64  `json:"totalInstructions"`
	WallSeconds       float64 `json:"wallSeconds"`
}

type graphResponse struct {
	ID      string `json:"id"`
	Version string `json:"version"`
	N       int    `json:"n"`
	M       int    `json:"m"`
}

type edgeSpec struct {
	From   int32 `json:"from"`
	To     int32 `json:"to"`
	Weight int32 `json:"weight,omitempty"`
}

type patchRequest struct {
	Inserts []edgeSpec `json:"inserts"`
	Deletes []edgeSpec `json:"deletes"`
}

type patchResponse struct {
	Version   string `json:"version"`
	DeltaSize int    `json:"deltaSize"`
	Replayed  bool   `json:"replayed"`
}

// service is an in-process server behind a loopback listener and the
// keep-alive client the benchmark's closed-loop callers share.
type service struct {
	r   *run
	srv *crono.Server
	ts  *httptest.Server
	hc  *http.Client
	// scraped holds the /metrics sums at the end of set-up; the traced
	// run reports deltas from them.
	scraped map[string]float64
	// scratch serves the paired direct runs, warm like the service's
	// pooled ones.
	scratch *crono.Scratch
}

func newService(r *run, maxGraphs int) *service {
	cfg := crono.DefaultServeConfig()
	cfg.Workers = r.p
	cfg.MaxGraphs = maxGraphs
	srv := crono.NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	return &service{
		r: r, srv: srv, ts: ts,
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: r.p}},
	}
}

func (s *service) close() {
	s.hc.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// call sends one JSON request and decodes the reply into out. The
// latency runs from handing the encoded request to the client until the
// whole reply is read: socket to socket, as a caller sees it.
func (s *service) call(method, path string, in, out any) (time.Duration, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return time.Since(start), err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if resp.StatusCode/100 != 2 {
		return d, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return d, json.Unmarshal(reply, out)
}

// createGraph loads a graph into the server and checks that it is the
// one the benchmark holds.
func (s *service) createGraph(in any, want *crono.Graph) (graphResponse, time.Duration, error) {
	var out graphResponse
	d, err := s.call("POST", "/v1/graphs", in, &out)
	if err == nil && (out.N != want.N || out.M != want.M()) {
		err = fmt.Errorf("server holds n=%d m=%d, benchmark n=%d m=%d", out.N, out.M, want.N, want.M())
	}
	return out, d, err
}

// generated asks the server to generate the graph family itself.
func generated(kind crono.GraphKind, n int, seed int64) map[string]any {
	return map[string]any{"kind": string(kind), "n": n, "seed": seed}
}

// scrape reads /metrics and sums each metric over its label sets.
func (s *service) scrape() (map[string]float64, error) {
	resp, err := s.hc.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sums := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(line[:sp], "{")
		sums[name] += v
	}
	return sums, sc.Err()
}

// reportCounts turns the /metrics deltas since set-up into the
// service.* counts of the traced run.
func (s *service) reportCounts() {
	now, err := s.scrape()
	if err != nil {
		s.r.fail("scrape /metrics", err)
		return
	}
	delta := func(name string) float64 { return now[name] - s.scraped[name] }
	hits, misses := delta("crono_cache_hits_total"), delta("crono_cache_misses_total")
	if hits+misses > 0 {
		s.r.observe("service.cache_hit_ratio", hits/(hits+misses))
	}
	s.r.observe("service.kernel_runs", delta("crono_kernel_runs_total"))
	s.r.observe("service.batched_runs", delta("crono_batched_runs_total"))
	s.r.observe("service.batch_passes", delta("crono_batch_passes_total"))
	s.r.observe("service.coalesced", delta("crono_cache_coalesced_total"))
	s.r.observe("service.incremental_runs", delta("crono_incremental_runs_total"))
	s.r.observe("service.shed", delta("crono_load_shed_total"))
	s.r.observe("service.versions_resident", now["crono_graph_versions"])
	s.r.observe("service.goroutines", now["crono_goroutines"])
}

// class is one kind of /v1/run request.
type class struct {
	name     string
	kernel   string
	strategy string
	order    string
	social   bool // runs on the social graph, else on the road graph
}

var readClasses = []class{
	{name: "BFS.road", kernel: "BFS"},
	{name: "BFS.social.hybrid", kernel: "BFS", strategy: "hybrid", social: true},
	{name: "SSSP.road", kernel: "SSSP_DIJK"},
	{name: "SSSP.social.rcm", kernel: "SSSP_DIJK", order: "rcm", social: true},
}

// hotKeys is the size of the hit class's key set.
const hotKeys = 8

// servedGraph is a resident graph as both sides know it.
type servedGraph struct {
	g       *crono.Graph
	truth   *truth
	id      string
	version string
}

// runOp sends one /v1/run request of class c and checks the reply by
// everything the service reports about it (it returns no payload):
// status, the version it ran on, and the cached, incremental and order
// flags.
func (s *service) runOp(name string, c class, sg *servedGraph, ref string, src int, wantCached, wantIncremental bool) {
	r := s.r
	var out runResponse
	start := time.Now()
	d, err := s.call("POST", "/v1/run", runRequest{
		Graph: ref, Kernel: c.kernel, Strategy: c.strategy, Order: c.order, Threads: r.p, Source: src,
	}, &out)
	switch {
	case err != nil:
	case out.GraphVersion != sg.version:
		err = fmt.Errorf("ran on version %s, want %s", out.GraphVersion, sg.version)
	case out.Cached != wantCached:
		err = fmt.Errorf("cached=%t, want %t (source %d)", out.Cached, wantCached, src)
	case out.Incremental != wantIncremental:
		err = fmt.Errorf("incremental=%t, want %t", out.Incremental, wantIncremental)
	case out.Order != c.order:
		err = fmt.Errorf("order=%q, want %q", out.Order, c.order)
	case out.TotalInstructions == 0 && !out.Incremental:
		// A repair that finds nothing to repair executes nothing.
		err = fmt.Errorf("reply counts no instructions")
	}
	r.done(name, !wantCached, d, err)
	if err != nil || !r.measuring() {
		return
	}
	s.observeRequest(name, start, d, out.WallSeconds, wantCached)
}

// observeRequest records a request's span and splits its latency into
// the kernel's part, as the service reports it, and everything outside
// the kernel: HTTP, decode, store, cache, batch window, queue, encode.
func (s *service) observeRequest(name string, start time.Time, d time.Duration, kernelSeconds float64, cached bool) {
	r := s.r
	op := r.newOp()
	root := r.span(op, 0, "bench", name, start, time.Since(start), 0)
	r.span(op, root, "service", name, start, d, 0)
	ms := float64(d.Nanoseconds()) / 1e6
	r.observe("service."+name+".p50_ms", ms)
	if cached {
		kernelSeconds = 0 // the reply repeats the original run's time
	}
	r.observe("service."+name+".outside_kernel_ms", ms-kernelSeconds*1e3)
}

// paired runs the kernel of a service class directly, the way the
// service runs it (a one-shot native platform and a warm scratch whose
// results are detached) but alone on the host, so that the class's
// latency less this is what the service adds: its own work, and the
// kernel's slowdown from sharing the host with the other clients' runs.
func (s *service) paired(name string, c class, g *crono.Graph, ro *crono.Reordered, src int) {
	if s.scratch == nil {
		s.scratch = crono.NewScratch()
		s.scratch.DetachResults = true
	}
	req := crono.RunRequest{Threads: s.r.p, Strategy: crono.StrategyFrontier, Scratch: s.scratch, Reorder: ro}
	if c.strategy != "" {
		req.Strategy = crono.Strategy(c.strategy)
	}
	req.G, req.Source = g, src
	var err error
	d := s.r.timed("core", "paired."+name, int64(g.M()), func() {
		_, err = crono.Run(context.Background(), crono.NewNative(), c.kernel, req)
	})
	if err != nil {
		s.r.fail("paired "+name, err)
		return
	}
	s.r.observe("_paired."+name, float64(d.Nanoseconds())/1e6)
}

// readWorkload is serve-read: P closed-loop clients, a quarter of the
// requests repeat one of eight hot keys, the rest are misses with
// sources no request has used before.
type readWorkload struct {
	r            *run
	svc          *service
	road, social servedGraph
	hot          [hotKeys]struct {
		c   class
		src int
	}
	// nextSource hands every miss a source no earlier request used.
	nextSource atomic.Int64
}

func (w *readWorkload) passesPerRound() int { return 0 }
func (w *readWorkload) close()              { w.svc.close() }

func (w *readWorkload) graphOf(c class) *servedGraph {
	if c.social {
		return &w.social
	}
	return &w.road
}

func (w *readWorkload) setup() error {
	r := w.r
	w.svc = newService(r, 0)
	rng := rand.New(rand.NewSource(r.opts.seed))

	// The road graph goes in the way a user's own graph does, as an
	// uploaded SNAP edge list; the social graph is generated server-side.
	w.road.g = generate(r, crono.GraphRoadCA, r.sz.readRoadN)
	text, err := snapText(w.road.g)
	if err != nil {
		return err
	}
	start := time.Now()
	gr, d, err := w.svc.createGraph(map[string]any{"format": "snap", "data": string(text)}, w.road.g)
	if err != nil {
		return err
	}
	r.span(r.newOp(), 0, "graph", "upload", start, d, int64(w.road.g.M()))
	r.observe("graph.upload_ms", float64(d.Nanoseconds())/1e6)
	w.road.id, w.road.version = gr.ID, gr.Version

	w.social.g = generate(r, crono.GraphSocial, r.sz.readSocialN)
	if gr, _, err = w.svc.createGraph(generated(crono.GraphSocial, r.sz.readSocialN, r.opts.seed), w.social.g); err != nil {
		return err
	}
	w.social.id, w.social.version = gr.ID, gr.Version
	w.road.truth = newTruth(w.road.g, rng)
	w.social.truth = newTruth(w.social.g, rng)

	// Warm-up: fill the hot set (each first request is a miss), which
	// also builds the social graph's RCM order and transpose.
	for k := range w.hot {
		c := readClasses[k%len(readClasses)]
		sg := w.graphOf(c)
		w.hot[k].c, w.hot[k].src = c, sg.truth.source(k)
		w.svc.runOp(c.name, c, sg, sg.id, w.hot[k].src, false, false)
	}
	w.nextSource.Store(hotKeys)
	w.svc.scraped, err = w.svc.scrape()
	return err
}

// mix is the class of each request in a period of a client's sequence:
// a quarter hits (-1) and three of each miss class.
var mix = []int{-1, 0, 1, 2, 3, -1, 0, 1, 2, 3, -1, 0, 1, 2, 3, -1}

func (w *readWorkload) pass(i int) {
	var wg sync.WaitGroup
	for client := 0; client < w.r.p; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			// Every client's sequence has the same make-up in its own
			// seeded order, so class counts repeat exactly.
			rng := rand.New(rand.NewSource(w.r.opts.seed<<20 + int64(i)<<8 + int64(client)))
			seq := make([]int, w.r.sz.reqsPerClient)
			for n := range seq {
				seq[n] = mix[n%len(mix)]
			}
			rng.Shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
			for _, k := range seq {
				if k < 0 {
					h := w.hot[rng.Intn(hotKeys)]
					sg := w.graphOf(h.c)
					w.svc.runOp("hit", h.c, sg, sg.id, h.src, true, false)
					continue
				}
				c := readClasses[k]
				sg := w.graphOf(c)
				w.svc.runOp(c.name, c, sg, sg.id, sg.truth.source(int(w.nextSource.Add(1))), false, false)
			}
		}(client)
	}
	wg.Wait()
}

func (w *readWorkload) extras() {
	w.svc.reportCounts()
	rcm, err := crono.ReorderGraph(w.social.g, crono.OrderRCM)
	if err != nil {
		w.r.fail("reorder social graph", err)
		return
	}
	for _, c := range readClasses {
		sg := w.graphOf(c)
		var ro *crono.Reordered
		if c.order == "rcm" {
			ro = rcm
		}
		for k := 0; k < w.r.sz.pairedRuns; k++ {
			w.svc.paired(c.name, c, sg.g, ro, sg.truth.source(int(w.nextSource.Add(1))))
		}
	}
}

// churnWorkload is serve-churn: client 0 writes to a road lineage and
// reads its head, the other clients read a pinned version of a social
// graph until client 0 is done. Versions are never freed, so one set-up
// serves exactly one pass of a fixed number of cycles.
type churnWorkload struct {
	r      *run
	round  int
	svc    *service
	road   servedGraph // version tracks the lineage head
	social servedGraph
	// deletable are the road graph's undirected edges in shuffled order;
	// each cycle deletes the next one, so no delete ever misses.
	deletable []crono.Edge
	rng       *rand.Rand
	// deltas are all patches sent since the root, in order; the traced
	// run replays them on its own copy of the graph.
	deltas    []crono.EdgeDelta
	warmDelta int // deltas sent during warm-up
	pinned    atomic.Int64
}

var (
	ccHead    = class{name: "CONN_COMP.head", kernel: "CONN_COMP"}
	bfsHead   = class{name: "BFS.head", kernel: "BFS"}
	ssspHead  = class{name: "SSSP.head", kernel: "SSSP_DIJK"}
	bfsPinned = class{name: "BFS.pinned", kernel: "BFS", social: true}
)

// warmCycles is the number of unmeasured cycles a churn set-up runs.
const warmCycles = 2

func (w *churnWorkload) passesPerRound() int { return 1 }
func (w *churnWorkload) close()              { w.svc.close() }

func (w *churnWorkload) setup() error {
	r := w.r
	w.svc = newService(r, r.sz.churnCycles+warmCycles+8)
	w.rng = rand.New(rand.NewSource(r.opts.seed<<8 + int64(w.round)))

	w.road.g = generate(r, crono.GraphRoadCA, r.sz.churnRoadN)
	gr, _, err := w.svc.createGraph(generated(crono.GraphRoadCA, r.sz.churnRoadN, r.opts.seed), w.road.g)
	if err != nil {
		return err
	}
	w.road.id, w.road.version = gr.ID, gr.Version
	w.social.g = generate(r, crono.GraphSocial, r.sz.churnSocialN)
	if gr, _, err = w.svc.createGraph(generated(crono.GraphSocial, r.sz.churnSocialN, r.opts.seed), w.social.g); err != nil {
		return err
	}
	w.social.id, w.social.version = gr.ID, gr.Version
	w.road.truth = newTruth(w.road.g, w.rng)
	w.social.truth = newTruth(w.social.g, w.rng)

	for _, e := range w.road.g.Edges() {
		if e.From < e.To {
			w.deletable = append(w.deletable, e)
		}
	}
	w.rng.Shuffle(len(w.deletable), func(i, j int) { w.deletable[i], w.deletable[j] = w.deletable[j], w.deletable[i] })

	// Warm-up: the head classes run on the root, so that the first
	// patched version finds its parent's results cached, then two whole
	// cycles and one pinned read.
	w.headRuns(false)
	for i := 0; i < warmCycles; i++ {
		w.cycle()
	}
	w.warmDelta = len(w.deltas)
	w.pinnedRead()
	w.svc.scraped, err = w.svc.scrape()
	return err
}

// source is the fixed source of the lineage's head runs: the repair of
// a BFS needs the parent version's result from the same source.
func (w *churnWorkload) source() int { return w.road.truth.source(w.round) }

// headRuns sends the three runs of a cycle against the lineage head.
// CONN_COMP is a full recompute because every patch deletes an edge,
// which its repair cannot handle; BFS is repaired from the parent
// version's cached levels; SSSP has no repair and is the first to touch
// the new version's CSR.
func (w *churnWorkload) headRuns(patched bool) {
	w.svc.runOp(ccHead.name, ccHead, &w.road, w.road.id, w.source(), false, false)
	w.svc.runOp(bfsHead.name, bfsHead, &w.road, w.road.id, w.source(), false, patched)
	w.svc.runOp(ssspHead.name, ssspHead, &w.road, w.road.id, w.source(), false, false)
}

// cycle patches the lineage (4 undirected edges in, 1 out: 8 inserts
// and 2 deletes) and runs the head classes on the new version.
func (w *churnWorkload) cycle() {
	r := w.r
	n := int32(w.road.g.N)
	del := w.deletable[len(w.deltas)%len(w.deletable)]
	var d crono.EdgeDelta
	for len(d.Inserts) < 8 {
		u, v := w.rng.Int31n(n), w.rng.Int31n(n)
		if u == v || (min(u, v) == del.From && max(u, v) == del.To) || inserted(d.Inserts, u, v) {
			continue
		}
		wt := 1 + w.rng.Int31n(16)
		d.Inserts = append(d.Inserts, crono.Edge{From: u, To: v, Weight: wt}, crono.Edge{From: v, To: u, Weight: wt})
	}
	d.Deletes = []crono.Edge{{From: del.From, To: del.To}, {From: del.To, To: del.From}}
	w.deltas = append(w.deltas, d)

	var out patchResponse
	start := time.Now()
	lat, err := w.svc.call("PATCH", "/v1/graphs/"+w.road.id, patchRequest{
		Inserts: edgeSpecs(d.Inserts), Deletes: edgeSpecs(d.Deletes),
	}, &out)
	switch {
	case err != nil:
	case out.Replayed || out.DeltaSize != len(d.Inserts)+len(d.Deletes):
		err = fmt.Errorf("patch applied %d mutations (replayed=%t), want %d", out.DeltaSize, out.Replayed, len(d.Inserts)+len(d.Deletes))
	}
	r.done("patch", false, lat, err)
	if err != nil {
		return // the head did not move; its runs would hit the cache
	}
	w.road.version = out.Version
	if r.measuring() {
		w.svc.observeRequest("patch", start, lat, 0, false)
	}
	w.headRuns(true)
}

func inserted(es []crono.Edge, u, v int32) bool {
	for _, e := range es {
		if e.From == u && e.To == v {
			return true
		}
	}
	return false
}

func edgeSpecs(es []crono.Edge) []edgeSpec {
	out := make([]edgeSpec, len(es))
	for i, e := range es {
		out[i] = edgeSpec{From: e.From, To: e.To, Weight: e.Weight}
	}
	return out
}

// pinnedRead is one BFS miss against the pinned social version.
func (w *churnWorkload) pinnedRead() {
	src := w.social.truth.source(int(w.pinned.Add(1)))
	w.svc.runOp(bfsPinned.name, bfsPinned, &w.social, w.social.version, src, false, false)
}

func (w *churnWorkload) pass(int) {
	var (
		wg   sync.WaitGroup
		done atomic.Bool
	)
	for client := 1; client < w.r.p; client++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				w.pinnedRead()
			}
		}()
	}
	for i := 0; i < w.r.sz.churnCycles; i++ {
		w.cycle()
	}
	done.Store(true)
	wg.Wait()
}

// extras replays the pass's patches on the benchmark's own copy of the
// lineage and pairs every head class with the direct kernel call the
// service made for it.
func (w *churnWorkload) extras() {
	r := w.r
	w.svc.reportCounts()
	pl := crono.NewNative()
	g := w.road.g
	for i := range w.deltas {
		if err := w.deltas[i].Canonicalize(g.N); err != nil {
			r.fail("canonicalize patch", err)
			return
		}
	}
	for i := 0; i < w.warmDelta; i++ {
		g = crono.ApplyDelta(g, &w.deltas[i])
	}
	// The repair of the first measured cycle starts from the levels of
	// the version before it.
	res, err := crono.BFSFrontier(pl, g, w.source(), r.p)
	if err != nil {
		r.fail("paired BFS", err)
		return
	}
	level := res.Level
	for i := w.warmDelta; i < len(w.deltas) && i < w.warmDelta+r.sz.pairedRuns; i++ {
		d := &w.deltas[i]
		apply := r.timed("graph", "apply_delta", int64(g.M()), func() { g = crono.ApplyDelta(g, d) })
		r.observe("graph.apply_delta_ms", float64(apply.Nanoseconds())/1e6)
		w.svc.paired(ccHead.name, ccHead, g, nil, w.source())
		repair := r.timed("core", "paired."+bfsHead.name, int64(g.M()), func() {
			res, err = crono.BFSIncremental(pl, g, w.source(), r.p, level, d)
		})
		if err != nil {
			r.fail("paired BFS repair", err)
			return
		}
		level = res.Level
		r.observe("_paired."+bfsHead.name, float64(repair.Nanoseconds())/1e6)
		w.svc.paired(ssspHead.name, ssspHead, g, nil, w.source())
		w.svc.paired(bfsPinned.name, bfsPinned, w.social.g, nil, w.social.truth.source(i))
	}
}
