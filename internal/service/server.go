// Package service is the concurrent HTTP serving layer in front of the
// CRONO kernels: a stdlib-only JSON API that loads graphs into a versioned
// in-memory store, executes any suite kernel on the native platform or the
// futuristic-multicore simulator through a bounded worker pool, caches
// replies in a segmented LRU keyed by graph fingerprint + kernel + params
// (with in-flight coalescing), and exports Prometheus-text metrics.
//
// Request flow:
//
//	handler → store (resolve graph) → cache.Do (hit / coalesce)
//	        → pool.Submit (bounded, load-shedding) → kernel → report
//
// Overload degrades predictably: a full queue sheds with 429 + Retry-After
// rather than queueing unboundedly, and every request carries a deadline.
package service

import (
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"crono/internal/core"
)

// Config parametrizes a Server. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// Addr is the listen address of cmd/crono-serve (the library Server
	// itself only builds an http.Handler).
	Addr string
	// Workers is the kernel worker-pool size.
	Workers int
	// QueueLen is the worker-pool queue bound; beyond it requests shed
	// with 429.
	QueueLen int
	// CacheEntries bounds the segmented-LRU reply cache.
	CacheEntries int
	// MaxGraphs bounds the graph store.
	MaxGraphs int
	// MaxVertices bounds generated and uploaded graph sizes.
	MaxVertices int
	// MaxDenseVertices bounds graphs admitted to the O(N²) dense kernels
	// (APSP, BETW_CENT).
	MaxDenseVertices int
	// MaxBodyBytes bounds request bodies (graph uploads dominate).
	MaxBodyBytes int64
	// MaxThreads bounds the per-request thread count.
	MaxThreads int
	// DefaultTimeout applies when a run request carries no timeoutMs.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied timeouts.
	MaxTimeout time.Duration
	// SimCores is the simulated tile count when a run request does not
	// specify one (must be a perfect square; 64 keeps sim latency low,
	// the paper's 256 is available per request).
	SimCores int
}

// DefaultConfig returns production-leaning defaults.
func DefaultConfig() Config {
	return Config{
		Addr:             ":8080",
		Workers:          4,
		QueueLen:         64,
		CacheEntries:     256,
		MaxGraphs:        64,
		MaxVertices:      1 << 22,
		MaxDenseVertices: 2048,
		MaxBodyBytes:     64 << 20,
		MaxThreads:       256,
		DefaultTimeout:   30 * time.Second,
		MaxTimeout:       5 * time.Minute,
		SimCores:         64,
	}
}

func (c *Config) sanitize() {
	d := DefaultConfig()
	if c.Workers < 1 {
		c.Workers = d.Workers
	}
	if c.QueueLen < 1 {
		c.QueueLen = d.QueueLen
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = d.CacheEntries
	}
	if c.MaxGraphs < 1 {
		c.MaxGraphs = d.MaxGraphs
	}
	if c.MaxVertices < 2 {
		c.MaxVertices = d.MaxVertices
	}
	if c.MaxDenseVertices < 2 {
		c.MaxDenseVertices = d.MaxDenseVertices
	}
	if c.MaxBodyBytes < 1 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	if c.MaxThreads < 1 {
		c.MaxThreads = d.MaxThreads
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = d.DefaultTimeout
	}
	if c.MaxTimeout < c.DefaultTimeout {
		c.MaxTimeout = c.DefaultTimeout
	}
	if c.SimCores < 1 {
		c.SimCores = d.SimCores
	}
}

// serverMetrics bundles every registered instrument.
type serverMetrics struct {
	reg         *Registry
	requests    func(path string, code int) *Counter
	shed        *Counter
	runs        func(kernel string) *Counter
	runErrors   func(kernel, reason string) *Counter
	latency     func(kernel, platform string) *Histogram
	queueWait   func(kernel string) *Histogram
	patches     func(result string) *Counter
	incremental func(kernel string) *Counter
	cacheHit    *Counter
	cacheMiss   *Counter
	coalesced   *Counter
	batched     func(kernel string) *Counter
	batchPasses *Counter
}

// Server is the graph-analytics service. Build one with New, mount
// Handler on an http.Server, and Close it on shutdown to drain workers.
type Server struct {
	cfg     Config
	store   *Store
	pool    *Pool
	cache   *Cache
	batches *batcher
	m       *serverMetrics
	mux     *http.ServeMux
	// scratches pools kernel workspaces by graph-size class: native runs
	// borrow one per execution (in DetachResults serving mode) so warm
	// kernels stop allocating their O(n) internal buffers per request.
	scratches core.ScratchPool
	// inflight counts kernel executions currently running on pool
	// workers (queued tasks are not in flight; dropped tasks never
	// increment). The stress harness asserts it returns to zero after
	// drain.
	inflight atomic.Int64
	// observe, when set before the first run (tests only), sees every
	// run's payload under its cache key: replies carry no payload, and
	// the server keeps one only as a repair seed (settle).
	observe func(key string, res *core.Result)
}

// New builds a Server from cfg (zero fields are defaulted).
func New(cfg Config) *Server {
	cfg.sanitize()
	s := &Server{
		cfg:     cfg,
		store:   NewStore(cfg.MaxGraphs),
		pool:    NewPool(cfg.Workers, cfg.QueueLen),
		cache:   NewCache(cfg.CacheEntries),
		batches: &batcher{groups: make(map[string]*batchGroup)},
		mux:     http.NewServeMux(),
	}
	s.m = s.newMetrics()
	s.cache.SetCounters(s.m.cacheHit, s.m.cacheMiss, s.m.coalesced)
	s.routes()
	return s
}

func (s *Server) newMetrics() *serverMetrics {
	reg := NewRegistry()
	m := &serverMetrics{reg: reg}
	m.requests = func(path string, code int) *Counter {
		return reg.Counter("crono_http_requests_total",
			"HTTP requests by route and status code.",
			Label{"path", path}, Label{"code", strconv.Itoa(code)})
	}
	m.shed = reg.Counter("crono_load_shed_total",
		"Run requests rejected with 429 because the worker pool was saturated.")
	m.runs = func(kernel string) *Counter {
		return reg.Counter("crono_kernel_runs_total",
			"Kernel executions (cache misses that reached a worker).",
			Label{"kernel", kernel})
	}
	m.runErrors = func(kernel, reason string) *Counter {
		return reg.Counter("crono_run_errors_total",
			"Kernel executions that did not produce a result, by reason "+
				"(canceled, deadline or error).",
			Label{"kernel", kernel}, Label{"reason", reason})
	}
	m.latency = func(kernel, platform string) *Histogram {
		return reg.Histogram("crono_run_duration_seconds",
			"Wall-clock kernel execution latency.",
			DefaultLatencyBuckets,
			Label{"kernel", kernel}, Label{"platform", platform})
	}
	m.queueWait = func(kernel string) *Histogram {
		return reg.Histogram("crono_queue_wait_seconds",
			"Time from a handler accepting a run to its kernel starting: "+
				"the pool queue, including time in an open batch group.",
			DefaultLatencyBuckets, Label{"kernel", kernel})
	}
	m.patches = func(result string) *Counter {
		return reg.Counter("crono_patch_requests_total",
			"Graph mutation requests by outcome (applied, replayed, conflict, "+
				"invalid, not-found, store-full or error).",
			Label{"result", result})
	}
	m.incremental = func(kernel string) *Counter {
		return reg.Counter("crono_incremental_runs_total",
			"Kernel executions repaired incrementally from the parent "+
				"version's result (its lineage's repair seed) instead of "+
				"recomputed from scratch.",
			Label{"kernel", kernel})
	}
	m.batched = func(kernel string) *Counter {
		return reg.Counter("crono_batched_runs_total",
			"Run requests served by a shared multi-source batched kernel pass.",
			Label{"kernel", kernel})
	}
	m.batchPasses = reg.Counter("crono_batch_passes_total",
		"Multi-source batched kernel passes executed.")
	m.cacheHit = reg.Counter("crono_cache_hits_total",
		"Run requests served from the result cache.")
	m.cacheMiss = reg.Counter("crono_cache_misses_total",
		"Run requests that started a kernel computation.")
	m.coalesced = reg.Counter("crono_cache_coalesced_total",
		"Run requests that piggybacked on an identical in-flight computation.")
	reg.GaugeFunc("crono_queue_depth",
		"Kernel tasks queued or running in the worker pool.",
		func() float64 { return float64(s.pool.Depth()) })
	reg.GaugeFunc("crono_graphs_resident",
		"Graph lineages resident in the store.",
		func() float64 { return float64(s.store.Len()) })
	reg.GaugeFunc("crono_graph_versions",
		"Graph versions resident across all lineages (what MaxGraphs bounds).",
		func() float64 { return float64(s.store.VersionTotal()) })
	reg.GaugeFunc("crono_graph_versions_materialized",
		"Graph versions holding a materialized CSR: at most each lineage's "+
			"root and head.",
		func() float64 { return float64(s.store.Materialized()) })
	reg.GaugeFunc("crono_cache_entries",
		"Completed results resident in the LRU cache.",
		func() float64 { return float64(s.cache.Len()) })
	// Runtime gauges back the stress harness's leak assertions: goroutine
	// and heap growth after a drained chaos run indicate a leak in the
	// pool/cache/cancellation paths.
	reg.GaugeFunc("crono_goroutines",
		"Live goroutines in the serving process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("crono_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.GaugeFunc("crono_inflight_runs",
		"Kernel executions currently running on pool workers.",
		func() float64 { return float64(s.inflight.Load()) })
	return m
}

func (s *Server) routes() {
	handle := func(pattern, route string, h http.HandlerFunc) {
		s.mux.Handle(pattern, s.instrument(route, h))
	}
	handle("POST /v1/graphs", "/v1/graphs", s.handleGraphCreate)
	handle("GET /v1/graphs", "/v1/graphs", s.handleGraphList)
	handle("GET /v1/graphs/{id}", "/v1/graphs/{id}", s.handleGraphGet)
	handle("PATCH /v1/graphs/{id}", "/v1/graphs/{id}:patch", s.handlePatch)
	handle("GET /v1/graphs/{id}/versions", "/v1/graphs/{id}/versions", s.handleGraphVersions)
	handle("POST /v1/run", "/v1/run", s.handleRun)
	handle("GET /v1/kernels", "/v1/kernels", s.handleKernels)
	handle("GET /healthz", "/healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the worker pool. In-flight kernels finish; new submissions
// fail with ErrPoolClosed.
func (s *Server) Close() { s.pool.Close() }

// Metrics exposes the registry (the stress harness scrapes it via the
// /metrics endpoint and asserts over the runtime gauges).
func (s *Server) Metrics() *Registry { return s.m.reg }

// retryAfterSeconds estimates how long a shed client should back off:
// roughly the current queue depth in units of worker parallelism, clamped
// to [1, 30] seconds so the hint stays actionable without parking clients.
func (s *Server) retryAfterSeconds() int {
	sec := int(s.pool.Depth()) / s.cfg.Workers
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, req)
		s.m.requests(route, rec.code).Inc()
	})
}
