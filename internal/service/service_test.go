package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"crono/internal/core"
	"crono/internal/graph"
)

func testGraph(n int, seed int64) *graph.CSR {
	return graph.Generate(graph.KindSparse, n, seed)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

func createGraph(t *testing.T, base string, kind string, n int, seed int64) graphResponse {
	t.Helper()
	resp := postJSON(t, base+"/v1/graphs", graphRequest{Kind: kind, N: n, Seed: seed})
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create graph: status %d: %s", resp.StatusCode, b)
	}
	var gr graphResponse
	decodeBody(t, resp, &gr)
	return gr
}

// metricValue extracts the value of an exact series line from /metrics.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in metrics:\n%s", series, body)
	return 0
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	return string(b)
}

func TestGraphLifecycle(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())

	gr := createGraph(t, ts.URL, "sparse", 512, 1)
	if gr.N != 512 || gr.M == 0 || !strings.HasPrefix(gr.ID, "g") {
		t.Fatalf("unexpected graph response: %+v", gr)
	}

	// Content addressing: the same graph loads to the same ID.
	dup := createGraph(t, ts.URL, "sparse", 512, 1)
	if dup.ID != gr.ID {
		t.Fatalf("duplicate upload got new ID %s, want %s", dup.ID, gr.ID)
	}

	resp, err := http.Get(ts.URL + "/v1/graphs/" + gr.ID)
	if err != nil {
		t.Fatalf("GET graph: %v", err)
	}
	var got graphResponse
	decodeBody(t, resp, &got)
	if got != gr {
		t.Fatalf("GET graph = %+v, want %+v", got, gr)
	}

	resp, err = http.Get(ts.URL + "/v1/graphs/gdeadbeef")
	if err != nil {
		t.Fatalf("GET missing graph: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing graph status = %d, want 404", resp.StatusCode)
	}
}

func TestGraphUpload(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	snap := "# comment\n0 1 5\n1 2 3\n2 0 7\n"
	resp := postJSON(t, ts.URL+"/v1/graphs", graphRequest{Format: "snap", Data: snap})
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload status %d: %s", resp.StatusCode, b)
	}
	var gr graphResponse
	decodeBody(t, resp, &gr)
	if gr.N != 3 || gr.Desc != "uploaded:snap" {
		t.Fatalf("unexpected uploaded graph: %+v", gr)
	}

	resp = postJSON(t, ts.URL+"/v1/graphs", graphRequest{Format: "mtx", Data: "not a matrix"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad upload status = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/graphs", graphRequest{Kind: "sparse", N: 64, Format: "snap"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("kind+format status = %d, want 400", resp.StatusCode)
	}
}

func TestKernelsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	resp, err := http.Get(ts.URL + "/v1/kernels")
	if err != nil {
		t.Fatalf("GET kernels: %v", err)
	}
	var kernels []kernelInfo
	decodeBody(t, resp, &kernels)
	if kernels[0].Name != "SSSP_DIJK" || kernels[0].Input != "csr" {
		t.Fatalf("unexpected first kernel: %+v", kernels[0])
	}
	// The listing is exactly the set of names /v1/run resolves. An
	// unknown platform is checked after the kernel name, so a known name
	// answers unknown-platform and runs nothing.
	listed := map[string]bool{}
	for _, k := range kernels {
		listed[k.Name] = true
	}
	candidates := []string{"PAGERANK_PULL", "SSSP_DELTA", "BFS_TARGET", "NOPE"}
	for _, b := range append(core.Suite(), core.Variants()...) {
		candidates = append(candidates, b.Name)
	}
	for _, k := range kernels {
		candidates = append(candidates, k.Name)
	}
	for _, name := range candidates {
		code := errorCode(t, postJSON(t, ts.URL+"/v1/run", runRequest{Kernel: name, Platform: "fpga"}))
		if accepted := code != codeUnknownKernel; accepted != listed[name] {
			t.Errorf("%s: /v1/run answers %s, listed %v", name, code, listed[name])
		}
	}
	if !listed["BETW_BRANDES"] {
		t.Fatal("variant BETW_BRANDES not listed")
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	var hz map[string]string
	decodeBody(t, resp, &hz)
	if hz["status"] != "ok" {
		t.Fatalf("healthz = %v", hz)
	}
}

// TestRunCacheHitAndMetrics is the end-to-end flow of the satellite task:
// run a kernel, hit the cache on the identical re-run, and observe both in
// /metrics.
func TestRunCacheHitAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "sparse", 512, 1)

	run := runRequest{Graph: gr.ID, Kernel: "BFS", Platform: "native", Threads: 4}
	resp := postJSON(t, ts.URL+"/v1/run", run)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("run status %d: %s", resp.StatusCode, b)
	}
	var first runResponse
	decodeBody(t, resp, &first)
	if first.Cached || first.Kernel != "BFS" || first.TimeUnit != "ns" || first.TotalInstructions == 0 {
		t.Fatalf("unexpected first run: %+v", first)
	}

	var second runResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/run", run), &second)
	if !second.Cached {
		t.Fatalf("identical re-run not served from cache: %+v", second)
	}
	if second.Time != first.Time || second.TotalInstructions != first.TotalInstructions {
		t.Fatalf("cached result differs: %+v vs %+v", second, first)
	}

	m := fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, "crono_cache_hits_total"); v != 1 {
		t.Errorf("cache hits = %v, want 1", v)
	}
	if v := metricValue(t, m, "crono_cache_misses_total"); v != 1 {
		t.Errorf("cache misses = %v, want 1", v)
	}
	if v := metricValue(t, m, `crono_kernel_runs_total{kernel="BFS"}`); v != 1 {
		t.Errorf("kernel runs = %v, want 1", v)
	}
	metricValue(t, m, "crono_queue_depth") // must exist
	if !strings.Contains(m, `crono_run_duration_seconds_bucket{kernel="BFS",platform="native",le="+Inf"} 1`) {
		t.Errorf("missing per-kernel latency histogram:\n%s", m)
	}
	if !strings.Contains(m, `crono_http_requests_total{path="/v1/run",code="200"} 2`) {
		t.Errorf("missing request counter:\n%s", m)
	}
}

// TestRunCoalescing issues 32 identical concurrent run requests and
// verifies the kernel executed exactly once: the cache-miss counter and the
// kernel-run counter both read 1, and exactly one response was uncached.
func TestRunCoalescing(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "social", 4096, 7)

	const callers = 32
	body, _ := json.Marshal(runRequest{Graph: gr.ID, Kernel: "SSSP_DIJK", Platform: "native", Threads: 4})
	var (
		wg       sync.WaitGroup
		uncached atomic.Int64
		failures atomic.Int64
	)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				failures.Add(1)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				failures.Add(1)
				return
			}
			var rr runResponse
			if json.NewDecoder(resp.Body).Decode(&rr) != nil {
				failures.Add(1)
				return
			}
			if !rr.Cached {
				uncached.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d of %d concurrent runs failed", failures.Load(), callers)
	}
	if uncached.Load() != 1 {
		t.Fatalf("%d responses were uncached, want exactly 1", uncached.Load())
	}
	m := fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, "crono_cache_misses_total"); v != 1 {
		t.Fatalf("cache misses = %v, want 1 (kernel must execute once)", v)
	}
	if v := metricValue(t, m, `crono_kernel_runs_total{kernel="SSSP_DIJK"}`); v != 1 {
		t.Fatalf("kernel runs = %v, want 1", v)
	}
}

// TestRunLoadShedding saturates a 1-worker/1-slot pool and verifies the
// service sheds with 429 + Retry-After instead of queueing.
func TestRunLoadShedding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.QueueLen = 1
	s, ts := newTestServer(t, cfg)
	gr := createGraph(t, ts.URL, "sparse", 256, 1)

	started := make(chan struct{})
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	if err := s.pool.Submit(context.Background(), func() { close(started); <-release }); err != nil {
		t.Fatalf("blocker 1: %v", err)
	}
	<-started // worker occupied
	if err := s.pool.Submit(context.Background(), func() { <-release }); err != nil {
		t.Fatalf("blocker 2 (queue slot): %v", err)
	}

	resp := postJSON(t, ts.URL+"/v1/run", runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 2})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated run status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	close(release)

	m := fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, "crono_load_shed_total"); v != 1 {
		t.Fatalf("load shed counter = %v, want 1", v)
	}
}

// TestRunDeadline parks a request behind a busy worker with a short
// timeout and verifies it returns 504 instead of waiting forever.
func TestRunDeadline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.QueueLen = 8
	s, ts := newTestServer(t, cfg)
	gr := createGraph(t, ts.URL, "sparse", 256, 1)

	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if err := s.pool.Submit(context.Background(), func() { close(started); <-release }); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	<-started

	resp := postJSON(t, ts.URL+"/v1/run", runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 2, TimeoutMS: 50})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline run status = %d, want 504", resp.StatusCode)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDenseVertices = 64
	_, ts := newTestServer(t, cfg)
	gr := createGraph(t, ts.URL, "sparse", 128, 1)

	cases := []struct {
		name string
		req  runRequest
		want int
	}{
		{"unknown kernel", runRequest{Graph: gr.ID, Kernel: "NOPE"}, http.StatusBadRequest},
		{"unknown platform", runRequest{Graph: gr.ID, Kernel: "BFS", Platform: "gpu"}, http.StatusBadRequest},
		{"graph not found", runRequest{Graph: "gmissing", Kernel: "BFS"}, http.StatusNotFound},
		{"source out of range", runRequest{Graph: gr.ID, Kernel: "BFS", Source: 9999}, http.StatusBadRequest},
		{"threads over sim cores", runRequest{Graph: gr.ID, Kernel: "BFS", Platform: "sim", Threads: 128, SimCores: 16}, http.StatusBadRequest},
		{"sim cores not a square mesh", runRequest{Graph: gr.ID, Kernel: "BFS", Platform: "sim", Threads: 2, SimCores: 10}, http.StatusBadRequest},
		{"sim cores fewer than memory controllers", runRequest{Graph: gr.ID, Kernel: "BFS", Platform: "sim", Threads: 2, SimCores: 4}, http.StatusBadRequest},
		{"sim cores above Table II", runRequest{Graph: gr.ID, Kernel: "BFS", Platform: "sim", Threads: 2, SimCores: 1024}, http.StatusBadRequest},
		{"negative timeout", runRequest{Graph: gr.ID, Kernel: "BFS", TimeoutMS: -5}, http.StatusBadRequest},
		{"dense kernel too big", runRequest{Graph: gr.ID, Kernel: "APSP"}, http.StatusUnprocessableEntity},
		{"tsp cities out of range", runRequest{Kernel: "TSP", Cities: 100}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/run", tc.req)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestRunOnSimulator exercises the second execution platform end to end.
func TestRunOnSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator run in -short mode")
	}
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "sparse", 64, 1)

	resp := postJSON(t, ts.URL+"/v1/run", runRequest{
		Graph: gr.ID, Kernel: "BFS", Platform: "sim", Threads: 4, SimCores: 16,
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sim run status %d: %s", resp.StatusCode, b)
	}
	var rr runResponse
	decodeBody(t, resp, &rr)
	if rr.TimeUnit != "cycles" || rr.Sim == nil {
		t.Fatalf("sim run response missing simulator details: %+v", rr)
	}
	if rr.Sim.EnergyPJ["DRAM"] == 0 && rr.Sim.L1DMissRatePct == 0 {
		t.Fatalf("sim details look empty: %+v", rr.Sim)
	}
}

// TestRunTSP covers the graph-free kernel path.
func TestRunTSP(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	resp := postJSON(t, ts.URL+"/v1/run", runRequest{Kernel: "TSP", Cities: 6, Seed: 3, Threads: 2})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("TSP run status %d: %s", resp.StatusCode, b)
	}
	var rr runResponse
	decodeBody(t, resp, &rr)
	if rr.Kernel != "TSP" || rr.TotalInstructions == 0 {
		t.Fatalf("unexpected TSP response: %+v", rr)
	}
}

// TestStoreFull verifies the graph budget maps to 507.
func TestStoreFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxGraphs = 2
	_, ts := newTestServer(t, cfg)
	createGraph(t, ts.URL, "sparse", 64, 1)
	createGraph(t, ts.URL, "sparse", 64, 2)
	resp := postJSON(t, ts.URL+"/v1/graphs", graphRequest{Kind: "sparse", N: 64, Seed: 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("store-full status = %d, want 507", resp.StatusCode)
	}
}

// TestStoreSharding exercises concurrent Put/Get under the race
// detector.
func TestStoreSharding(t *testing.T) {
	s := NewStore(128)
	var wg sync.WaitGroup
	ids := make([]string, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := testGraph(64, int64(i))
			sg, err := s.Put(g, fmt.Sprintf("t%d", i))
			if err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			ids[i] = sg.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("graph %s lost", id)
		}
	}
}

// TestVersionBudgetExactUnderConcurrentWrites races Puts of distinct
// graphs against unpinned Patches of one lineage on a store with room for
// budget versions: exactly budget writes land, every other one is refused
// with ErrStoreFull, and every admitted lineage and version stays
// reachable.
func TestVersionBudgetExactUnderConcurrentWrites(t *testing.T) {
	const budget, writers = 8, 16
	s := NewStore(budget)
	base, err := s.Put(testGraph(64, 0), "base")
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*graph.CSR, writers)
	distinct := map[string]bool{base.ID: true}
	for i := range graphs {
		graphs[i] = testGraph(64, int64(i+1))
		distinct[GraphID(graphs[i].Fingerprint())] = true
	}
	if len(distinct) != writers+1 {
		t.Fatalf("%d distinct graphs, want %d", len(distinct), writers+1)
	}

	var (
		mu         sync.Mutex
		lineages   = []string{base.ID}
		versionIDs = []string{base.Head().ID}
		refused    int
		wg         sync.WaitGroup
	)
	admit := func(lineage, version string, err error) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			if lineage != "" {
				lineages = append(lineages, lineage)
			}
			versionIDs = append(versionIDs, version)
		case err == ErrStoreFull:
			refused++
		default:
			t.Errorf("write failed with %v, want nil or ErrStoreFull", err)
		}
	}
	start := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			sg, err := s.Put(graphs[i], fmt.Sprintf("w%d", i))
			if err != nil {
				admit("", "", err)
				return
			}
			admit(sg.ID, sg.Head().ID, nil)
		}()
		go func() {
			defer wg.Done()
			d := &graph.EdgeDelta{Inserts: []graph.Edge{{From: int32(i), To: int32(i + 32), Weight: 1}}}
			if err := d.Canonicalize(64); err != nil {
				t.Error(err)
				return
			}
			<-start
			v, _, ok, err := s.Patch(base.ID, d, "")
			if !ok {
				t.Error("Patch lost the base lineage")
				return
			}
			if err != nil {
				admit("", "", err)
				return
			}
			admit("", v.ID, nil)
		}()
	}
	close(start)
	wg.Wait()

	if len(versionIDs) != budget || refused != 2*writers+1-budget {
		t.Fatalf("%d writes admitted, %d refused; want %d and %d", len(versionIDs), refused, budget, 2*writers+1-budget)
	}
	if n := s.VersionTotal(); n != budget {
		t.Fatalf("VersionTotal = %d, want %d", n, budget)
	}
	listed := map[string]bool{}
	for _, sg := range s.List() {
		listed[sg.ID] = true
	}
	for _, id := range lineages {
		if !listed[id] {
			t.Errorf("admitted lineage %s missing from List", id)
		}
	}
	for _, id := range versionIDs {
		if _, v, ok := s.Resolve(id); !ok || v.ID != id {
			t.Errorf("admitted version %s does not resolve", id)
		}
	}
}

// TestRunStrategyPartitionsCacheKey: the same run with a different
// strategy must be a fresh computation, not a cache hit — the strategy
// knob participates in the result-cache key. An invalid strategy is a
// 400.
func TestRunStrategyPartitionsCacheKey(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "sparse", 512, 1)

	run := func(strategy string) runResponse {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/run", runRequest{
			Graph: gr.ID, Kernel: "BFS", Threads: 4, Strategy: strategy,
		})
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("run strategy=%q: status %d: %s", strategy, resp.StatusCode, b)
		}
		var rr runResponse
		decodeBody(t, resp, &rr)
		return rr
	}

	if r := run("scan"); r.Cached {
		t.Fatal("first scan run reported cached")
	}
	if r := run("frontier"); r.Cached {
		t.Fatal("frontier run hit the scan run's cache entry: strategy missing from the key")
	}
	if r := run("scan"); !r.Cached {
		t.Fatal("repeated scan run missed the cache")
	}
	// The serving layer defaults to frontier, so omitting the field must
	// share the explicit frontier entry.
	if r := run(""); !r.Cached {
		t.Fatal("default-strategy run did not coalesce onto the frontier entry")
	}
	// "hybrid" is a name for frontier: same kernel, same entry.
	if r := run("hybrid"); !r.Cached {
		t.Fatal("hybrid run did not coalesce onto the frontier entry")
	}

	resp := postJSON(t, ts.URL+"/v1/run", runRequest{Graph: gr.ID, Kernel: "BFS", Strategy: "warp"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid strategy: status %d, want 400", resp.StatusCode)
	}
}

// TestRuntimeGauges verifies the process-health gauges the stress harness
// asserts over: goroutines and heap are live runtime readings, and the
// in-flight run gauge returns to zero once work drains.
func TestRuntimeGauges(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "sparse", 512, 1)
	resp := postJSON(t, ts.URL+"/v1/run", runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 2})
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	m := fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, "crono_goroutines"); v < 1 {
		t.Errorf("crono_goroutines = %v, want >= 1", v)
	}
	if v := metricValue(t, m, "crono_heap_alloc_bytes"); v <= 0 {
		t.Errorf("crono_heap_alloc_bytes = %v, want > 0", v)
	}
	if v := metricValue(t, m, "crono_inflight_runs"); v != 0 {
		t.Errorf("crono_inflight_runs = %v after drain, want 0", v)
	}
	if got := s.inflight.Load(); got != 0 {
		t.Errorf("inflight counter = %d after run completed, want 0", got)
	}
}

// TestRetryAfterAdaptive pins the backoff hint formula: depth per worker,
// clamped to [1, 30] seconds.
func TestRetryAfterAdaptive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 4
	s := New(cfg)
	defer s.Close()
	for _, tc := range []struct {
		depth int64
		want  int
	}{{0, 1}, {3, 1}, {8, 2}, {200, 30}} {
		s.pool.depth.Store(tc.depth)
		if got := s.retryAfterSeconds(); got != tc.want {
			t.Errorf("retryAfterSeconds(depth=%d) = %d, want %d", tc.depth, got, tc.want)
		}
	}
	s.pool.depth.Store(0)
}
