package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"crono/internal/core"
	"crono/internal/graph"
)

// holdWorkers occupies every pool worker with a task that blocks until
// the returned release is called, so that whatever the test submits next
// queues behind them: the deterministic stand-in for a saturated pool.
// Release is idempotent and also runs at cleanup, before the server's
// own Close.
func holdWorkers(t *testing.T, s *Server) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	var started sync.WaitGroup
	for i := 0; i < s.cfg.Workers; i++ {
		started.Add(1)
		if err := s.pool.Submit(context.Background(), func() { started.Done(); <-gate }); err != nil {
			t.Fatalf("hold worker %d: %v", i, err)
		}
	}
	started.Wait()
	return release
}

// runFrom sends one /v1/run from a goroutine other than the test's own:
// it reports failures with t.Errorf and returns nil for them.
func runFrom(t *testing.T, base string, req runRequest) *http.Response {
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("POST /v1/run source %d: %v", req.Source, err)
		return nil
	}
	return resp
}

// openMembers counts the members of the groups still open to joiners.
func openMembers(s *Server) int {
	s.batches.mu.Lock()
	defer s.batches.mu.Unlock()
	n := 0
	for _, grp := range s.batches.groups {
		n += len(grp.members)
	}
	return n
}

// waitFor polls cond until it holds, failing the test after 15 seconds
// (a simulator run under the race detector can take seconds to reach the
// checkpoint at which it notices a cancellation).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldBurst fires one /v1/run BFS request per source while every worker
// is held, waits until queued reports that the whole burst sits in the
// pool queue, releases the workers and returns the decoded replies,
// failing the test on any non-200.
func heldBurst(t *testing.T, s *Server, base, graphID, strategy string, sources []int, queued func() bool) []runResponse {
	t.Helper()
	release := holdWorkers(t, s)
	out := make([]runResponse, len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func(i, src int) {
			defer wg.Done()
			resp := runFrom(t, base, runRequest{
				Graph: graphID, Kernel: "BFS", Platform: "native",
				Strategy: strategy, Threads: 2, Source: src,
			})
			if resp == nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				t.Errorf("source %d: status %d: %s", src, resp.StatusCode, b)
			} else if err := json.NewDecoder(resp.Body).Decode(&out[i]); err != nil {
				t.Errorf("source %d: decode reply: %v", src, err)
			}
		}(i, src)
	}
	waitFor(t, "the burst to queue", queued)
	release()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return out
}

// payloads records the payload of every run a server executes, by cache
// key (Server.observe): replies carry none, and the cache keeps only
// replies.
type payloads struct {
	mu  sync.Mutex
	res map[string]*core.Result
}

// recordPayloads starts recording s's payloads. Call it before the first
// run on s.
func recordPayloads(s *Server) *payloads {
	p := &payloads{res: make(map[string]*core.Result)}
	s.observe = func(key string, res *core.Result) {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.res[key] = res
	}
	return p
}

// get returns the payload of the run of key, nil if no run of key
// finished.
func (p *payloads) get(key string) *core.Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.res[key]
}

// mustGet is get for the test's own goroutine: it fails the test if no
// run of key finished.
func (p *payloads) mustGet(t testing.TB, key string) *core.Result {
	t.Helper()
	res := p.get(key)
	if res == nil {
		t.Fatalf("no run of %s finished", key)
	}
	return res
}

// servedLevels returns the BFS levels the server computed for a
// default-shaped burst request (native, 2 threads) from src.
func servedLevels(t *testing.T, rec *payloads, versionID, strategy string, src int) []int32 {
	t.Helper()
	req := &runRequest{Platform: "native", Strategy: strategy, Threads: 2, Source: src}
	return rec.mustGet(t, runCacheKey(versionID, mustBench(t, "BFS"), req, graph.OrderNone)).BFS.Level
}

// TestBatchedRunsCoalesce queues a burst of 67 distinct-source BFS
// requests behind a held worker, under the "hybrid" name so the alias is
// grouped and cached as the frontier strategy it stands for: the first 64
// fill one group and run as one bit-parallel pass, the other 3 form a
// group below the break-even and run the frontier kernel. Every result,
// batched or not, is bit-identical to the sequential reference and cached
// per source, and nothing is left running afterwards.
func TestBatchedRunsCoalesce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	s, ts := newTestServer(t, cfg)
	rec := recordPayloads(s)
	gr := createGraph(t, ts.URL, "sparse", 2000, 3)
	atRest := runtime.NumGoroutine()

	const rest = breakEven - 1
	const k = core.BFSBatchWidth + rest
	sources := make([]int, k)
	for i := range sources {
		sources[i] = i
	}
	out := heldBurst(t, s, ts.URL, gr.ID, "hybrid", sources, func() bool {
		// The held task, the full group (out of the map) and the open one.
		return s.pool.Depth() == 3 && openMembers(s) == rest
	})

	_, ver, _ := s.store.Resolve(gr.ID)
	batched := 0
	for i, rr := range out {
		switch {
		case rr.Batched && rr.Plan == "batch:k=64":
			batched++
		case !rr.Batched && rr.Plan == fmt.Sprintf("single:below-break-even(k=%d<%d)", rest, breakEven):
		default:
			t.Fatalf("response %d: batched=%t plan=%q", i, rr.Batched, rr.Plan)
		}
		if rr.Cached || rr.GraphVersion != gr.Version {
			t.Fatalf("response %d: %+v", i, rr)
		}
		if rr.QueueWaitSeconds <= 0 {
			t.Fatalf("response %d queued behind a held worker reports queueWaitSeconds %v", i, rr.QueueWaitSeconds)
		}
		if got, want := servedLevels(t, rec, ver.ID, "frontier", sources[i]), core.BFSRef(ver.Graph(), sources[i]); !slices.Equal(got, want) {
			t.Fatalf("source %d (batched=%t): levels differ from the sequential reference", sources[i], rr.Batched)
		}
	}
	if batched != core.BFSBatchWidth {
		t.Fatalf("%d responses batched, want %d", batched, core.BFSBatchWidth)
	}
	if n := s.cache.Len(); n != k {
		t.Fatalf("%d replies cached, want one per source (%d)", n, k)
	}

	m := fetchMetrics(t, ts.URL)
	for series, want := range map[string]float64{
		"crono_batch_passes_total":                     1,
		`crono_batched_runs_total{kernel="BFS"}`:       core.BFSBatchWidth,
		`crono_kernel_runs_total{kernel="BFS"}`:        1 + rest,
		"crono_cache_misses_total":                     k,
		`crono_queue_wait_seconds_count{kernel="BFS"}`: k,
	} {
		if v := metricValue(t, m, series); v != want {
			t.Errorf("%s = %v, want %v", series, v, want)
		}
	}

	// Batched results are cached per source like any other run result, and
	// the replay repeats the original run's plan and queue wait.
	for _, src := range []int{5, k - 1} {
		resp := postJSON(t, ts.URL+"/v1/run", runRequest{Graph: gr.ID, Kernel: "BFS", Strategy: "hybrid", Threads: 2, Source: src})
		var replay runResponse
		decodeBody(t, resp, &replay)
		first := out[src]
		if !replay.Cached || replay.Batched != first.Batched || replay.Plan != first.Plan || replay.QueueWaitSeconds != first.QueueWaitSeconds {
			t.Fatalf("replay of source %d: %+v, first reply %+v", src, replay, first)
		}
	}

	// No timer or group goroutine outlives the burst.
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines to return to the at-rest count", func() bool { return runtime.NumGoroutine() <= atRest })
	if n := openMembers(s); n != 0 {
		t.Fatalf("%d members left in open groups at rest", n)
	}
}

// TestBatchedRunMatchesUnbatched queues break-even many frontier sources
// into one pass and checks each batched result against the
// same request served alone by an idle server.
func TestBatchedRunMatchesUnbatched(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	s, ts := newTestServer(t, cfg)
	rec := recordPayloads(s)
	gr := createGraph(t, ts.URL, "social", 3000, 9)
	sources := make([]int, breakEven)
	for i := range sources {
		sources[i] = i + 1
	}

	out := heldBurst(t, s, ts.URL, gr.ID, "", sources, func() bool { return openMembers(s) == len(sources) })
	for i, rr := range out {
		if !rr.Batched || rr.Plan != fmt.Sprintf("batch:k=%d", breakEven) || rr.TotalInstructions == 0 || rr.TimeUnit != "ns" {
			t.Fatalf("burst response %d: %+v", i, rr)
		}
	}
	m := fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, "crono_batch_passes_total"); v != 1 {
		t.Errorf("batch passes = %v, want 1", v)
	}
	if v := metricValue(t, m, `crono_batched_runs_total{kernel="BFS"}`); v != breakEven {
		t.Errorf("batched runs = %v, want %d", v, breakEven)
	}

	idle, its := newTestServer(t, DefaultConfig())
	idleRec := recordPayloads(idle)
	createGraph(t, its.URL, "social", 3000, 9)
	for _, src := range sources {
		resp := postJSON(t, its.URL+"/v1/run", runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 2, Source: src})
		var rr runResponse
		decodeBody(t, resp, &rr)
		if rr.Batched || rr.Plan != "single:alone" {
			t.Fatalf("source %d alone on an idle server: %+v", src, rr)
		}
		if !slices.Equal(servedLevels(t, rec, gr.Version, "frontier", src), servedLevels(t, idleRec, gr.Version, "frontier", src)) {
			t.Fatalf("source %d: batched levels differ from the unbatched run", src)
		}
	}
	// A batched payload is kept as the lineage's repair seed, so no row
	// may be a window of the pass's one level array, which would keep
	// every member's rows alive: no row may start where another ends.
	for _, a := range sources {
		for _, b := range sources {
			ra, rb := servedLevels(t, rec, gr.Version, "frontier", a), servedLevels(t, rec, gr.Version, "frontier", b)
			if unsafe.Add(unsafe.Pointer(unsafe.SliceData(ra)), 4*len(ra)) == unsafe.Pointer(unsafe.SliceData(rb)) {
				t.Fatalf("the levels of sources %d and %d are adjacent windows of one array", a, b)
			}
		}
	}
}

// TestBatchingOptOuts verifies the shapes that never form a group even
// when the pool is saturated: scan-strategy runs (paper fidelity) and
// runs on a deep version, where no group size makes a pass win. Each
// request is its own pool task and its own kernel run.
func TestBatchingOptOuts(t *testing.T) {
	for _, tc := range []struct {
		name, kind, strategy string
		deep                 bool
	}{
		{"scan strategy", "sparse", "scan", false},
		{"deep version", "road-ca", "hybrid", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = 1
			s, ts := newTestServer(t, cfg)
			gr := createGraph(t, ts.URL, tc.kind, 1000, 1)
			plan := "" // a scan run is not of batchable shape: no plan at all
			if tc.deep {
				_, ver, _ := s.store.Resolve(gr.ID)
				plan = fmt.Sprintf("single:deep(depth=%d)", ver.materialize().BFSDepth())
			}
			out := heldBurst(t, s, ts.URL, gr.ID, tc.strategy, []int{0, 1, 2, 3}, func() bool { return s.pool.Depth() == 1+4 })
			for i, rr := range out {
				if rr.Batched || rr.Plan != plan {
					t.Fatalf("response %d: batched=%t plan=%q, want unbatched with plan %q", i, rr.Batched, rr.Plan, plan)
				}
			}
			m := fetchMetrics(t, ts.URL)
			if v := metricValue(t, m, `crono_kernel_runs_total{kernel="BFS"}`); v != 4 {
				t.Errorf("kernel runs = %v, want 4 (one per request)", v)
			}
			if v := metricValue(t, m, "crono_batch_passes_total"); v != 0 {
				t.Errorf("batch passes = %v, want 0", v)
			}
		})
	}
}

// TestIdleClosedLoopNeverBatches: two closed-loop clients on two idle
// workers can never put break-even many requests in one group, so every BFS runs
// as a single — no pass, no batched run — and a request that found the
// pool idle reports the plan of a lone run.
func TestIdleClosedLoopNeverBatches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 2
	_, ts := newTestServer(t, cfg)
	gr := createGraph(t, ts.URL, "sparse", 2000, 3)
	var wg sync.WaitGroup
	for client := 0; client < 2; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp := runFrom(t, ts.URL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 2, Source: client*1000 + i})
				if resp == nil {
					return
				}
				var rr runResponse
				err := json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				if err != nil || rr.Batched || (rr.Plan != "single:alone" && rr.Plan != "single:below-break-even(k=2<4)") {
					t.Errorf("client %d request %d: batched=%t plan=%q", client, i, rr.Batched, rr.Plan)
				}
			}
		}(client)
	}
	wg.Wait()
	m := fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, "crono_batch_passes_total"); v != 0 {
		t.Errorf("batch passes = %v, want 0", v)
	}
	if v := metricValue(t, m, `crono_kernel_runs_total{kernel="BFS"}`); v != 80 {
		t.Errorf("kernel runs = %v, want 80", v)
	}
}

// TestPlanBatch pins the batcher's decision table for every group size
// around the break-even, shallow and deep, and the depth estimates of
// the graph families the repository benchmark serves BFS on (the plan of
// each of its classes is pinned by TestPlanRun).
func TestPlanBatch(t *testing.T) {
	for _, tc := range []struct {
		k, depth int
		batch    bool
		reason   string
	}{
		{1, 4, false, "single:alone"},
		{2, 4, false, "single:below-break-even(k=2<4)"},
		{3, 4, false, "single:below-break-even(k=3<4)"},
		{4, 4, true, "batch:k=4"},
		{16, 4, true, "batch:k=16"},
		{64, 4, true, "batch:k=64"},
		{64, deepBFSDepth, true, "batch:k=64"},
		{1, 212, false, "single:deep(depth=212)"},
		{2, 212, false, "single:deep(depth=212)"},
		{16, 212, false, "single:deep(depth=212)"},
		{64, 212, false, "single:deep(depth=212)"},
		{64, deepBFSDepth + 1, false, fmt.Sprintf("single:deep(depth=%d)", deepBFSDepth+1)},
	} {
		batch, reason := planBatch(tc.k, tc.depth)
		if batch != tc.batch || reason != tc.reason {
			t.Errorf("planBatch(%d, %d) = %t, %q; want %t, %q", tc.k, tc.depth, batch, reason, tc.batch, tc.reason)
		}
	}

	// The benchmark's BFS classes, on the graph families it serves them on.
	s := New(DefaultConfig())
	defer s.Close()
	version := func(kind graph.Kind) *Version {
		sg, err := s.store.Put(graph.Generate(kind, 4096, 1), "generated:"+string(kind))
		if err != nil {
			t.Fatal(err)
		}
		return sg.Head()
	}
	road, social := version(graph.KindRoadCA), version(graph.KindSocial)
	// A joiner that stays alone in its group runs as a lone single.
	if _, plan := planBatch(1, social.materialize().BFSDepth()); plan != "single:alone" {
		t.Errorf("lone BFS.social.hybrid plan %q, want single:alone", plan)
	}
	if d := road.materialize().BFSDepth(); d <= deepBFSDepth {
		t.Errorf("road-ca depth estimate %d, want deep (> %d)", d, deepBFSDepth)
	}
	if d := social.materialize().BFSDepth(); d < 1 || d > deepBFSDepth {
		t.Errorf("social depth estimate %d, want shallow (1..%d)", d, deepBFSDepth)
	}
}

// TestGroupSubmitFailureShedsEveryMember saturates the pool and fires a
// concurrent burst: no group can be queued, so every member — the one
// whose submission failed and any that joined its group meanwhile — is
// shed with 429 + Retry-After and counted once.
func TestGroupSubmitFailureShedsEveryMember(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.QueueLen = 1
	s, ts := newTestServer(t, cfg)
	gr := createGraph(t, ts.URL, "sparse", 256, 1)
	release := holdWorkers(t, s)
	if err := s.pool.Submit(context.Background(), func() {}); err != nil {
		t.Fatalf("fill the queue slot: %v", err)
	}

	const k = 16
	var wg sync.WaitGroup
	for src := 0; src < k; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			resp := runFrom(t, ts.URL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 2, Source: src})
			if resp == nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
				t.Errorf("source %d: status %d, Retry-After %q; want 429 with a hint", src, resp.StatusCode, resp.Header.Get("Retry-After"))
			}
		}(src)
	}
	wg.Wait()
	release()
	if n := openMembers(s); n != 0 {
		t.Fatalf("%d members left in open groups after every submission failed", n)
	}
	m := fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, "crono_load_shed_total"); v != k {
		t.Fatalf("load shed counter = %v, want %d", v, k)
	}
}

// TestGroupInterleavings drives the batcher with seeded random schedules
// of the four things that can happen to a group — a member joins, a
// worker dequeues, a member's request is canceled, the pool closes — and
// checks that every member gets exactly one answer of an expected kind
// (a correct result, its own cancellation, or a shed), that no worker is
// left blocked on a delivery, and that no group survives at rest.
func TestGroupInterleavings(t *testing.T) {
	g := graph.Generate(graph.KindSparse, 500, 7)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Workers = 1 + rng.Intn(2)
		cfg.QueueLen = 1 + rng.Intn(4) // small enough that some submissions shed
		s := New(cfg)
		rec := recordPayloads(s)
		sg, err := s.store.Put(g, "test")
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg       sync.WaitGroup
			answered atomic.Int64
			cancels  []context.CancelFunc
			gates    []chan struct{} // held workers, oldest first
			joined   int
			closed   bool
		)
		for step := 0; step < 80; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // join
				ctx, cancel := context.WithCancel(context.Background())
				cancels = append(cancels, cancel)
				spec, p := mustPlan(t, s, runRequest{Graph: sg.ID, Kernel: "BFS", Strategy: "frontier", Threads: 2, Source: joined})
				if !p.join {
					t.Fatalf("seed %d: a shallow native frontier BFS does not join: %+v", seed, p)
				}
				joined++
				wg.Add(1)
				go func() {
					defer wg.Done()
					val, err := s.joinBatch(ctx, spec, p)
					answered.Add(1)
					src := spec.req.Source
					switch {
					case err == nil:
						if rr := val.(*runResponse); rr.GraphVersion != sg.Head().ID {
							t.Errorf("seed %d source %d: reply on %s", seed, src, rr.GraphVersion)
						}
						if res := rec.get(p.key); res == nil || !slices.Equal(res.BFS.Level, core.BFSRef(g, src)) {
							t.Errorf("seed %d source %d: wrong levels", seed, src)
						}
					case errors.Is(err, context.Canceled), errors.Is(err, ErrSaturated), errors.Is(err, ErrPoolClosed):
					default:
						t.Errorf("seed %d source %d: unexpected error %v", seed, src, err)
					}
				}()
			case op < 7: // hold a worker, so that groups queue behind it
				gate := make(chan struct{})
				if s.pool.Submit(context.Background(), func() { <-gate }) == nil {
					gates = append(gates, gate)
				}
			case op < 8: // dequeue: free the oldest held worker
				if len(gates) > 0 {
					close(gates[0])
					gates = gates[1:]
				}
			case op < 9: // cancel a random member, answered or not
				if len(cancels) > 0 {
					cancels[rng.Intn(len(cancels))]()
				}
			default: // close the pool, once, in the last quarter of the schedule
				if step > 60 && !closed {
					closed = true
					for _, gate := range gates {
						close(gate)
					}
					gates = nil
					s.Close()
				}
			}
			if rng.Intn(4) == 0 {
				runtime.Gosched()
			}
		}
		for _, gate := range gates {
			close(gate)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); s.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("seed %d: %d of %d members answered; a member or a worker is stuck", seed, answered.Load(), joined)
		}
		for _, cancel := range cancels {
			cancel()
		}
		if int(answered.Load()) != joined {
			t.Fatalf("seed %d: %d answers for %d members", seed, answered.Load(), joined)
		}
		if n := openMembers(s); n != 0 || len(s.batches.groups) != 0 {
			t.Fatalf("seed %d: %d members in %d groups at rest", seed, n, len(s.batches.groups))
		}
		if d := s.pool.Depth(); d != 0 {
			t.Fatalf("seed %d: pool depth %d at rest", seed, d)
		}
	}
}
