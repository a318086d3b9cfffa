package service

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDeadlinedRunFreesWorkerSlot is the end-to-end cancellation check: a
// /v1/run whose deadline expires mid-kernel must (a) answer 504 without
// waiting for the kernel, (b) abort the kernel at its next checkpoint so
// the single worker slot drains long before the run's natural completion,
// and (c) leave a crono_run_errors_total{...,reason="deadline"} series in
// /metrics. The kernel is PageRank on the simulator with a million
// iterations — hours of work uncanceled — so the slot freeing within
// seconds can only be the cooperative abort.
func TestDeadlinedRunFreesWorkerSlot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.QueueLen = 4
	s, ts := newTestServer(t, cfg)
	gr := createGraph(t, ts.URL, "sparse", 4000, 1)

	resp := postJSON(t, ts.URL+"/v1/run", runRequest{
		Graph:     gr.ID,
		Kernel:    "PageRank",
		Platform:  "sim",
		Threads:   8,
		Iters:     1_000_000,
		TimeoutMS: 100,
	})
	var e errorResponse
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, e.Error.Message)
	}

	// The handler already returned, but the worker may still be inside the
	// kernel until the next checkpoint. It must drain promptly.
	deadline := time.Now().Add(15 * time.Second)
	for s.pool.Depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool depth still %d 15s after the 100ms deadline: worker slot not freed", s.pool.Depth())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The freed slot must be immediately usable: a small run on the sole
	// worker succeeds.
	resp = postJSON(t, ts.URL+"/v1/run", runRequest{
		Graph: gr.ID, Kernel: "PageRank", Threads: 2, Iters: 2,
	})
	var ok runResponse
	decodeBody(t, resp, &ok)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up run after abort: status %d", resp.StatusCode)
	}

	m := fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, `crono_run_errors_total{kernel="PageRank",reason="deadline"}`); v < 1 {
		t.Fatalf("crono_run_errors_total deadline series = %v, want >= 1", v)
	}
}

// TestRunKnobValidation exercises the per-kernel knobs that moved into the
// run request: negative values and out-of-range targets are rejected
// before any work is queued.
func TestRunKnobValidation(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "sparse", 64, 1)

	bad := []runRequest{
		{Graph: gr.ID, Kernel: "PageRank", Iters: -1},
		{Graph: gr.ID, Kernel: "COMM", MaxPasses: -2},
		{Graph: gr.ID, Kernel: "SSSP_DELTA", Delta: -3},
		{Graph: gr.ID, Kernel: "BFS_TARGET", Target: 64},
		{Graph: gr.ID, Kernel: "BFS_TARGET", Target: -1},
	}
	for _, req := range bad {
		resp := postJSON(t, ts.URL+"/v1/run", req)
		var e errorResponse
		decodeBody(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d (%s), want 400", req, resp.StatusCode, e.Error.Message)
		}
	}
}

// TestRunKnobsPartitionCache: requests that differ only in a kernel knob
// must not share a cached result.
func TestRunKnobsPartitionCache(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "sparse", 256, 1)

	run := func(req runRequest) runResponse {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/run", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d", req, resp.StatusCode)
		}
		var rr runResponse
		decodeBody(t, resp, &rr)
		return rr
	}

	a := run(runRequest{Graph: gr.ID, Kernel: "PageRank", Threads: 2, Iters: 2})
	if a.Cached {
		t.Fatal("first run reported cached")
	}
	if b := run(runRequest{Graph: gr.ID, Kernel: "PageRank", Threads: 2, Iters: 2}); !b.Cached {
		t.Fatal("identical rerun missed the cache")
	}
	if c := run(runRequest{Graph: gr.ID, Kernel: "PageRank", Threads: 2, Iters: 3}); c.Cached {
		t.Fatal("different iters hit the same cache entry")
	}
	if d := run(runRequest{Graph: gr.ID, Kernel: "SSSP_DELTA", Threads: 2, Delta: 8}); d.Cached {
		t.Fatal("SSSP_DELTA with explicit delta hit the cache")
	}
	if e := run(runRequest{Graph: gr.ID, Kernel: "SSSP_DELTA", Threads: 2, Delta: 16}); e.Cached {
		t.Fatal("different delta hit the same cache entry")
	}
}

// TestRunTargetReachesKernel: the BFS_TARGET knob changes the observable
// response (an early-exit search does strictly less work for a near
// target than a far one would on a long path graph), and the variant is
// servable at all through /v1/run.
func TestRunTargetReachesKernel(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "road-tx", 4096, 1)

	resp := postJSON(t, ts.URL+"/v1/run", runRequest{
		Graph: gr.ID, Kernel: "BFS_TARGET", Threads: 2, Source: 0, Target: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("BFS_TARGET run: status %d", resp.StatusCode)
	}
	var rr runResponse
	decodeBody(t, resp, &rr)
	if rr.Kernel != "BFS_TARGET" || rr.Time == 0 {
		t.Fatalf("bad response %+v", rr)
	}
}

// TestPreCanceledRequestCountsCanceled: a client that goes away before
// the run starts is accounted under reason="canceled", not "deadline".
func TestPreCanceledRequestCountsCanceled(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "sparse", 8192, 1)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(
		`{"graph":"`+gr.ID+`","kernel":"PageRank","platform":"sim","threads":8,"iters":1000000}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	client := &http.Client{Timeout: 150 * time.Millisecond}
	if resp, err := client.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("expected client-side timeout, got response")
	}

	deadline := time.Now().Add(15 * time.Second)
	for s.pool.Depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool depth still %d after client disconnect", s.pool.Depth())
		}
		time.Sleep(5 * time.Millisecond)
	}
	m := fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, `crono_run_errors_total{kernel="PageRank",reason="canceled"}`); v < 1 {
		t.Fatalf("crono_run_errors_total canceled series = %v, want >= 1", v)
	}
}
