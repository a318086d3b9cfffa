package service

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crono/internal/core"
	"crono/internal/graph"
	"crono/internal/native"
)

// longRuns lists runs that outlast their deadline many times over:
// PageRank on the simulator with a million iterations is hours of work
// uncanceled, and the two BFS rows take tens of milliseconds
// single-threaded against a 1 ms deadline. Those are lone members of a
// batch group — the path that used to run under a server-owned context
// and keep its worker until the whole pass had finished.
var longRuns = []struct {
	name      string
	kind      string
	n         int
	req       runRequest
	timeoutMS int
}{
	{"PageRank sim", "sparse", 4000, runRequest{Kernel: "PageRank", Platform: "sim", Threads: 8, Iters: 1_000_000}, 100},
	{"BFS frontier", "social", 1 << 16, runRequest{Kernel: "BFS", Strategy: "frontier", Threads: 1, Source: 1}, 1},
	{"BFS hybrid", "social", 1 << 16, runRequest{Kernel: "BFS", Strategy: "hybrid", Threads: 1, Source: 1}, 1},
}

// waitDrained waits for the pool to empty: the handler has already
// returned, but the worker may still be inside the kernel until its next
// checkpoint.
func waitDrained(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, "the worker slot to be freed", func() bool { return s.pool.Depth() == 0 })
}

// TestDeadlinedRunFreesWorkerSlot is the end-to-end cancellation check: a
// /v1/run whose deadline expires mid-kernel must (a) answer 504 without
// waiting for the kernel, (b) abort the kernel at its next checkpoint so
// the single worker slot drains long before the run's natural completion
// — no completed kernel run is ever counted — and (c) leave a
// crono_run_errors_total{...,reason="deadline"} series in /metrics.
func TestDeadlinedRunFreesWorkerSlot(t *testing.T) {
	for _, tc := range longRuns {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = 1
			cfg.QueueLen = 4
			s, ts := newTestServer(t, cfg)
			gr := createGraph(t, ts.URL, tc.kind, tc.n, 1)

			req := tc.req
			req.Graph, req.TimeoutMS = gr.ID, tc.timeoutMS
			resp := postJSON(t, ts.URL+"/v1/run", req)
			var e errorResponse
			decodeBody(t, resp, &e)
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("status %d (%s), want 504", resp.StatusCode, e.Error.Message)
			}
			waitDrained(t, s)
			if n := s.m.runs(req.Kernel).Value(); n != 0 {
				t.Fatalf("%d kernel runs completed for a request that was deadlined", n)
			}

			// The freed slot must be immediately usable: a small run on the
			// sole worker succeeds.
			resp = postJSON(t, ts.URL+"/v1/run", runRequest{
				Graph: gr.ID, Kernel: "PageRank", Threads: 2, Iters: 2,
			})
			var ok runResponse
			decodeBody(t, resp, &ok)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("follow-up run after abort: status %d", resp.StatusCode)
			}

			m := fetchMetrics(t, ts.URL)
			series := `crono_run_errors_total{kernel="` + req.Kernel + `",reason="deadline"}`
			if v := metricValue(t, m, series); v < 1 {
				t.Fatalf("%s = %v, want >= 1", series, v)
			}
		})
	}
}

// pollCtx is a context whose Err turns non-nil at its n-th poll. Neither
// the pool, the batcher nor the platforms wait on its Done — they poll
// Err: the pool or the batcher once at dequeue, the platform once before
// starting the threads and then at every checkpoint — so a run under it
// is canceled mid-flight at a point fixed by poll count, not wall clock.
type pollCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunCanceledMidFlight: a run whose request is canceled while its
// kernel is executing stops at the next checkpoint, delivers the
// cancellation and no result, and is not counted as a completed run —
// on the direct path and as the lone member of a batch group alike.
func TestRunCanceledMidFlight(t *testing.T) {
	for _, tc := range []struct {
		name, kernel, strategy string
		kind                   graph.Kind
		grouped                bool
	}{
		{"SSSP_DIJK direct", "SSSP_DIJK", "frontier", graph.KindSparse, false},
		{"BFS frontier on a deep version, direct", "BFS", "frontier", graph.KindRoadCA, false},
		{"BFS frontier in a group", "BFS", "frontier", graph.KindSparse, true},
		{"BFS hybrid in a group", "BFS", "hybrid", graph.KindSparse, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(DefaultConfig())
			defer s.Close()
			sg, err := s.store.Put(graph.Generate(tc.kind, 4096, 1), "test")
			if err != nil {
				t.Fatal(err)
			}
			spec, p := mustPlan(t, s, runRequest{Graph: sg.ID, Kernel: tc.kernel, Strategy: tc.strategy, Threads: 2, Source: 1})
			if p.join != tc.grouped {
				t.Fatalf("join = %t (%q), want %t", p.join, p.plan, tc.grouped)
			}

			// Polls 1 and 2 are the dequeue and the platform's entry check;
			// two threads poll once a round, so the 4th poll lands in the
			// first or second round of a traversal that has at least four.
			ctx := &pollCtx{Context: context.Background()}
			ctx.left.Store(3)
			var val any
			if p.join {
				val, err = s.joinBatch(ctx, spec, p)
			} else {
				val, err = s.execute(ctx, spec, p)
			}
			if !errors.Is(err, context.Canceled) || val != nil {
				t.Fatalf("got (%v, %v), want the cancellation and no result", val, err)
			}
			if left := ctx.left.Load(); left >= 0 {
				t.Fatalf("run ended with %d polls to spare: it never saw the cancellation", left+1)
			}
			if n := s.m.runs(tc.kernel).Value(); n != 0 {
				t.Fatalf("%d completed runs counted for a canceled one", n)
			}
			if n := s.m.runErrors(tc.kernel, "canceled").Value(); n != 1 {
				t.Fatalf("canceled run errors = %d, want 1", n)
			}
			waitDrained(t, s)
		})
	}
}

// TestServedPageRankRunsPullKernel: a PageRank served with the default
// strategy must be answered by the pull kernel, not by the paper's
// lock-per-edge push scan: its single-threaded instruction count equals
// a direct frontier run's and differs from a direct scan run's.
func TestServedPageRankRunsPullKernel(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "social", 4096, 5)
	resp := postJSON(t, ts.URL+"/v1/run", runRequest{Graph: gr.ID, Kernel: "PageRank", Threads: 1})
	var rr runResponse
	decodeBody(t, resp, &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PageRank: status %d: %+v", resp.StatusCode, rr)
	}

	_, ver, _ := s.store.Resolve(gr.ID)
	pr, err := core.ByName("PageRank")
	if err != nil {
		t.Fatal(err)
	}
	pull, err := pr.Run(context.Background(), native.New(), core.Request{Input: core.Input{G: ver.Graph()}, Threads: 1, Strategy: core.StrategyFrontier})
	if err != nil {
		t.Fatal(err)
	}
	push, err := core.PageRank(context.Background(), native.New(), ver.Graph(), 1, core.DefaultPageRankIters)
	if err != nil {
		t.Fatal(err)
	}
	want, scan := pull.Report.TotalInstructions(), push.Report.TotalInstructions()
	if want == scan {
		t.Fatalf("pull and push both count %d instructions: the comparison proves nothing", want)
	}
	if rr.TotalInstructions != want {
		t.Fatalf("served totalInstructions = %d, want %d (direct pull; direct push counts %d)", rr.TotalInstructions, want, scan)
	}
}

// TestRunKnobValidation exercises the per-kernel knobs that moved into the
// run request: negative values are rejected before any work is queued.
func TestRunKnobValidation(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "sparse", 64, 1)

	bad := []runRequest{
		{Graph: gr.ID, Kernel: "PageRank", Iters: -1},
		{Graph: gr.ID, Kernel: "COMM", MaxPasses: -2},
		{Graph: gr.ID, Kernel: "SSSP_DIJK", Strategy: "frontier", Delta: -3},
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
	if d := run(runRequest{Graph: gr.ID, Kernel: "SSSP_DIJK", Strategy: "frontier", Threads: 2, Delta: 8}); d.Cached {
		t.Fatal("SSSP_DIJK with explicit delta hit the cache")
	}
	if e := run(runRequest{Graph: gr.ID, Kernel: "SSSP_DIJK", Strategy: "frontier", Threads: 2, Delta: 16}); e.Cached {
		t.Fatal("different delta hit the same cache entry")
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
	waitDrained(t, s)
	m := fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, `crono_run_errors_total{kernel="PageRank",reason="canceled"}`); v < 1 {
		t.Fatalf("crono_run_errors_total canceled series = %v, want >= 1", v)
	}
}

// TestGroupMemberDoneAtDequeueIsNotRun: a batch-group member whose client has
// gone away by the time a worker dequeues the group is answered with its
// own cancellation and never run, while the member queued beside it is
// served.
func TestGroupMemberDoneAtDequeueIsNotRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	s, ts := newTestServer(t, cfg)
	gr := createGraph(t, ts.URL, "sparse", 2000, 1)
	release := holdWorkers(t, s)

	gone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(
			`{"graph":"`+gr.ID+`","kernel":"BFS","threads":2,"source":1}`))
		resp, err := (&http.Client{Timeout: 100 * time.Millisecond}).Do(req)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	waitFor(t, "the first member to join", func() bool { return openMembers(s) == 1 })
	stays := make(chan *http.Response, 1)
	go func() { stays <- runFrom(t, ts.URL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 2, Source: 2}) }()
	waitFor(t, "the second member to join", func() bool { return openMembers(s) == 2 })
	if err := <-gone; err == nil {
		t.Fatal("expected client-side timeout, got response")
	}
	waitFor(t, "the server to see the client go", func() bool { return s.m.runErrors("BFS", "canceled").Value() == 1 })
	release()

	resp := <-stays
	if resp == nil {
		t.FailNow()
	}
	var rr runResponse
	decodeBody(t, resp, &rr)
	if resp.StatusCode != http.StatusOK || rr.Plan != "single:alone" {
		t.Fatalf("surviving member: status %d, %+v; want a lone single", resp.StatusCode, rr)
	}
	waitDrained(t, s)
	if n := s.m.runs("BFS").Value(); n != 1 {
		t.Fatalf("%d BFS runs completed, want 1 (the member that went away must not run)", n)
	}
}

// TestAwaitDeliveredResultWins pins the rule "a delivered result wins":
// a run whose result is already delivered when its context has ended
// answers with that result (the handler's 200), not the context's error,
// whichever ready case select draws — so it is checked many times. With
// nothing delivered, the context's error stands.
func TestAwaitDeliveredResultWins(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	bench, err := core.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	spec := &runSpec{bench: bench}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	want := &runResponse{}
	for i := 0; i < 100; i++ {
		p := newPending(ctx, spec, runPlan{})
		p.ch <- runOut{resp: want}
		if got, err := s.await(p); err != nil || got != want {
			t.Fatalf("delivered result on a canceled context: got (%v, %v), want the result", got, err)
		}
	}
	if _, err := s.await(newPending(ctx, spec, runPlan{})); !errors.Is(err, context.Canceled) {
		t.Fatalf("nothing delivered on a canceled context: err %v, want context.Canceled", err)
	}
}
