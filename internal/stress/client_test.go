package stress

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startServer boots an in-process service for client tests and registers
// cleanup. The scenario only supplies server overrides and graphs.
func startServer(t *testing.T, sc *Scenario) (string, *Client) {
	t.Helper()
	base, shutdown, err := StartInProcess(sc)
	if err != nil {
		t.Fatalf("StartInProcess: %v", err)
	}
	t.Cleanup(shutdown)
	c := NewClient(base, &http.Client{Timeout: 30 * time.Second})
	if err := c.Setup(context.Background(), sc.Graphs); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return base, c
}

func testScenario() *Scenario {
	return &Scenario{
		Name:   "client-test",
		Seed:   1,
		Server: &ServerConfig{Workers: 2, Queue: 8, MaxBodyBytes: 64 << 10, ReadTimeoutMs: 300},
		Graphs: []GraphSpec{{Handle: "g", Kind: "sparse", N: 1024, Seed: 3}},
	}
}

func cleanOp(seq int) *Op {
	return &Op{
		Seq: seq, Kernel: "BFS", Graph: "g", Platform: "native",
		Strategy: "frontier", Threads: 2, TimeoutMs: 10000,
	}
}

func TestClientCleanRunAndCacheFlag(t *testing.T) {
	_, c := startServer(t, testScenario())
	ctx := context.Background()

	first := c.Do(ctx, "p", 0, cleanOp(0))
	if first.Status != 200 || first.Err != "" {
		t.Fatalf("clean run: %+v", first)
	}
	if first.Violation != "" {
		t.Fatalf("clean run flagged violation %q", first.Violation)
	}
	if first.LatencyMs <= 0 {
		t.Fatalf("observation lost its latency: %+v", first)
	}
	// Identical request again: must come from the result cache.
	second := c.Do(ctx, "p", 0, cleanOp(1))
	if second.Status != 200 || !second.Cached {
		t.Fatalf("repeat run not cached: %+v", second)
	}
}

func TestClientFaultOversize(t *testing.T) {
	_, c := startServer(t, testScenario())
	op := &Op{Seq: 0, Fault: FaultOversize, OversizeBytes: 1 << 20}
	obs := c.Do(context.Background(), "p", 0, op)
	if obs.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize upload: status %d, want 413 (%+v)", obs.Status, obs)
	}
	if obs.Violation != "" {
		t.Fatalf("oversize upload violation: %q", obs.Violation)
	}
	if obs.Kind != "graph" {
		t.Fatalf("oversize op kind %q, want graph", obs.Kind)
	}
}

func TestClientFaultBadJSON(t *testing.T) {
	_, c := startServer(t, testScenario())
	obs := c.Do(context.Background(), "p", 0, &Op{Seq: 0, Fault: FaultBadJSON})
	if obs.Status != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400 (%+v)", obs.Status, obs)
	}
}

func TestClientFaultDupUpload(t *testing.T) {
	_, c := startServer(t, testScenario())
	obs := c.Do(context.Background(), "p", 0, &Op{Seq: 0, Fault: FaultDupUpload, DupSeed: 2})
	if obs.Violation != "" {
		t.Fatalf("dedup violation: %q", obs.Violation)
	}
	if obs.Status != http.StatusCreated {
		t.Fatalf("dup upload status %d, want 201 (%+v)", obs.Status, obs)
	}
}

func TestClientFaultDeadline(t *testing.T) {
	_, c := startServer(t, testScenario())
	// A 1ms budget on a run that needs far longer: the server must
	// answer 504, not hang or 500. The simulated scan PageRank takes
	// 85–110 ms uncanceled on a 2-vCPU host, about 85 times the budget.
	// A run near the budget cannot serve: a frontier BFS on this graph
	// takes 1.4–2.3 ms, and a delivered result wins (Server.await).
	op := &Op{
		Seq: 0, Fault: FaultDeadline, Kernel: "PageRank", Graph: "g",
		Platform: "sim", Strategy: "scan", Threads: 2, SimCores: 16,
		TimeoutMs: 1,
	}
	obs := c.Do(context.Background(), "p", 0, op)
	if obs.Status != http.StatusGatewayTimeout {
		t.Fatalf("deadline fault: status %d, want 504 (%+v)", obs.Status, obs)
	}
}

func TestClientFaultCancel(t *testing.T) {
	_, c := startServer(t, testScenario())
	op := &Op{
		Seq: 0, Fault: FaultCancel, Kernel: "BFS", Graph: "g",
		Platform: "sim", Strategy: "frontier", Threads: 2, SimCores: 16,
		TimeoutMs: 10000, CancelAfterMs: 2,
	}
	obs := c.Do(context.Background(), "p", 0, op)
	// The client tore the request down mid-flight: either no response
	// (status 0 + error) or, if the race went the server's way, a
	// deliberate 503. Anything else is a bug.
	switch obs.Status {
	case 0:
		if obs.Err == "" {
			t.Fatalf("canceled op has no status and no error: %+v", obs)
		}
	case http.StatusServiceUnavailable, http.StatusOK:
	default:
		t.Fatalf("cancel fault: unexpected status %d (%+v)", obs.Status, obs)
	}
}

func TestClientFaultSlowBody(t *testing.T) {
	_, c := startServer(t, testScenario()) // 300ms read timeout
	op := &Op{
		Seq: 0, Fault: FaultSlowBody, Kernel: "BFS", Graph: "g",
		Platform: "native", Strategy: "frontier", Threads: 2,
		TimeoutMs: 10000, SlowBodyMs: 5000,
	}
	start := time.Now()
	obs := c.Do(context.Background(), "p", 0, op)
	elapsed := time.Since(start)
	// The server's read deadline must kill the trickled upload long
	// before the body would have completed.
	if elapsed > 3*time.Second {
		t.Fatalf("slow-body request took %s; read timeout did not fire", elapsed)
	}
	if obs.Status == http.StatusOK {
		t.Fatalf("slow-body request succeeded against a 300ms read timeout: %+v", obs)
	}
}

func TestClientRetryAfterObservation(t *testing.T) {
	// A stub that sheds with and without the header, to pin the
	// observation logic itself.
	withHeader := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if withHeader {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, nil)

	obs := c.Do(context.Background(), "p", 0, cleanOp(0))
	if obs.Status != 429 || !obs.RetryAfter {
		t.Fatalf("shed with header: %+v", obs)
	}
	withHeader = false
	obs = c.Do(context.Background(), "p", 0, cleanOp(1))
	if obs.Status != 429 || obs.RetryAfter {
		t.Fatalf("shed without header not detected: %+v", obs)
	}
}

func TestSlowReaderTrickles(t *testing.T) {
	data := strings.Repeat("a", 1600)
	r := &slowReader{ctx: context.Background(), data: []byte(data), totalMs: 80}
	start := time.Now()
	var got []byte
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	if string(got) != data {
		t.Fatalf("slowReader corrupted payload: %d bytes", len(got))
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("slowReader finished in %s; not trickling", elapsed)
	}
	// Canceled context aborts the trickle.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r2 := &slowReader{ctx: ctx, data: []byte(data), totalMs: 10000}
	if _, err := r2.Read(buf); err == nil {
		t.Fatal("slowReader ignored canceled context")
	}
}

func TestClientPatchOp(t *testing.T) {
	_, c := startServer(t, testScenario())
	op := &Op{Seq: 0, Graph: "g", PatchInserts: 6, PatchDeletes: 3, PatchSeed: 0x9e3779b97f4a7c15}
	obs := c.Do(context.Background(), "p", 0, op)
	if obs.Kind != "patch" {
		t.Fatalf("op kind %q, want patch", obs.Kind)
	}
	if obs.Status != 200 || obs.Violation != "" {
		t.Fatalf("patch op: %+v", obs)
	}
	// A run against the mutated graph still works and names a version.
	run := c.Do(context.Background(), "p", 0, cleanOp(1))
	if run.Status != 200 {
		t.Fatalf("run after patch: %+v", run)
	}
}

func TestClientUnstructuredErrorIsViolation(t *testing.T) {
	// A stub that 500s with a bare body: the harness must flag the
	// missing envelope, not just record the status.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	obs := c.Do(context.Background(), "p", 0, cleanOp(0))
	if obs.Status != 500 || obs.Violation == "" {
		t.Fatalf("bare 500 not flagged: %+v", obs)
	}
}

func TestClientErrorCodeCaptured(t *testing.T) {
	_, c := startServer(t, testScenario())
	// Force a structured 404 by pointing a run at a dangling handle.
	op := &Op{Seq: 0, Kernel: "BFS", Graph: "missing", Platform: "native",
		Strategy: "frontier", Threads: 2, TimeoutMs: 1000}
	obs := c.Do(context.Background(), "p", 0, op)
	if obs.Status != 404 || obs.Code != "graph-not-found" {
		t.Fatalf("structured code not captured: %+v", obs)
	}
	if obs.Violation != "" {
		t.Fatalf("structured 404 flagged as violation: %+v", obs)
	}
}

// TestMaxPassesReachesRunBody follows a mix entry's maxPasses through the
// planner and the client into the /v1/run body; an entry without one
// sends none.
func TestMaxPassesReachesRunBody(t *testing.T) {
	var bodies []map[string]any
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body map[string]any
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			t.Errorf("decode run body: %v", err)
		}
		bodies = append(bodies, body)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, nil)

	for _, mix := range []MixEntry{
		{Weight: 1, Kernel: "COMM", Graph: "g", MaxPasses: 3},
		{Weight: 1, Kernel: "COMM", Graph: "g"},
	} {
		sc := &Scenario{
			Name: "max-passes", Seed: 1,
			Graphs: []GraphSpec{{Handle: "g", Kind: "sparse", N: 64, Seed: 1}},
			Phases: []Phase{{Name: "p", Users: 1, Requests: 1, Arrival: Arrival{Pattern: "closed"}, Mix: []MixEntry{mix}}},
		}
		sc.normalize()
		sched, err := Plan(sc)
		if err != nil {
			t.Fatalf("Plan: %v", err)
		}
		op := sched.Phases[0].Users[0].Ops[0]
		if op.MaxPasses != mix.MaxPasses {
			t.Fatalf("planned op maxPasses %d, want %d", op.MaxPasses, mix.MaxPasses)
		}
		c.Do(context.Background(), "p", 0, &op)
	}
	if len(bodies) != 2 {
		t.Fatalf("%d run bodies, want 2", len(bodies))
	}
	if got := bodies[0]["maxPasses"]; got != 3.0 {
		t.Fatalf("run body maxPasses = %v, want 3", got)
	}
	if _, ok := bodies[1]["maxPasses"]; ok {
		t.Fatalf("run body without a bound carries maxPasses: %v", bodies[1])
	}
}
