package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"crono/internal/core"
	"crono/internal/graph"
)

// mustPlan validates and plans req on s, failing the test on a rejection.
func mustPlan(t testing.TB, s *Server, req runRequest) (*runSpec, runPlan) {
	t.Helper()
	spec, bad := s.validateRun(req)
	if bad != nil {
		t.Fatalf("%+v rejected: %d %s: %s", req, bad.status, bad.code, bad.msg)
	}
	return spec, planRun(spec.bench, &spec.req, spec.vf)
}

// planFixture is a server holding the inputs of every class the
// repository benchmark serves, in the state the benchmark leaves them:
// a road lineage whose head classes ran on the root before one patch of
// serve-churn's shape (four undirected inserts, one undirected delete),
// a social graph, and a sparse lineage patched past the repair size gate
// after a BFS on its root. refs maps the names requests use to the
// resident references.
type planFixture struct {
	s    *Server
	refs map[string]string
}

func newPlanFixture(t testing.TB) *planFixture {
	s := New(DefaultConfig())
	t.Cleanup(s.Close)
	call := func(method, path string, body any) {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
	}
	put := func(kind graph.Kind, n int) *StoredGraph {
		sg, err := s.store.Put(graph.Generate(kind, n, 1), "generated:"+string(kind))
		if err != nil {
			t.Fatal(err)
		}
		return sg
	}
	road, social, big := put(graph.KindRoadCA, 4096), put(graph.KindSocial, 1024), put(graph.KindSparse, 256)
	f := &planFixture{s: s, refs: map[string]string{
		"road": road.ID, "road-root": road.Head().ID,
		"social": social.ID, "social-version": social.Head().ID,
		"big": big.ID,
	}}

	for _, kernel := range []string{"BFS", "CONN_COMP", "SSSP_DIJK"} {
		call("POST", "/v1/run", runRequest{Graph: road.ID, Kernel: kernel, Threads: 2, Source: 1})
	}
	g := road.Head().Graph()
	v := 100
	for g.Degree(v) == 0 {
		v++
	}
	ts, _ := g.Neighbors(v)
	var patch patchRequest
	for i := int32(0); i < 4; i++ {
		patch.Inserts = append(patch.Inserts, edgeSpec{From: i, To: 3000 + i, Weight: 1}, edgeSpec{From: 3000 + i, To: i, Weight: 1})
	}
	patch.Deletes = []edgeSpec{{From: int32(v), To: ts[0]}, {From: ts[0], To: int32(v)}}
	call("PATCH", "/v1/graphs/"+road.ID, patch)

	call("POST", "/v1/run", runRequest{Graph: big.ID, Kernel: "BFS", Threads: 2, Source: 1})
	bg := big.Head().Graph()
	patch = patchRequest{}
	// The gate measures the patched graph, which has at most m+|delta| edges.
	for i := 0; len(patch.Inserts)*7 <= bg.M(); i++ {
		patch.Inserts = append(patch.Inserts, edgeSpec{From: int32(i % bg.N), To: int32((i%bg.N + 1 + i/bg.N) % bg.N), Weight: 1})
	}
	call("PATCH", "/v1/graphs/"+big.ID, patch)
	return f
}

// ref resolves a graph name of the fixture; other references pass
// through unchanged.
func (f *planFixture) ref(name string) string {
	if id, ok := f.refs[name]; ok {
		return id
	}
	return name
}

// runCodes is the part of the error catalog validateRun may answer with.
var runCodes = map[string]bool{
	codeUnknownKernel: true, codeUnknownPlatform: true, codeUnknownStrategy: true,
	codeThreadsOutOfRange: true, codeUnknownOrder: true, codeBadParams: true,
	codeSimThreadOverflow: true, codeSimCoresOutOfRange: true, codeCitiesOutOfRange: true,
	codeGraphNotFound: true, codeSourceOutOfRange: true,
	codeDenseTooLarge: true,
}

// checkPlan asserts what holds for every accepted run and its plan.
func checkPlan(t *testing.T, s *Server, spec *runSpec, p runPlan) {
	t.Helper()
	req := spec.req
	if req.Iters < 0 || req.MaxPasses < 0 || req.Delta < 0 || req.TimeoutMS < 0 {
		t.Fatalf("accepted a negative knob: %+v", req)
	}
	if spec.timeout <= 0 || spec.timeout > s.cfg.MaxTimeout {
		t.Fatalf("deadline %v outside (0, %v]", spec.timeout, s.cfg.MaxTimeout)
	}
	if req.Platform == "sim" {
		if err := spec.sim.Validate(); err != nil || spec.sim.Cores != req.SimCores || req.Threads > req.SimCores {
			t.Fatalf("sim plan with %d cores for %d threads: %v", spec.sim.Cores, req.Threads, err)
		}
	}
	if p.key == "" || p.join != (p.group != "") || (p.join && p.group == p.key) {
		t.Fatalf("keys: %+v", p)
	}
	switch {
	case p.order != graph.OrderNone && (p.prev != nil || p.join):
		t.Fatalf("ordered run with a seed or a group: %+v", p)
	case (req.Strategy == string(core.StrategyScan) || req.Platform == "sim") && p.join:
		t.Fatalf("scan or sim run joins a group: %+v", p)
	case p.prev != nil && p.join:
		t.Fatalf("seeded run joins a group: %+v", p)
	case p.keep != (req.Strategy == string(core.StrategyFrontier) && p.order == graph.OrderNone && spec.bench.Repair != nil):
		t.Fatalf("keeps a seed no repair would start from, or drops one it would: %+v", p)
	case p.prev != nil && !p.keep:
		t.Fatalf("repaired run keeps no seed: %+v", p)
	}
	if req.Platform == "native" {
		plain := req
		plain.SimCores, plain.OutOfOrder = 0, false
		if q := planRun(spec.bench, &plain, spec.vf); q.key != p.key {
			t.Fatalf("sim-only knobs in a native key: %q vs %q", p.key, q.key)
		}
	}
}

// planRows pins the plan of every class the repository benchmark serves
// (bench/serve.go) and of every rule that decides between ordering,
// repair and batching.
var planRows = []struct {
	class string
	req   runRequest
	order graph.Order
	seed  bool
	join  bool
	plan  string // "deep" stands for the road version's single:deep reason
}{
	{"BFS.road", runRequest{Graph: "road-root", Kernel: "BFS"}, graph.OrderNone, false, false, "deep"},
	{"BFS.social.hybrid", runRequest{Graph: "social", Kernel: "BFS", Strategy: "hybrid"}, graph.OrderNone, false, true, "batch:k=64"},
	{"SSSP.road", runRequest{Graph: "road-root", Kernel: "SSSP_DIJK"}, graph.OrderNone, false, false, ""},
	{"SSSP.social.rcm", runRequest{Graph: "social", Kernel: "SSSP_DIJK", Order: "rcm"}, graph.OrderRCM, false, false, ""},
	// Every serve-churn patch deletes an edge: CONN_COMP is planned as a
	// repair and its Repair declines, so the run recomputes.
	{"CONN_COMP.head", runRequest{Graph: "road", Kernel: "CONN_COMP"}, graph.OrderNone, true, false, ""},
	{"BFS.head", runRequest{Graph: "road", Kernel: "BFS"}, graph.OrderNone, true, false, ""},
	{"SSSP.head", runRequest{Graph: "road", Kernel: "SSSP_DIJK"}, graph.OrderNone, false, false, ""},
	{"BFS.pinned", runRequest{Graph: "social-version", Kernel: "BFS"}, graph.OrderNone, false, true, "batch:k=64"},

	{"repairable head under order:degree", runRequest{Graph: "road", Kernel: "BFS", Order: "degree"}, graph.OrderDegree, false, false, ""},
	{"ordered BFS on a shallow version", runRequest{Graph: "social", Kernel: "BFS", Order: "degree"}, graph.OrderDegree, false, false, ""},
	{"scan head", runRequest{Graph: "road", Kernel: "BFS", Strategy: "scan"}, graph.OrderNone, false, false, ""},
	{"sim BFS", runRequest{Graph: "social", Kernel: "BFS", Platform: "sim", Threads: 4, SimCores: 16}, graph.OrderNone, false, false, ""},
	{"COMM with an order", runRequest{Graph: "social", Kernel: "COMM", Order: "degree"}, graph.OrderNone, false, false, ""},
	{"APSP with an order", runRequest{Graph: "social", Kernel: "APSP", Order: "rcm"}, graph.OrderNone, false, false, ""},
	{"BFS head past the size gate", runRequest{Graph: "big", Kernel: "BFS"}, graph.OrderNone, false, true, "batch:k=64"},
	{"TSP", runRequest{Kernel: "TSP", Cities: 6, Seed: 3}, graph.OrderNone, false, false, ""},
}

// TestPlanRun pins planRun's decision for every row of planRows.
func TestPlanRun(t *testing.T) {
	f := newPlanFixture(t)
	_, root, _ := f.s.store.Resolve(f.refs["road-root"])
	for _, tc := range planRows {
		req := tc.req
		req.Graph, req.Source = f.ref(req.Graph), 1
		if req.Threads == 0 {
			req.Threads = 2
		}
		spec, p := mustPlan(t, f.s, req)
		want := tc.plan
		if want == "deep" {
			want = fmt.Sprintf("single:deep(depth=%d)", root.materialize().BFSDepth())
		}
		if p.order != tc.order || (p.prev != nil) != tc.seed || p.join != tc.join || p.plan != want {
			t.Errorf("%s: order %s, seed %t, join %t, plan %q; want %s, %t, %t, %q",
				tc.class, p.order, p.prev != nil, p.join, p.plan, tc.order, tc.seed, tc.join, want)
		}
		checkPlan(t, f.s, spec, p)
	}
}

// FuzzPlanRun validates and plans arbitrary request bodies against the
// fixture's graphs without executing them: a request is either rejected
// with a 4xx and a catalogued code, or planned by the rules checkPlan
// asserts.
func FuzzPlanRun(f *testing.F) {
	fx := newPlanFixture(f)
	for _, tc := range planRows {
		body, err := json.Marshal(tc.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"graph":"social","kernel":"BFS","platform":"sim","simCores":10,"threads":2}`))
	f.Add([]byte(`{"graph":"social","kernel":"BFS","platform":"sim","simCores":4,"threads":2}`))
	f.Add([]byte(`{"graph":"road","kernel":"BFS","timeoutMs":-5}`))
	f.Add([]byte(`{"graph":"road-root","kernel":"BFS","outOfOrder":true}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req runRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		req.Graph = fx.ref(req.Graph)
		spec, bad := fx.s.validateRun(req)
		if bad != nil {
			if bad.status < 400 || bad.status > 499 || !runCodes[bad.code] {
				t.Fatalf("%s rejected with %d %q", body, bad.status, bad.code)
			}
			return
		}
		checkPlan(t, fx.s, spec, planRun(spec.bench, &spec.req, spec.vf))
	})
}

// TestNativeKeyIgnoresSimKnobs: simCores and outOfOrder do not change a
// native run, so a native request carrying them is served the entry of
// the same request without them.
func TestNativeKeyIgnoresSimKnobs(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "sparse", 256, 1)
	for i, req := range []runRequest{
		{Graph: gr.ID, Kernel: "BFS", Threads: 2},
		{Graph: gr.ID, Kernel: "BFS", Threads: 2, OutOfOrder: true},
		{Graph: gr.ID, Kernel: "BFS", Threads: 2, SimCores: 16},
	} {
		var rr runResponse
		decodeBody(t, postJSON(t, ts.URL+"/v1/run", req), &rr)
		if rr.Cached != (i > 0) {
			t.Fatalf("request %d %+v: cached=%t, want %t", i, req, rr.Cached, i > 0)
		}
	}
}
