package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"crono/internal/core"
	"crono/internal/graph"
)

func patchJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPatch, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PATCH %s: %v", url, err)
	}
	return resp
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if v != nil {
		decodeBody(t, resp, v)
	}
	return resp
}

// errorCode decodes the structured envelope and returns its code.
func errorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	var e errorResponse
	decodeBody(t, resp, &e)
	if e.Error.Code == "" {
		t.Fatalf("status %d carried no structured error code", resp.StatusCode)
	}
	return e.Error.Code
}

func TestPatchLifecycle(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "sparse", 256, 1)
	if gr.Versions != 1 || !strings.HasPrefix(gr.Version, "v") {
		t.Fatalf("fresh graph: %+v", gr)
	}
	root := gr.Version

	// Apply a mixed batch.
	resp := patchJSON(t, ts.URL+"/v1/graphs/"+gr.ID, patchRequest{
		Inserts: []edgeSpec{{From: 0, To: 100, Weight: 3}, {From: 100, To: 0, Weight: 3}},
		Deletes: []edgeSpec{{From: 250, To: 251}}, // absent is a documented no-op
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: status %d", resp.StatusCode)
	}
	var pr patchResponse
	decodeBody(t, resp, &pr)
	if pr.Ordinal != 1 || pr.Parent != root || pr.Version == root || pr.DeltaSize != 3 {
		t.Fatalf("patch response: %+v", pr)
	}

	// The graph ID now resolves to the new head.
	var head graphResponse
	getJSON(t, ts.URL+"/v1/graphs/"+gr.ID, &head)
	if head.Version != pr.Version || head.Versions != 2 {
		t.Fatalf("head after patch: %+v", head)
	}
	if head.M != gr.M+2 {
		t.Fatalf("head m = %d, want %d (+2 inserts, no-op delete)", head.M, gr.M+2)
	}

	// The root version ID still pins the unmutated content.
	var pinned graphResponse
	getJSON(t, ts.URL+"/v1/graphs/"+root, &pinned)
	if pinned.Version != root || pinned.M != gr.M {
		t.Fatalf("pinned root: %+v, want version %s with m=%d", pinned, root, gr.M)
	}

	// Lineage listing, root first.
	var vl versionsResponse
	getJSON(t, ts.URL+"/v1/graphs/"+gr.ID+"/versions", &vl)
	if vl.Head != pr.Version || len(vl.Versions) != 2 {
		t.Fatalf("versions: %+v", vl)
	}
	if vl.Versions[0].ID != root || vl.Versions[0].Ordinal != 0 || vl.Versions[0].DeltaSize != 0 {
		t.Fatalf("root entry: %+v", vl.Versions[0])
	}
	if vl.Versions[1].ID != pr.Version || vl.Versions[1].Parent != root || vl.Versions[1].DeltaSize != 3 {
		t.Fatalf("child entry: %+v", vl.Versions[1])
	}

	// Retrying the identical patch pinned to the (now stale) root replays
	// idempotently instead of conflicting.
	resp = patchJSON(t, ts.URL+"/v1/graphs/"+gr.ID, patchRequest{
		Inserts: []edgeSpec{{From: 0, To: 100, Weight: 3}, {From: 100, To: 0, Weight: 3}},
		Deletes: []edgeSpec{{From: 250, To: 251}},
		Parent:  root,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d", resp.StatusCode)
	}
	var replay patchResponse
	decodeBody(t, resp, &replay)
	if !replay.Replayed || replay.Version != pr.Version {
		t.Fatalf("replay response: %+v, want replayed %s", replay, pr.Version)
	}

	// A different patch pinned to the stale root is a genuine conflict.
	resp = patchJSON(t, ts.URL+"/v1/graphs/"+gr.ID, patchRequest{
		Inserts: []edgeSpec{{From: 1, To: 2, Weight: 9}},
		Parent:  root,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale pin: status %d, want 409", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != codeVersionConflict {
		t.Fatalf("stale pin code %q, want %q", code, codeVersionConflict)
	}

	m := fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, `crono_patch_requests_total{result="applied"}`); v != 1 {
		t.Fatalf("applied counter = %v, want 1", v)
	}
	if v := metricValue(t, m, `crono_patch_requests_total{result="replayed"}`); v != 1 {
		t.Fatalf("replayed counter = %v, want 1", v)
	}
	if v := metricValue(t, m, `crono_patch_requests_total{result="conflict"}`); v != 1 {
		t.Fatalf("conflict counter = %v, want 1", v)
	}
	if v := metricValue(t, m, `crono_graph_versions`); v != 2 {
		t.Fatalf("crono_graph_versions = %v, want 2", v)
	}
}

func TestGraphListPaging(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	ids := make(map[string]bool)
	for seed := int64(1); seed <= 3; seed++ {
		ids[createGraph(t, ts.URL, "sparse", 128, seed).ID] = true
	}

	var page graphListResponse
	getJSON(t, ts.URL+"/v1/graphs?limit=2", &page)
	if page.Total != 3 || len(page.Graphs) != 2 || page.Offset != 0 {
		t.Fatalf("first page: %+v", page)
	}
	var rest graphListResponse
	getJSON(t, ts.URL+"/v1/graphs?offset=2&limit=2", &rest)
	if rest.Total != 3 || len(rest.Graphs) != 1 {
		t.Fatalf("second page: %+v", rest)
	}
	// Pages are disjoint and ID-ordered; together they cover the store.
	seen := make(map[string]bool)
	last := ""
	for _, g := range append(page.Graphs, rest.Graphs...) {
		if g.ID <= last {
			t.Fatalf("listing not ID-ordered: %q after %q", g.ID, last)
		}
		last = g.ID
		seen[g.ID] = true
		if !ids[g.ID] {
			t.Fatalf("listed unknown graph %q", g.ID)
		}
		if g.N != 128 || g.Versions != 1 || !strings.HasPrefix(g.Head, "v") {
			t.Fatalf("summary: %+v", g)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("pages covered %d graphs, want 3", len(seen))
	}

	resp := getJSON(t, ts.URL+"/v1/graphs?offset=nope", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad offset: status %d", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != codeBadPage {
		t.Fatalf("bad offset code %q, want %q", code, codeBadPage)
	}
}

// TestRunCacheVersioned is the zero-staleness contract: a cached result
// is never served for a different version than the one the response
// names. Mutating a graph must trigger fresh computation for the new
// head while the old version's result stays servable under its pin.
func TestRunCacheVersioned(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "sparse", 512, 1)

	run := func(ref string) runResponse {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/run", runRequest{Graph: ref, Kernel: "PageRank", Threads: 2, Iters: 3})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %s: status %d", ref, resp.StatusCode)
		}
		var rr runResponse
		decodeBody(t, resp, &rr)
		return rr
	}

	a := run(gr.ID)
	if a.Cached || a.GraphVersion != gr.Version || a.Graph != gr.ID {
		t.Fatalf("first run: %+v, want fresh on %s", a, gr.Version)
	}
	if b := run(gr.ID); !b.Cached || b.GraphVersion != gr.Version {
		t.Fatalf("rerun: %+v, want cached on %s", b, gr.Version)
	}

	resp := patchJSON(t, ts.URL+"/v1/graphs/"+gr.ID, patchRequest{
		Inserts: []edgeSpec{{From: 0, To: 1, Weight: 1}, {From: 1, To: 0, Weight: 1}},
	})
	var pr patchResponse
	decodeBody(t, resp, &pr)

	// The graph ID now names the child: a cached parent result must not
	// be served.
	c := run(gr.ID)
	if c.Cached || c.GraphVersion != pr.Version {
		t.Fatalf("post-patch run: %+v, want fresh on %s", c, pr.Version)
	}
	// The parent pin still hits its own cache entry.
	if d := run(gr.Version); !d.Cached || d.GraphVersion != gr.Version {
		t.Fatalf("pinned parent run: %+v, want cached on %s", d, gr.Version)
	}
	// And the child is cached under its version now.
	if e := run(pr.Version); !e.Cached || e.GraphVersion != pr.Version {
		t.Fatalf("pinned child run: %+v, want cached on %s", e, pr.Version)
	}
}

// TestConcurrentPatches races mutators on one lineage. Pinned to the
// same parent with different deltas, exactly one lands and the other
// 409s; unpinned, both land in a serialized chain.
func TestConcurrentPatches(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "sparse", 256, 1)

	type outcome struct {
		status int
		code   string
	}
	results := make([]outcome, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := patchJSON(t, ts.URL+"/v1/graphs/"+gr.ID, patchRequest{
				Inserts: []edgeSpec{{From: int32(i), To: int32(i + 10), Weight: 1}},
				Parent:  gr.Version,
			})
			results[i].status = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				resp.Body.Close()
			} else {
				var e errorResponse
				decodeBody(t, resp, &e)
				results[i].code = e.Error.Code
			}
		}()
	}
	wg.Wait()
	wins, conflicts := 0, 0
	for _, r := range results {
		switch {
		case r.status == http.StatusOK:
			wins++
		case r.status == http.StatusConflict && r.code == codeVersionConflict:
			conflicts++
		default:
			t.Fatalf("unexpected outcome %+v", r)
		}
	}
	if wins != 1 || conflicts != 1 {
		t.Fatalf("pinned race: %d wins, %d conflicts, want 1/1", wins, conflicts)
	}

	// Unpinned patches serialize: both land, chain grows to 4.
	wg = sync.WaitGroup{}
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := patchJSON(t, ts.URL+"/v1/graphs/"+gr.ID, patchRequest{
				Inserts: []edgeSpec{{From: int32(20 + i), To: int32(30 + i), Weight: 1}},
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("unpinned patch %d: status %d", i, resp.StatusCode)
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	var vl versionsResponse
	getJSON(t, ts.URL+"/v1/graphs/"+gr.ID+"/versions", &vl)
	if len(vl.Versions) != 4 {
		t.Fatalf("lineage has %d versions, want 4 (root + pinned win + 2 unpinned)", len(vl.Versions))
	}
	for i, v := range vl.Versions {
		if v.Ordinal != i {
			t.Fatalf("version %d has ordinal %d", i, v.Ordinal)
		}
		if i > 0 && v.Parent != vl.Versions[i-1].ID {
			t.Fatalf("version %d parent %s, want %s", i, v.Parent, vl.Versions[i-1].ID)
		}
	}
}

// TestVersionsCountAgainstMaxGraphs pins the budget semantics: every
// version — roots and patches alike — draws from MaxGraphs.
func TestVersionsCountAgainstMaxGraphs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxGraphs = 3
	_, ts := newTestServer(t, cfg)
	gr := createGraph(t, ts.URL, "sparse", 64, 1)

	for i := 0; i < 2; i++ {
		resp := patchJSON(t, ts.URL+"/v1/graphs/"+gr.ID, patchRequest{
			Inserts: []edgeSpec{{From: int32(i), To: int32(i + 20), Weight: 1}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("patch %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Budget exhausted: both further mutation and new graphs refuse.
	resp := patchJSON(t, ts.URL+"/v1/graphs/"+gr.ID, patchRequest{
		Inserts: []edgeSpec{{From: 40, To: 41, Weight: 1}},
	})
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("patch over budget: status %d, want 507", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != codeStoreFull {
		t.Fatalf("patch over budget code %q, want %q", code, codeStoreFull)
	}
	resp = postJSON(t, ts.URL+"/v1/graphs", graphRequest{Kind: "sparse", N: 64, Seed: 99})
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("create over budget: status %d, want 507", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != codeStoreFull {
		t.Fatalf("create over budget code %q, want %q", code, codeStoreFull)
	}
}

// TestIncrementalRunThroughAPI drives the seeded-repair path end to end:
// a frontier BFS on a freshly patched head whose parent result is cached
// reports incremental=true, and a kernel/delta shape with no incremental
// form falls back to full recompute with incremental=false.
func TestIncrementalRunThroughAPI(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "road-ca", 4096, 1)

	run := func(ref, kernel string) runResponse {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/run", runRequest{Graph: ref, Kernel: kernel, Threads: 4})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %s/%s: status %d", ref, kernel, resp.StatusCode)
		}
		var rr runResponse
		decodeBody(t, resp, &rr)
		return rr
	}

	// Warm the parent's BFS and CONN_COMP entries.
	if a := run(gr.ID, "BFS"); a.Incremental {
		t.Fatalf("root run cannot be incremental: %+v", a)
	}
	run(gr.ID, "CONN_COMP")

	// Small insert-only delta: both kernels repair incrementally.
	resp := patchJSON(t, ts.URL+"/v1/graphs/"+gr.ID, patchRequest{
		Inserts: []edgeSpec{{From: 5, To: 900, Weight: 1}, {From: 900, To: 5, Weight: 1}},
	})
	var pr patchResponse
	decodeBody(t, resp, &pr)

	b := run(gr.ID, "BFS")
	if !b.Incremental || b.Cached || b.GraphVersion != pr.Version {
		t.Fatalf("patched BFS: %+v, want fresh incremental on %s", b, pr.Version)
	}
	if c := run(gr.ID, "CONN_COMP"); !c.Incremental {
		t.Fatalf("patched CONN_COMP: %+v, want incremental", c)
	}

	// A delete delta: BFS still repairs, CONN_COMP must fall back.
	resp = patchJSON(t, ts.URL+"/v1/graphs/"+gr.ID, patchRequest{
		Deletes: []edgeSpec{{From: 5, To: 900}},
	})
	decodeBody(t, resp, &pr)
	if d := run(gr.ID, "BFS"); !d.Incremental {
		t.Fatalf("delete-delta BFS: %+v, want incremental", d)
	}
	if e := run(gr.ID, "CONN_COMP"); e.Incremental {
		t.Fatalf("delete-delta CONN_COMP: %+v, want full recompute", e)
	}
	// PageRank has no incremental form at all.
	if f := run(gr.ID, "PageRank"); f.Incremental {
		t.Fatalf("PageRank: %+v, cannot be incremental", f)
	}

	m := fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, `crono_incremental_runs_total{kernel="BFS"}`); v != 2 {
		t.Fatalf("incremental BFS counter = %v, want 2", v)
	}
	if v := metricValue(t, m, `crono_incremental_runs_total{kernel="CONN_COMP"}`); v != 1 {
		t.Fatalf("incremental CONN_COMP counter = %v, want 1", v)
	}
}

// TestCommReplyIndependentOfCacheHistory: a COMM run on a patched version
// answers what a fresh server answers for that version, whether or not
// the parent version's result was cached. One thread makes the native
// instruction count an exact fingerprint of the run.
func TestCommReplyIndependentOfCacheHistory(t *testing.T) {
	onV2 := func(warmParent bool) runResponse {
		t.Helper()
		_, ts := newTestServer(t, DefaultConfig())
		gr := createGraph(t, ts.URL, "social", 2048, 42)
		run := func() runResponse {
			t.Helper()
			resp := postJSON(t, ts.URL+"/v1/run", runRequest{Graph: gr.ID, Kernel: "COMM", Threads: 1})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("COMM run: status %d", resp.StatusCode)
			}
			var rr runResponse
			decodeBody(t, resp, &rr)
			return rr
		}
		if warmParent {
			run()
		}
		resp := patchJSON(t, ts.URL+"/v1/graphs/"+gr.ID, patchRequest{
			Inserts: []edgeSpec{{From: 3, To: 1500, Weight: 1}, {From: 1500, To: 3, Weight: 1}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("patch: status %d", resp.StatusCode)
		}
		resp.Body.Close()
		// Natively the times and the breakdown are nanoseconds; the rest
		// of the reply must match.
		rr := run()
		rr.Time, rr.WallSeconds, rr.QueueWaitSeconds, rr.Breakdown = 0, 0, 0, nil
		return rr
	}
	fresh, afterParent := onV2(false), onV2(true)
	if !reflect.DeepEqual(afterParent, fresh) {
		t.Fatalf("COMM on v2 after a cached v1 run:\n%+v\nfresh server:\n%+v", afterParent, fresh)
	}
}

// TestErrorCodeCatalog pins the stable error-code contract: every
// synchronous failure path maps to its documented slug. Codes are
// append-only; a change here is a breaking API change.
func TestErrorCodeCatalog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBodyBytes = 512
	cfg.MaxVertices = 64
	cfg.MaxDenseVertices = 4
	_, ts := newTestServer(t, cfg)
	gr := createGraph(t, ts.URL, "sparse", 32, 1)
	// A second patch makes the root a stale pin for version-conflict.
	resp := patchJSON(t, ts.URL+"/v1/graphs/"+gr.ID, patchRequest{
		Inserts: []edgeSpec{{From: 0, To: 9, Weight: 1}},
	})
	resp.Body.Close()

	graphsURL := ts.URL + "/v1/graphs"
	thisURL := graphsURL + "/" + gr.ID
	runURL := ts.URL + "/v1/run"
	cases := []struct {
		name   string
		do     func() *http.Response
		status int
		code   string
	}{
		{"bad json", func() *http.Response {
			resp, err := http.Post(graphsURL, "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, 400, codeBadJSON},
		{"body too large", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Format: "snap", Data: strings.Repeat("0 1\n", 400)})
		}, 413, codeBodyTooLarge},
		{"conflicting input", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Kind: "sparse", N: 8, Format: "snap"})
		}, 400, codeConflictingInput},
		{"missing input", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{})
		}, 400, codeMissingInput},
		{"unknown format", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Format: "graphml", Data: "x"})
		}, 400, codeUnknownFormat},
		{"parse failed", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Format: "snap", Data: "garbage"})
		}, 400, codeParseFailed},
		{"unknown kind", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Kind: "hypercube", N: 8})
		}, 400, codeUnknownKind},
		{"n out of range", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Kind: "sparse", N: 1})
		}, 400, codeNOutOfRange},
		{"empty graph", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Format: "snap", Data: ""})
		}, 400, codeEmptyGraph},
		{"graph too large", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Format: "snap", Data: "0 99\n"})
		}, 413, codeGraphTooLarge},
		// Each reader refuses a count over MaxVertices before allocating
		// for it, and sizes nothing from an impossible header count.
		{"snap header too large", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Format: "snap", Data: "# nodes 200000000 edges 1\n0 1\n"})
		}, 413, codeGraphTooLarge},
		{"snap id too large", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Format: "snap", Data: "0 1\n1 199999999\n"})
		}, 413, codeGraphTooLarge},
		{"snap negative weight", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Format: "snap", Data: "0 1 -3\n"})
		}, 400, codeParseFailed},
		{"mtx too large", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Format: "mtx",
				Data: "%%MatrixMarket matrix coordinate pattern general\n200000000 200000000 1\n1 2\n"})
		}, 413, codeGraphTooLarge},
		{"mtx impossible nnz", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Format: "mtx",
				Data: "%%MatrixMarket matrix coordinate pattern general\n2 2 100000000000\n1 2\n"})
		}, 400, codeParseFailed},
		{"metis too large", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Format: "metis", Data: "200000000 1\n2\n1\n"})
		}, 413, codeGraphTooLarge},
		{"metis impossible edge count", func() *http.Response {
			return postJSON(t, graphsURL, graphRequest{Format: "metis", Data: "2 100000000000\n2\n1\n"})
		}, 400, codeParseFailed},
		{"graph not found", func() *http.Response {
			return getJSON(t, graphsURL+"/gdeadbeef", nil)
		}, 404, codeGraphNotFound},
		{"patch target not found", func() *http.Response {
			return patchJSON(t, graphsURL+"/gdeadbeef", patchRequest{Inserts: []edgeSpec{{From: 0, To: 1, Weight: 1}}})
		}, 404, codeGraphNotFound},
		{"empty delta", func() *http.Response {
			return patchJSON(t, thisURL, patchRequest{})
		}, 400, codeEmptyDelta},
		{"invalid delta", func() *http.Response {
			return patchJSON(t, thisURL, patchRequest{Inserts: []edgeSpec{{From: 3, To: 3, Weight: 1}}})
		}, 400, codeInvalidDelta},
		{"version conflict", func() *http.Response {
			return patchJSON(t, thisURL, patchRequest{
				Inserts: []edgeSpec{{From: 1, To: 7, Weight: 2}},
				Parent:  gr.Version,
			})
		}, 409, codeVersionConflict},
		{"bad page", func() *http.Response {
			return getJSON(t, graphsURL+"?limit=-1", nil)
		}, 400, codeBadPage},
		{"unknown kernel", func() *http.Response {
			return postJSON(t, runURL, runRequest{Graph: gr.ID, Kernel: "QUANTUM"})
		}, 400, codeUnknownKernel},
		{"retired kernel name", func() *http.Response {
			// Pull PageRank is PageRank with the frontier strategy.
			return postJSON(t, runURL, runRequest{Graph: gr.ID, Kernel: "PAGERANK_PULL"})
		}, 400, codeUnknownKernel},
		{"retired kernel name SSSP_DELTA", func() *http.Response {
			// Delta-stepping is SSSP_DIJK with the frontier strategy.
			return postJSON(t, runURL, runRequest{Graph: gr.ID, Kernel: "SSSP_DELTA"})
		}, 400, codeUnknownKernel},
		{"retired kernel name BFS_TARGET", func() *http.Response {
			// A frontier BFS gives every target's level.
			return postJSON(t, runURL, runRequest{Graph: gr.ID, Kernel: "BFS_TARGET"})
		}, 400, codeUnknownKernel},
		{"unknown platform", func() *http.Response {
			return postJSON(t, runURL, runRequest{Graph: gr.ID, Kernel: "BFS", Platform: "fpga"})
		}, 400, codeUnknownPlatform},
		{"unknown strategy", func() *http.Response {
			return postJSON(t, runURL, runRequest{Graph: gr.ID, Kernel: "BFS", Strategy: "quantum"})
		}, 400, codeUnknownStrategy},
		{"threads out of range", func() *http.Response {
			return postJSON(t, runURL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 100000})
		}, 400, codeThreadsOutOfRange},
		{"bad params", func() *http.Response {
			return postJSON(t, runURL, runRequest{Graph: gr.ID, Kernel: "PageRank", Iters: -1})
		}, 400, codeBadParams},
		{"sim thread overflow", func() *http.Response {
			return postJSON(t, runURL, runRequest{Graph: gr.ID, Kernel: "BFS", Platform: "sim", Threads: 8, SimCores: 4})
		}, 400, codeSimThreadOverflow},
		{"sim cores out of range", func() *http.Response {
			return postJSON(t, runURL, runRequest{Graph: gr.ID, Kernel: "BFS", Platform: "sim", Threads: 2, SimCores: 10})
		}, 400, codeSimCoresOutOfRange},
		{"cities out of range", func() *http.Response {
			return postJSON(t, runURL, runRequest{Kernel: "TSP", Cities: 2})
		}, 400, codeCitiesOutOfRange},
		{"run graph not found", func() *http.Response {
			return postJSON(t, runURL, runRequest{Graph: "gdeadbeef", Kernel: "BFS"})
		}, 404, codeGraphNotFound},
		{"source out of range", func() *http.Response {
			return postJSON(t, runURL, runRequest{Graph: gr.ID, Kernel: "BFS", Source: 32})
		}, 400, codeSourceOutOfRange},
		{"retired target field", func() *http.Response {
			// The retired targeted search's knob: an unknown field like any other.
			resp, err := http.Post(runURL, "application/json",
				strings.NewReader(`{"graph":"`+gr.ID+`","kernel":"BFS","target":1}`))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, 400, codeBadJSON},
		{"dense too large", func() *http.Response {
			return postJSON(t, runURL, runRequest{Graph: gr.ID, Kernel: "APSP"})
		}, 422, codeDenseTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp := tc.do()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if code := errorCode(t, resp); code != tc.code {
				t.Fatalf("code %q, want %q", code, tc.code)
			}
			// No refusal may cost memory on the scale of what the
			// request claims: a small body gets a small answer.
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
				t.Fatalf("allocated %d MB to refuse the request", grew>>20)
			}
		})
	}
}

// TestSaturatedEnvelope pins the 429 contract: structured code plus a
// retryAfterMs mirror of the Retry-After header.
func TestSaturatedEnvelope(t *testing.T) {
	w := httptest.NewRecorder()
	writeSaturated(w, 7)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if h := w.Header().Get("Retry-After"); h != "7" {
		t.Fatalf("Retry-After %q, want 7", h)
	}
	var e errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != codeSaturated || e.Error.RetryAfterMs != 7000 {
		t.Fatalf("envelope %+v, want %s with retryAfterMs 7000", e, codeSaturated)
	}
}

// TestVersionedCacheKeyFormat pins the cache key's version component: two
// versions of one graph must never share a key.
func TestVersionedCacheKeyFormat(t *testing.T) {
	req := runRequest{Platform: "native", Strategy: "frontier", Threads: 4}
	bench, err := core.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	a := runCacheKey("v0000000000000001", bench, &req, graph.OrderNone)
	b := runCacheKey("v0000000000000002", bench, &req, graph.OrderNone)
	if a == b {
		t.Fatal("distinct versions share a cache key")
	}
	if !strings.Contains(a, "v0000000000000001") {
		t.Fatalf("key %q does not embed the version ID", a)
	}
	if c := runCacheKey("v0000000000000001", bench, &req, graph.OrderDegree); c == a {
		t.Fatal("ordered and unordered runs share a cache key")
	}
}

// runVersion sends one /v1/run and returns its reply with the native
// timings zeroed: at one thread the rest of a reply is an exact
// fingerprint of the run.
func runVersion(t *testing.T, base string, req runRequest) runResponse {
	t.Helper()
	resp := postJSON(t, base+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run %s %s source %d: status %d", req.Kernel, req.Graph, req.Source, resp.StatusCode)
	}
	var rr runResponse
	decodeBody(t, resp, &rr)
	rr.Time, rr.WallSeconds, rr.QueueWaitSeconds, rr.Breakdown = 0, 0, 0, nil
	return rr
}

// churnDelta is the i-th patch of the residency tests: two undirected
// inserts and one undirected delete, spread over the graph.
func churnDelta(i, n int) patchRequest {
	a, b, c := int32(7*i%n), int32((7*i+n/2)%n), int32((13*i+n/3)%n)
	return patchRequest{
		Inserts: []edgeSpec{{From: a, To: b, Weight: 2}, {From: b, To: a, Weight: 2},
			{From: c, To: b, Weight: 5}, {From: b, To: c, Weight: 5}},
		Deletes: []edgeSpec{{From: a, To: a + 1}, {From: a + 1, To: a}},
	}
}

func mustPatch(t *testing.T, base, id string, body patchRequest) patchResponse {
	t.Helper()
	resp := patchJSON(t, base+"/v1/graphs/"+id, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: status %d", resp.StatusCode)
	}
	var pr patchResponse
	decodeBody(t, resp, &pr)
	return pr
}

// residentOrdinals lists the ordinals of the versions that hold forms,
// as GET /versions reports them.
func residentOrdinals(t *testing.T, base, id string) []int {
	t.Helper()
	var vl versionsResponse
	getJSON(t, base+"/v1/graphs/"+id+"/versions", &vl)
	var out []int
	for _, v := range vl.Versions {
		if v.ResidentBytes > 0 {
			out = append(out, v.Ordinal)
		}
	}
	return out
}

// payload is the payload a server computed for a repairable run: BFS
// levels or component labels.
func payload(t *testing.T, rec *payloads, spec runRequest, order graph.Order) []int32 {
	t.Helper()
	spec.Platform, spec.Strategy = "native", "frontier"
	res := rec.mustGet(t, runCacheKey(spec.Graph, mustBench(t, spec.Kernel), &spec, order))
	if res.BFS != nil {
		return res.BFS.Level
	}
	return res.Components.Labels
}

// TestSupersededVersionReplayIsExact: once the head has moved on, a
// version holds only its delta, and a pinned run on it replays its chain
// and answers exactly what a server on which it is still the head
// answers. The replayed CSR is the one the version had as head.
func TestSupersededVersionReplayIsExact(t *testing.T) {
	const n = 2048
	s, ts := newTestServer(t, DefaultConfig())
	rec := recordPayloads(s)
	gr := createGraph(t, ts.URL, "road-ca", n, 1)
	versions := []string{gr.Version}
	var v2Fingerprint uint64
	for i := 1; i <= 5; i++ {
		versions = append(versions, mustPatch(t, ts.URL, gr.ID, churnDelta(i, n)).Version)
		if rr := runVersion(t, ts.URL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 1, Source: 3}); rr.GraphVersion != versions[i] {
			t.Fatalf("head run %d ran on %s, want %s", i, rr.GraphVersion, versions[i])
		}
		if got := residentOrdinals(t, ts.URL, gr.ID); !slices.Equal(got, []int{0, i}) {
			t.Fatalf("after head run %d, versions %v hold forms, want [0 %d]", i, got, i)
		}
		if i == 2 {
			v, _ := s.store.GetVersion(versions[2])
			v2Fingerprint = v.Graph().Fingerprint()
		}
	}
	v2, _ := s.store.GetVersion(versions[2])
	if fp := v2.Graph().Fingerprint(); fp != v2Fingerprint {
		t.Fatalf("replayed v2 fingerprint %016x, want %016x as head", fp, v2Fingerprint)
	}

	// The reference: a fresh server whose head is v2.
	ref, refTS := newTestServer(t, DefaultConfig())
	refRec := recordPayloads(ref)
	if createGraph(t, refTS.URL, "road-ca", n, 1).ID != gr.ID {
		t.Fatal("reference server holds a different graph")
	}
	for i := 1; i <= 2; i++ {
		mustPatch(t, refTS.URL, gr.ID, churnDelta(i, n))
	}
	for _, req := range []runRequest{
		{Kernel: "BFS", Source: 100},
		{Kernel: "SSSP_DIJK", Source: 200},
		{Kernel: "CONN_COMP", Source: 0},
		{Kernel: "BFS", Source: 300, Order: "rcm"},
	} {
		req.Graph, req.Threads = versions[2], 1
		got, want := runVersion(t, ts.URL, req), runVersion(t, refTS.URL, req)
		if got.Cached || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s order %q on superseded v2:\n%+v\nv2 as head:\n%+v", req.Kernel, req.Order, got, want)
		}
		if req.Kernel != "SSSP_DIJK" {
			ord := graph.Order(req.Order)
			if ord == "" {
				ord = graph.OrderNone
			}
			if !slices.Equal(payload(t, rec, req, ord), payload(t, refRec, req, ord)) {
				t.Fatalf("%s order %q on superseded v2: payload differs from v2 as head", req.Kernel, req.Order)
			}
		}
	}
	if got := residentOrdinals(t, ts.URL, gr.ID); !slices.Equal(got, []int{0, 5}) {
		t.Fatalf("pinned runs on v2 left forms on %v, want [0 5]", got)
	}

	// Two patches with no run between them, then a head run: the build
	// releases v5, two generations up, not only its parent v6.
	for i := 6; i <= 7; i++ {
		mustPatch(t, ts.URL, gr.ID, churnDelta(i, n))
	}
	if got := residentOrdinals(t, ts.URL, gr.ID); !slices.Equal(got, []int{0, 5}) {
		t.Fatalf("after two patches, versions %v hold forms, want [0 5]", got)
	}
	runVersion(t, ts.URL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 1, Source: 3})
	if got := residentOrdinals(t, ts.URL, gr.ID); !slices.Equal(got, []int{0, 7}) {
		t.Fatalf("after the head run, versions %v hold forms, want [0 7]", got)
	}
	if v := metricValue(t, fetchMetrics(t, ts.URL), "crono_graph_versions_materialized"); v != 2 {
		t.Fatalf("crono_graph_versions_materialized = %v, want 2", v)
	}
}

// TestResidentPinnedReaderDuringPatch races pinned reads of the head
// against the PATCH that supersedes it and the child's first run, which
// releases the reader's version's forms: every pinned answer is the one
// the version gave as head.
func TestResidentPinnedReaderDuringPatch(t *testing.T) {
	const n = 2048
	s, ts := newTestServer(t, DefaultConfig())
	rec := recordPayloads(s)
	gr := createGraph(t, ts.URL, "road-ca", n, 1)
	v1 := mustPatch(t, ts.URL, gr.ID, churnDelta(1, n)).Version
	runVersion(t, ts.URL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 2, Source: 3})
	_, root, _ := s.store.Resolve(gr.Version)
	d := &graph.EdgeDelta{}
	for _, e := range churnDelta(1, n).Inserts {
		d.Inserts = append(d.Inserts, graph.Edge{From: e.From, To: e.To, Weight: e.Weight})
	}
	for _, e := range churnDelta(1, n).Deletes {
		d.Deletes = append(d.Deletes, graph.Edge{From: e.From, To: e.To})
	}
	if err := d.Canonicalize(n); err != nil {
		t.Fatal(err)
	}
	g1 := graph.ApplyDelta(root.Graph(), d)

	sources := []int{10, 500, 1000, 1500, 2000, 700, 1200, 1800}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mustPatch(t, ts.URL, gr.ID, churnDelta(2, n))
		runVersion(t, ts.URL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 2, Source: 3})
	}()
	for _, src := range sources {
		req := runRequest{Graph: v1, Kernel: "BFS", Threads: 2, Source: src}
		if rr := runVersion(t, ts.URL, req); rr.GraphVersion != v1 || rr.Cached {
			t.Fatalf("pinned read: %+v, want a fresh run on %s", rr, v1)
		}
		if !slices.Equal(payload(t, rec, req, graph.OrderNone), core.BFSRef(g1, src)) {
			t.Fatalf("pinned BFS from %d on %s differs from the version's levels", src, v1)
		}
	}
	wg.Wait()
	if v := metricValue(t, fetchMetrics(t, ts.URL), "crono_graph_versions_materialized"); v != 2 {
		t.Fatalf("crono_graph_versions_materialized = %v, want 2", v)
	}
}

// TestPatchSoakHeapBounded: a lineage patched and run 200 times holds the
// heap it held after 20 patches, give or take 25%. Only the root and the
// head keep a CSR; the rest of the chain is deltas.
func TestPatchSoakHeapBounded(t *testing.T) {
	const n = 4096
	cfg := DefaultConfig()
	cfg.CacheEntries = 16
	cfg.MaxGraphs = 256
	_, ts := newTestServer(t, cfg)
	gr := createGraph(t, ts.URL, "road-ca", n, 1)
	var at20 uint64
	for i := 1; i <= 200; i++ {
		mustPatch(t, ts.URL, gr.ID, churnDelta(i, n))
		runVersion(t, ts.URL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 2, Source: 3})
		if i == 20 {
			at20 = liveHeap()
		}
	}
	if at200 := liveHeap(); float64(at200) > 1.25*float64(at20) {
		t.Fatalf("live heap %d B after 200 patches, %d B after 20: more than 25%% growth", at200, at20)
	}
}

// liveHeap is the heap in use after two collections: the second frees
// what the first moved to sync.Pool's victim cache (idle scratches).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestReadSoakHeapBounded: 300 distinct-source BFS reads of one version
// leave the heap where 20 left it, give or take 300 bytes a vertex. The
// cache keeps replies, not payloads; the one payload a lineage keeps per
// repairable kernel is its repair seed, which each read replaces.
func TestReadSoakHeapBounded(t *testing.T) {
	const n, reads = 16384, 300
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "sparse", n, 1)
	var at20 uint64
	for src := 0; src < reads; src++ {
		if rr := runVersion(t, ts.URL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 2, Source: src}); rr.Cached {
			t.Fatalf("read %d was served from the cache", src)
		}
		if src == 19 {
			at20 = liveHeap()
		}
	}
	if at300 := liveHeap(); at300 > at20+reads*n {
		t.Fatalf("live heap %d B after %d reads, %d B after 20: grew by more than %d B", at300, reads, at20, reads*n)
	}
}

// TestSeedSurvivesPinnedRead: a pinned read of a superseded version
// writes no seed, so it cannot evict the head's before the next patch:
// the head's BFS from the source its parent ran still repairs.
func TestSeedSurvivesPinnedRead(t *testing.T) {
	const n = 2048
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "road-ca", n, 1)
	runVersion(t, ts.URL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 2, Source: 3})
	mustPatch(t, ts.URL, gr.ID, churnDelta(1, n))
	if rr := runVersion(t, ts.URL, runRequest{Graph: gr.Version, Kernel: "BFS", Threads: 2, Source: 900}); rr.GraphVersion != gr.Version || rr.Cached {
		t.Fatalf("pinned read: %+v, want a fresh run on %s", rr, gr.Version)
	}
	if rr := runVersion(t, ts.URL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 2, Source: 3}); !rr.Incremental {
		t.Fatalf("head BFS after a pinned read of its parent: %+v, want a repair", rr)
	}
}

// TestSeedNewerSourceReplaces: a lineage keeps one BFS seed, the newest
// head run's, so after BFS from s1 then s2 and a patch, BFS from s1 is a
// full run — with exactly the reply and levels of a server that never
// ran the parent.
func TestSeedNewerSourceReplaces(t *testing.T) {
	const n = 2048
	s, ts := newTestServer(t, DefaultConfig())
	rec := recordPayloads(s)
	gr := createGraph(t, ts.URL, "road-ca", n, 1)
	for _, src := range []int{3, 1500} {
		runVersion(t, ts.URL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 1, Source: src})
	}
	v1 := mustPatch(t, ts.URL, gr.ID, churnDelta(1, n)).Version

	fresh, freshTS := newTestServer(t, DefaultConfig())
	freshRec := recordPayloads(fresh)
	createGraph(t, freshTS.URL, "road-ca", n, 1)
	mustPatch(t, freshTS.URL, gr.ID, churnDelta(1, n))

	req := runRequest{Graph: v1, Kernel: "BFS", Threads: 1, Source: 3}
	got, want := runVersion(t, ts.URL, runRequest{Graph: gr.ID, Kernel: "BFS", Threads: 1, Source: 3}), runVersion(t, freshTS.URL, req)
	if got.Incremental || got.GraphVersion != v1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("head BFS from the replaced seed's source:\n%+v\nfresh server:\n%+v", got, want)
	}
	if !slices.Equal(payload(t, rec, req, graph.OrderNone), payload(t, freshRec, req, graph.OrderNone)) {
		t.Fatal("levels differ from the fresh server's")
	}
}
