package service

import (
	"net/http"
	"testing"

	"crono/internal/core"
	"crono/internal/graph"
)

func mustBench(t *testing.T, name string) core.Benchmark {
	t.Helper()
	b, err := core.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunOrderingThroughAPI drives the reordering knob end to end: the
// resolved order lands in the response and in the cache key, "auto"
// resolves to the skew-picked policy and shares its cache entry, COMM
// ignores orderings, and a bogus order 400s with its catalog code.
func TestRunOrderingThroughAPI(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	const n, seed = 600, 7
	gr := createGraph(t, ts.URL, "social", n, seed)

	run := func(kernel, order string) runResponse {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/run", runRequest{
			Graph: gr.ID, Kernel: kernel, Order: order, Threads: 4,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %s order=%q: status %d", kernel, order, resp.StatusCode)
		}
		var rr runResponse
		decodeBody(t, resp, &rr)
		return rr
	}

	if a := run("BFS", ""); a.Order != "" || a.Cached {
		t.Fatalf("unordered run: %+v, want empty order, uncached", a)
	}
	b := run("BFS", "degree")
	if b.Order != "degree" || b.Cached {
		t.Fatalf("degree run: order %q cached %t, want fresh degree", b.Order, b.Cached)
	}
	if c := run("BFS", "degree"); !c.Cached {
		t.Fatal("repeat degree run not served from cache")
	}
	if d := run("BFS", "none"); d.Order != "" || !d.Cached {
		t.Fatalf("order=none: %+v, want the unordered cache entry", d)
	}

	// "auto" must resolve to the same policy PickOrder chooses for this
	// generated graph, and share the concrete policy's cache entry.
	want := graph.PickOrder(graph.Generate("social", n, seed))
	e := run("BFS", "auto")
	if e.Order != string(want) {
		t.Fatalf("auto resolved to %q, want %q", e.Order, want)
	}
	if string(want) == "degree" && !e.Cached {
		t.Fatal("auto run did not share the concrete policy's cache entry")
	}

	// COMM has no label-invariant result: the ordering resolves to none.
	if f := run("COMM", "degree"); f.Order != "" {
		t.Fatalf("COMM order %q, want ignored", f.Order)
	}

	resp := postJSON(t, ts.URL+"/v1/run", runRequest{
		Graph: gr.ID, Kernel: "BFS", Order: "zorder", Threads: 4,
	})
	if code := errorCode(t, resp); code != codeUnknownOrder {
		t.Fatalf("bogus order code %q, want %q", code, codeUnknownOrder)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus order status %d, want 400", resp.StatusCode)
	}
}

// TestOrderedVersionMemoized pins the lazy per-version materialization:
// concurrent and repeated Ordered calls on a resident version return one
// shared Reordered.
func TestOrderedVersionMemoized(t *testing.T) {
	s := NewStore(8)
	sg, err := s.Put(graph.SocialNet(200, 6, 3), "t")
	if err != nil {
		t.Fatal(err)
	}
	v := sg.Head().materialize()
	a, err := v.Ordered(graph.OrderDegree)
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.Ordered(graph.OrderDegree)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Ordered not memoized per (version, order)")
	}
	c, err := v.Ordered(graph.OrderRCM)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct orders share a materialization")
	}
	if v.AutoOrder() != v.AutoOrder() {
		t.Fatal("AutoOrder not stable")
	}
}

// TestOrderedRunSkipsIncremental: a reordered run on a patched head must
// recompute from scratch (the cached parent payload is in original ids;
// the repair walk would be over the permuted CSR), while the unordered
// run on the same version still repairs incrementally.
func TestOrderedRunSkipsIncremental(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	gr := createGraph(t, ts.URL, "road-ca", 4096, 1)

	run := func(order string) runResponse {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/run", runRequest{
			Graph: gr.ID, Kernel: "BFS", Order: order, Threads: 4,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run order=%q: status %d", order, resp.StatusCode)
		}
		var rr runResponse
		decodeBody(t, resp, &rr)
		return rr
	}

	run("") // warm the parent's unordered BFS entry
	resp := patchJSON(t, ts.URL+"/v1/graphs/"+gr.ID, patchRequest{
		Inserts: []edgeSpec{{From: 5, To: 900, Weight: weight(1)}, {From: 900, To: 5, Weight: weight(1)}},
	})
	resp.Body.Close()

	if a := run("rcm"); a.Incremental || a.Order != "rcm" {
		t.Fatalf("ordered run on patched head: %+v, want full recompute under rcm", a)
	}
	if b := run(""); !b.Incremental {
		t.Fatalf("unordered run on patched head: %+v, want incremental repair", b)
	}
}
