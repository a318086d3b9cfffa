package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"crono/internal/graph"
	"crono/internal/native"
)

// TestEveryKernelRespectsPreCanceledContext: all suite kernels and all
// variants must refuse to run under an already-canceled context, return
// exactly the context's error and no partial result.
func TestEveryKernelRespectsPreCanceledContext(t *testing.T) {
	in := Input{
		G:      graph.UniformSparse(200, 4, 20, 3),
		D:      graph.DenseFromCSR(graph.UniformSparse(32, 3, 10, 4)),
		Cities: graph.Cities(7, 5),
		Source: 0,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range append(Suite(), Variants()...) {
		res, err := b.Run(ctx, native.New(), Request{Input: in, Threads: 4})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", b.Name, err)
		}
		if res != nil {
			t.Errorf("%s: partial result %+v returned for canceled run", b.Name, res)
		}
	}
}

// pollCtx is a context whose Err turns non-nil at its n-th poll. The
// platforms never wait on Done — they poll Err once before starting the
// threads and then at every Ctx.Checkpoint — so a run under pollCtx
// starts, executes some rounds and is canceled mid-flight at a point
// fixed by poll count, not by wall clock.
type pollCtx struct {
	context.Context
	left atomic.Int64
	err  error
}

func cancelAtPoll(n int64, err error) *pollCtx {
	c := &pollCtx{Context: context.Background(), err: err}
	c.left.Store(n)
	return c
}

func (c *pollCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return c.err
	}
	return nil
}

// midFlightCase is a kernel run and the number of polls to let pass
// before canceling it: enough that the run has started, too few for it
// to finish.
type midFlightCase struct {
	live int64
	run  func(context.Context) (any, error)
}

// midFlightCases lists kernels on inputs deep enough to poll many times:
// a long path makes a frontier traversal run one round per vertex, and
// the BFS repair is seeded so that it redoes (nearly) the whole of it.
// Poll 1 is RunCtx's entry check and four threads poll once a round, so
// the 10th poll lands in the third round. The CONN_COMP repair has one
// poll per thread, between its link and compress phases; it is canceled
// there, after joining two components.
func midFlightCases(t *testing.T) map[string]midFlightCase {
	const n = 400
	var edges []graph.Edge
	for v := int32(0); v+1 < n; v++ {
		edges = append(edges, graph.Edge{From: v, To: v + 1, Weight: 1})
	}
	path := graph.FromEdges(n, edges, true)
	// A shortcut 0-2 at the head of the path puts every level from 1 on
	// below the repair cutoff.
	d := &graph.EdgeDelta{
		Inserts: []graph.Edge{{From: 0, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1}},
	}
	if err := d.Canonicalize(n); err != nil {
		t.Fatal(err)
	}
	next := graph.ApplyDelta(path, d)
	level := BFSRef(path, 0)
	// Two half-path components; joining them re-labels the upper half.
	labels := make([]int32, n)
	for v := n / 2; v < n; v++ {
		labels[v] = n / 2
	}
	join := &graph.EdgeDelta{Inserts: []graph.Edge{
		{From: n/2 - 1, To: n / 2, Weight: 1}, {From: n / 2, To: n/2 - 1, Weight: 1},
	}}
	// COMM converges in a few rounds on a path; a small-world graph with
	// singleton communities and a delta naming every vertex (deletes of
	// absent edges) keeps it moving for about ten.
	social := graph.Generate(graph.KindSocial, 600, 5)
	comm := make([]int32, social.N)
	all := &graph.EdgeDelta{}
	for v := range comm {
		comm[v] = int32(v)
		if v%2 == 1 {
			all.Deletes = append(all.Deletes, graph.Edge{From: int32(v - 1), To: int32(v)})
		}
	}
	return map[string]midFlightCase{
		"PageRank": {9, func(ctx context.Context) (any, error) {
			return PageRank(ctx, native.New(), path, 4, 1_000_000)
		}},
		"BFSBatch": {9, func(ctx context.Context) (any, error) {
			return BFSBatch(ctx, native.New(), path, []int{0, 1, 2}, 4)
		}},
		"BFSIncremental": {9, func(ctx context.Context) (any, error) {
			return BFSIncremental(ctx, native.New(), next, 0, 4, level, d)
		}},
		"ComponentsIncremental": {2, func(ctx context.Context) (any, error) {
			return ComponentsIncremental(ctx, native.New(), path, 4, labels, join)
		}},
		"CommunityIncremental": {9, func(ctx context.Context) (any, error) {
			return CommunityIncremental(ctx, native.New(), social, 4, 1_000_000, comm, all)
		}},
	}
}

// TestKernelCancelMidFlight: canceling during a kernel run aborts it at
// the next checkpoint instead of running to completion, and no partial
// result escapes.
func TestKernelCancelMidFlight(t *testing.T) {
	testMidFlight(t, context.Canceled)
}

// TestKernelDeadlineMidFlight is the same table under an expiring
// deadline, plus TSP, whose recursive search unwinds through the aborted
// flag rather than a loop boundary.
func TestKernelDeadlineMidFlight(t *testing.T) {
	testMidFlight(t, context.DeadlineExceeded)

	cities := graph.Cities(16, 9) // several seconds of search uncanceled
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := TSP(ctx, native.New(), cities, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("TSP took %s to honor a 20ms deadline", e)
	}
}

func testMidFlight(t *testing.T, want error) {
	for name, tc := range midFlightCases(t) {
		t.Run(name, func(t *testing.T) {
			ctx := cancelAtPoll(tc.live, want)
			res, err := tc.run(ctx)
			if !errors.Is(err, want) {
				t.Fatalf("err = %v, want %v", err, want)
			}
			if !reflect.ValueOf(res).IsNil() {
				t.Fatalf("partial result %+v returned for an aborted run", res)
			}
			if left := ctx.left.Load(); left >= 0 {
				t.Fatalf("run ended after %d polls without ever seeing the cancellation", tc.live-left)
			}
		})
	}
}

// TestRequestDefaults: WithDefaults fills the documented fallbacks and
// leaves explicit values alone.
func TestRequestDefaults(t *testing.T) {
	d := Request{}.WithDefaults()
	if d.Threads != 1 || d.Iters != DefaultPageRankIters ||
		d.MaxPasses != DefaultCommunityPasses || d.Delta != DefaultSSSPDelta {
		t.Fatalf("bad defaults %+v", d)
	}
	r := Request{Threads: 8, Iters: 3, MaxPasses: 2, Delta: 7, Target: 5}.WithDefaults()
	if r.Threads != 8 || r.Iters != 3 || r.MaxPasses != 2 || r.Delta != 7 || r.Target != 5 {
		t.Fatalf("explicit values clobbered: %+v", r)
	}
}

// TestVariantsReachableByName: the four variants resolve through ByName
// but stay out of the ten-kernel Suite.
func TestVariantsReachableByName(t *testing.T) {
	if n := len(Suite()); n != 10 {
		t.Fatalf("suite has %d kernels, want 10", n)
	}
	for _, name := range []string{"SSSP_DELTA", "BFS_TARGET", "BETW_BRANDES", "PAGERANK_PULL"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Name != name {
			t.Fatalf("ByName(%s) returned %s", name, b.Name)
		}
		for _, s := range Suite() {
			if s.Name == name {
				t.Fatalf("variant %s leaked into Suite()", name)
			}
		}
	}
}

// TestVariantsRunViaTypedAPI: each variant produces its typed payload
// through the Benchmark.Run entry.
func TestVariantsRunViaTypedAPI(t *testing.T) {
	g := graph.UniformSparse(150, 4, 20, 11)
	in := Input{G: g, Source: 0}
	for _, b := range Variants() {
		res, err := b.Run(context.Background(), native.New(), Request{Input: in, Threads: 3, Target: 17})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if res.Report == nil {
			t.Fatalf("%s: no report", b.Name)
		}
		switch b.Name {
		case "SSSP_DELTA":
			if res.SSSP == nil {
				t.Fatalf("%s: missing SSSP payload", b.Name)
			}
		case "BFS_TARGET":
			if res.BFSTarget == nil {
				t.Fatalf("%s: missing BFSTarget payload", b.Name)
			}
		case "BETW_BRANDES":
			if res.Brandes == nil {
				t.Fatalf("%s: missing Brandes payload", b.Name)
			}
		case "PAGERANK_PULL":
			if res.PageRank == nil {
				t.Fatalf("%s: missing PageRank payload", b.Name)
			}
		}
	}
}
