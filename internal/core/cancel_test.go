package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"crono/internal/exec"
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

// pollCtx is a context whose Err turns non-nil after n polls. The
// platforms never wait on Done — they poll Err before starting the
// threads, at the last arrival of every barrier generation, at every
// Ctx.Checkpoint and once the threads have ended — so a run under pollCtx
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

// sweepCancel runs run under cancelAtPoll(k, want) for k = 0, 1, 2, ...
// until a run finishes without seeing the cancellation or k reaches limit
// (0: no limit), and fails t unless every canceled run returned want and
// no result. It returns the number of canceled runs.
func sweepCancel(t *testing.T, want error, limit int64, run func(context.Context) (any, error)) int64 {
	t.Helper()
	k := int64(0)
	for ; limit == 0 || k < limit; k++ {
		ctx := cancelAtPoll(k, want)
		res, err := run(ctx)
		if ctx.left.Load() >= 0 {
			if err != nil {
				t.Fatalf("uncanceled run failed: %v", err)
			}
			break
		}
		if !errors.Is(err, want) {
			t.Fatalf("canceled at poll %d: err = %v, want %v", k+1, err, want)
		}
		if !reflect.ValueOf(res).IsNil() {
			t.Fatalf("canceled at poll %d: partial result %+v", k+1, res)
		}
	}
	return k
}

// cancelKernel runs one kernel on a platform at a thread count.
type cancelKernel func(ctx context.Context, pl exec.Platform, threads int) (any, error)

// barrierKernels lists every barrier-bearing kernel on an input small
// enough to cancel at each of its polls: the scan and frontier kernels,
// the batch and the two repairs. The social input has unit weights, so
// SSSP_DIJK's frontier strategy runs breadth-first rounds on it; the
// road row runs its bucket rounds.
func barrierKernels(t *testing.T) map[string]cancelKernel {
	g := graph.Generate(graph.KindSocial, 512, 3)
	road := graph.Generate(graph.KindRoadCA, 512, 3)
	byName := func(name string, strategy Strategy, in Input) cancelKernel {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return func(ctx context.Context, pl exec.Platform, threads int) (any, error) {
			return b.Run(ctx, pl, Request{Input: in, Threads: threads, Strategy: strategy,
				Iters: 3, MaxPasses: 3})
		}
	}
	ks := map[string]cancelKernel{
		"BFSBatch": func(ctx context.Context, pl exec.Platform, threads int) (any, error) {
			return BFSBatch(ctx, pl, g, batchSources(g.N, BFSBatchWidth), threads)
		},
	}
	for _, name := range []string{"BFS", "SSSP_DIJK", "CONN_COMP", "PageRank", "COMM", "TRI_CNT"} {
		ks[name+".scan"] = byName(name, StrategyScan, Input{G: g})
	}
	for _, name := range []string{"BFS", "SSSP_DIJK", "CONN_COMP", "PageRank", "COMM"} {
		ks[name+".frontier"] = byName(name, StrategyFrontier, Input{G: g})
	}
	ks["SSSP_DIJK.frontier.road"] = byName("SSSP_DIJK", StrategyFrontier,
		Input{G: road, Source: largestComponentSource(road)})
	maps.Copy(ks, repairCases(t, 64))
	return ks
}

// repairCases are the two repairs on inputs that make them work: a path
// of n vertices with a shortcut at its head, so the BFS repair redoes
// (nearly) all of it, and the path's two halves joined, so the CONN_COMP
// repair links and relabels.
func repairCases(t *testing.T, n int32) map[string]cancelKernel {
	path := pathGraph(int(n))
	d := &graph.EdgeDelta{
		Inserts: []graph.Edge{{From: 0, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1}},
	}
	if err := d.Canonicalize(int(n)); err != nil {
		t.Fatal(err)
	}
	next := graph.ApplyDelta(path, d)
	level := BFSRef(path, 0)
	labels := make([]int32, n)
	for v := n / 2; v < n; v++ {
		labels[v] = n / 2
	}
	join := &graph.EdgeDelta{Inserts: []graph.Edge{
		{From: n/2 - 1, To: n / 2, Weight: 1}, {From: n / 2, To: n/2 - 1, Weight: 1},
	}}
	repair := func(name string, g *graph.CSR, prev *Result, d *graph.EdgeDelta) cancelKernel {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return func(ctx context.Context, pl exec.Platform, threads int) (any, error) {
			return b.Repair(ctx, pl, Request{Input: Input{G: g}, Threads: threads, Strategy: StrategyFrontier}, prev, d)
		}
	}
	return map[string]cancelKernel{
		"BFSIncremental":        repair("BFS", next, &Result{BFS: &BFSResult{Level: level}}, d),
		"ComponentsIncremental": repair("CONN_COMP", path, &Result{Components: &ComponentsResult{Labels: labels}}, join),
	}
}

// TestCancelAtEveryPoll cancels every barrier-bearing kernel at each of
// its context polls in turn, natively at 2, 4 and 8 threads and once on
// the simulator. Whichever thread's poll it is, and whether it lands on a
// barrier's last arrival or on the run's entry or exit check, the run
// returns the context's error and no result — and under -race no thread
// runs on over memory that no barrier orders.
func TestCancelAtEveryPoll(t *testing.T) {
	ks := barrierKernels(t)
	names := make([]string, 0, len(ks))
	for name := range ks {
		names = append(names, name)
	}
	sort.Strings(names)
	sweep := func(t *testing.T, pl exec.Platform, k cancelKernel, threads int) {
		if n := sweepCancel(t, context.Canceled, 0, func(ctx context.Context) (any, error) {
			return k(ctx, pl, threads)
		}); n < 3 {
			t.Fatalf("only %d polls: the run ended before any barrier", n)
		}
	}
	for _, name := range names {
		for _, threads := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/native/t%d", name, threads), func(t *testing.T) {
				sweep(t, native.New(), ks[name], threads)
			})
		}
	}
	t.Run("BFS.frontier/sim/t4", func(t *testing.T) {
		sweep(t, simMachine(t, 16), ks["BFS.frontier"], 4)
	})
}

// midFlightCases lists kernels on inputs deep enough never to finish
// within a handful of polls: PageRank with a million iterations, the batch
// and the BFS repair along a 400-vertex path, the frontier COMM on a
// small-world graph that keeps moving for about ten rounds. The CONN_COMP
// repair has one barrier, so its sweep also reaches a finished run.
func midFlightCases(t *testing.T) map[string]func(context.Context) (any, error) {
	path := pathGraph(400)
	cases := map[string]func(context.Context) (any, error){
		"PageRank": func(ctx context.Context) (any, error) {
			return PageRank(ctx, native.New(), path, 4, 1_000_000)
		},
		"BFSBatch": func(ctx context.Context) (any, error) {
			return BFSBatch(ctx, native.New(), path, []int{0, 1, 2}, 4)
		},
		"COMM": func(ctx context.Context) (any, error) {
			return communityFrontier(ctx, native.New(), graph.Generate(graph.KindSocial, 600, 5), 4, 1_000_000)
		},
	}
	for name, k := range repairCases(t, 400) {
		cases[name] = func(ctx context.Context) (any, error) {
			return k(ctx, native.New(), 4)
		}
	}
	return cases
}

// TestKernelCancelMidFlight: canceling during a kernel run ends it at the
// next barrier instead of running to completion, and no partial result
// escapes, at each of the first dozen polls.
func TestKernelCancelMidFlight(t *testing.T) {
	testMidFlight(t, context.Canceled)
}

// TestKernelDeadlineMidFlight is the same table under an expiring
// deadline, plus TSP, whose recursive search unwinds through the aborted
// flag rather than a barrier.
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
	for name, run := range midFlightCases(t) {
		t.Run(name, func(t *testing.T) {
			sweepCancel(t, want, 12, run)
		})
	}
}

// TestRequestDefaults: WithDefaults fills the documented fallbacks and
// leaves explicit values alone.
func TestRequestDefaults(t *testing.T) {
	d := Request{}.WithDefaults()
	if d.Threads != 1 || d.Iters != DefaultPageRankIters ||
		d.MaxPasses != DefaultCommunityPasses || d.Delta != 0 {
		t.Fatalf("bad defaults %+v", d)
	}
	r := Request{Threads: 8, Iters: 3, MaxPasses: 2, Delta: 7}.WithDefaults()
	if r.Threads != 8 || r.Iters != 3 || r.MaxPasses != 2 || r.Delta != 7 {
		t.Fatalf("explicit values clobbered: %+v", r)
	}
}

// TestVariantsReachableByName: the variant resolves through ByName but
// stays out of the ten-kernel Suite. Retired names resolve to nothing:
// pull PageRank is PageRank's frontier strategy, delta-stepping is
// SSSP_DIJK's, and a frontier BFS gives every target's level.
func TestVariantsReachableByName(t *testing.T) {
	if n := len(Suite()); n != 10 {
		t.Fatalf("suite has %d kernels, want 10", n)
	}
	for _, name := range []string{"PAGERANK_PULL", "SSSP_DELTA", "BFS_TARGET"} {
		if _, err := ByName(name); err == nil {
			t.Fatalf("ByName(%s) resolves; the name is retired", name)
		}
	}
	b, err := ByName("BETW_BRANDES")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "BETW_BRANDES" {
		t.Fatalf("ByName(BETW_BRANDES) returned %s", b.Name)
	}
	for _, s := range Suite() {
		if s.Name == b.Name {
			t.Fatalf("variant %s leaked into Suite()", b.Name)
		}
	}
}

// TestVariantsRunViaTypedAPI: each variant produces its typed payload
// through the Benchmark.Run entry.
func TestVariantsRunViaTypedAPI(t *testing.T) {
	g := graph.UniformSparse(150, 4, 20, 11)
	in := Input{G: g, Source: 0}
	for _, b := range Variants() {
		res, err := b.Run(context.Background(), native.New(), Request{Input: in, Threads: 3})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if res.Report == nil {
			t.Fatalf("%s: no report", b.Name)
		}
		if b.Name == "BETW_BRANDES" && res.Brandes == nil {
			t.Fatalf("%s: missing Brandes payload", b.Name)
		}
	}
}
