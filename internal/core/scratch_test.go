package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"crono/internal/graph"
	"crono/internal/native"
)

// TestScratchReuseMatchesFresh: repeat runs on one Scratch — including
// across graphs of different sizes, which exercises the grow/shrink
// reslicing — must match scratch-less runs exactly.
func TestScratchReuseMatchesFresh(t *testing.T) {
	big := graph.SocialNet(500, 6, 3)
	small := graph.RoadNet(120, 4)
	pl := native.New()
	s := NewScratch()
	goCtx := context.Background()
	for round, g := range []*graph.CSR{big, small, big} {
		wantBFS, err := bfsFrontier(goCtx, pl, g, 0, 3, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		gotBFS, err := bfsFrontier(goCtx, pl, g, 0, 3, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range wantBFS.Level {
			if gotBFS.Level[v] != wantBFS.Level[v] {
				t.Fatalf("round %d: level[%d] = %d, want %d", round, v, gotBFS.Level[v], wantBFS.Level[v])
			}
		}
		if gotBFS.Visited != wantBFS.Visited || gotBFS.Levels != wantBFS.Levels {
			t.Fatalf("round %d: visited/levels diverge", round)
		}

		wantS, err := ssspFrontier(goCtx, pl, g, 0, 3, 32, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		gotS, err := ssspFrontier(goCtx, pl, g, 0, 3, 32, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range wantS.Dist {
			if gotS.Dist[v] != wantS.Dist[v] {
				t.Fatalf("round %d: dist[%d] = %d, want %d", round, v, gotS.Dist[v], wantS.Dist[v])
			}
		}
		if gotS.Relaxations != wantS.Relaxations {
			t.Fatalf("round %d: relaxations %d, want %d", round, gotS.Relaxations, wantS.Relaxations)
		}

		wantC, err := componentsFrontier(goCtx, pl, g, 3, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := componentsFrontier(goCtx, pl, g, 3, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range wantC.Labels {
			if gotC.Labels[v] != wantC.Labels[v] {
				t.Fatalf("round %d: label[%d] diverges", round, v)
			}
		}
		if gotC.Components != wantC.Components {
			t.Fatalf("round %d: components %d, want %d", round, gotC.Components, wantC.Components)
		}

		wantP, err := pageRankPull(goCtx, pl, g, 3, 4, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		gotP, err := pageRankPull(goCtx, pl, g, 3, 4, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range wantP.Ranks {
			if math.Abs(gotP.Ranks[v]-wantP.Ranks[v]) > 1e-12 {
				t.Fatalf("round %d: rank[%d] = %g, want %g", round, v, gotP.Ranks[v], wantP.Ranks[v])
			}
		}
	}
}

// TestScratchDetachResults: serving mode must hand out result arrays that
// survive the next run on the same scratch.
func TestScratchDetachResults(t *testing.T) {
	g := graph.RoadNet(200, 4)
	pl := native.New()
	s := NewScratch()
	s.DetachResults = true
	goCtx := context.Background()
	first, err := bfsFrontier(goCtx, pl, g, 0, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]int32(nil), first.Level...)
	if _, err := bfsFrontier(goCtx, pl, g, 1, 2, s); err != nil {
		t.Fatal(err)
	}
	for v := range snapshot {
		if first.Level[v] != snapshot[v] {
			t.Fatalf("detached result mutated by later run at %d", v)
		}
	}
}

// TestScratchAttachedResultsAlias documents the zero-alloc contract: with
// DetachResults unset the result buffers are scratch-owned and the next
// run overwrites them.
func TestScratchAttachedResultsAlias(t *testing.T) {
	g := graph.RoadNet(200, 4)
	pl := native.New()
	s := NewScratch()
	goCtx := context.Background()
	a, err := bfsFrontier(goCtx, pl, g, 0, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bfsFrontier(goCtx, pl, g, 0, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("attached mode should reuse the result struct")
	}
	if &a.Level[0] != &b.Level[0] {
		t.Fatal("attached mode should reuse the level buffer")
	}
}

// TestScratchPoolSizeClasses: scratches come back from the class they
// were issued for, and distinct classes do not mix.
func TestScratchPoolSizeClasses(t *testing.T) {
	var p ScratchPool
	small := p.Get(100)
	big := p.Get(1 << 20)
	if small.class == big.class {
		t.Fatalf("classes collide: %d", small.class)
	}
	p.Put(small)
	p.Put(big)
	p.Put(nil) // must not panic
	if got := p.Get(100); got.class != sizeClass(100) {
		t.Fatalf("class %d, want %d", got.class, sizeClass(100))
	}
	if sizeClass(0) != 0 || sizeClass(1) != 0 {
		t.Fatal("degenerate sizes must class to 0")
	}
	if sizeClass(1<<40) != scratchClasses-1 {
		t.Fatal("huge sizes must clamp to the top class")
	}
}

// TestWarmRunsAllocZero is the ISSUE acceptance gate: with a reusable
// platform and a scratch, warm typed-Run executions of the frontier and
// pull fast paths perform zero heap allocations per run.
func TestWarmRunsAllocZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	g := graph.SocialNet(2000, 8, 11)
	g.InCSR() // materialize the transpose outside the measured loop
	goCtx := context.Background()
	cases := []struct {
		name string
		req  Request
	}{
		{"BFS", Request{Input: Input{G: g}, Threads: 4, Strategy: StrategyFrontier}},
		{"SSSP_DIJK", Request{Input: Input{G: g}, Threads: 4, Strategy: StrategyFrontier}},
		{"CONN_COMP", Request{Input: Input{G: g}, Threads: 4, Strategy: StrategyFrontier}},
		{"PageRank", Request{Input: Input{G: g}, Threads: 4, Strategy: StrategyFrontier, Iters: 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl := native.New()
			b, err := ByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			req := c.req
			req.Scratch = NewScratch()
			// Warm-up: grows every buffer, caches the body closure and the
			// barrier, builds the platform's per-thread state.
			for i := 0; i < 3; i++ {
				if _, err := b.Run(goCtx, pl, req); err != nil {
					t.Fatal(err)
				}
			}
			n := testing.AllocsPerRun(10, func() {
				if _, err := b.Run(goCtx, pl, req); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 {
				t.Fatalf("warm %s run allocates %.0f objects per run, want 0", c.name, n)
			}
		})
	}
}

// TestWarmSeededRepairAllocs: a repair shares the full kernel's run
// state on the request's Scratch, so a warm Benchmark.Repair of BFS or
// CONN_COMP with a serving-mode scratch allocates only what it detaches —
// the payload, its result struct, the Result and the report with its two
// per-thread slices — and nothing in zero-alloc mode, also when prev is
// the scratch's own last result.
func TestWarmSeededRepairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	g := graph.SocialNet(2000, 8, 11)
	d := &graph.EdgeDelta{Inserts: []graph.Edge{{From: 0, To: 1999, Weight: 1}}}
	if err := d.Canonicalize(g.N); err != nil {
		t.Fatal(err)
	}
	next := graph.ApplyDelta(g, d)
	goCtx := context.Background()
	pl := native.New()
	payload := func(r *Result) []int32 {
		if r.BFS != nil {
			return r.BFS.Level
		}
		return r.Components.Labels
	}
	for _, c := range []struct {
		kernel        string
		detach, alias bool
		allocs        float64
	}{
		{"BFS", true, false, 6}, {"BFS", false, false, 0}, {"BFS", false, true, 0},
		{"CONN_COMP", true, false, 6}, {"CONN_COMP", false, false, 0}, {"CONN_COMP", false, true, 0},
	} {
		b, err := ByName(c.kernel)
		if err != nil {
			t.Fatal(err)
		}
		// The seed and the expected result run on scratches of their own.
		req := Request{Input: Input{G: g}, Threads: 4, Strategy: StrategyFrontier}
		prev, err := b.Run(goCtx, pl, req)
		if err != nil {
			t.Fatal(err)
		}
		req.G = next
		want, err := b.Run(goCtx, pl, req)
		if err != nil {
			t.Fatal(err)
		}
		req.Scratch = NewScratch()
		req.Scratch.DetachResults = c.detach
		repair := func() {
			res, err := b.Repair(goCtx, pl, req, prev, d)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(payload(res), payload(want)) {
				t.Fatalf("%s: repaired payload differs from a full run", c.kernel)
			}
			if c.alias {
				prev = res
			}
		}
		for i := 0; i < 3; i++ {
			repair()
		}
		if n := testing.AllocsPerRun(10, repair); n != c.allocs {
			t.Errorf("warm %s repair (DetachResults=%v, prev aliased %v) allocates %.0f objects per run, want %.0f",
				c.kernel, c.detach, c.alias, n, c.allocs)
		}
	}
}

// TestWarmAfforestAllocs: the frontier CONN_COMP keeps its parent and
// sample arrays in the scratch, so a warm run with a serving-mode scratch
// allocates only what it detaches — the label array, the result struct
// and the report with its two per-thread slices — and nothing in
// zero-alloc mode. Either way its labels are the oracle's.
func TestWarmAfforestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	g := graph.SocialNet(2000, 8, 11)
	want := ComponentsRef(g)
	goCtx := context.Background()
	pl := native.New()
	for _, c := range []struct {
		detach bool
		allocs float64
	}{{true, 5}, {false, 0}} {
		s := NewScratch()
		s.DetachResults = c.detach
		run := func() {
			res, err := componentsFrontier(goCtx, pl, g, 4, s)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Labels, want) {
				t.Fatal("labels differ from ComponentsRef")
			}
		}
		for i := 0; i < 3; i++ {
			run()
		}
		if n := testing.AllocsPerRun(10, run); n != c.allocs {
			t.Errorf("warm Afforest (DetachResults=%v) allocates %.0f objects per run, want %.0f", c.detach, n, c.allocs)
		}
	}
}

// TestReportOwnershipFollowsScratchMode: on one shared platform a
// result's Report follows the same aliasing rule as its arrays. With no
// scratch or a detached one ("safe to cache indefinitely") the first
// run's report must survive a second run; only the zero-alloc mode
// reuses it, and that is what makes its warm runs allocation-free.
func TestReportOwnershipFollowsScratchMode(t *testing.T) {
	g := graph.SocialNet(2000, 8, 11)
	goCtx := context.Background()
	pl := native.New()
	bfs, err := ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	detached := NewScratch()
	detached.DetachResults = true
	for _, c := range []struct {
		name    string
		s       *Scratch
		aliases bool
	}{
		{"nil scratch", nil, false},
		{"detached scratch", detached, false},
		{"aliasing scratch", NewScratch(), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			req := Request{Input: Input{G: g}, Threads: 4, Strategy: StrategyFrontier, Scratch: c.s}
			first, err := bfs.Run(goCtx, pl, req)
			if err != nil {
				t.Fatal(err)
			}
			rep := first.Report
			wantTime, wantInstr := rep.Time, append([]uint64(nil), rep.Instructions...)
			req.Source = 1000
			second, err := bfs.Run(goCtx, pl, req)
			if err != nil {
				t.Fatal(err)
			}
			if aliased := second.Report == rep; aliased != c.aliases {
				t.Fatalf("second run reused the first run's report: %v, want %v", aliased, c.aliases)
			}
			if c.aliases {
				if raceEnabled {
					return
				}
				if n := testing.AllocsPerRun(10, func() { bfs.Run(goCtx, pl, req) }); n != 0 { //nolint:errcheck // checked above
					t.Fatalf("warm aliasing run allocates %.0f objects, want 0", n)
				}
				return
			}
			if rep.Time != wantTime {
				t.Fatalf("first report's Time changed from %d to %d", wantTime, rep.Time)
			}
			for tid, n := range wantInstr {
				if rep.Instructions[tid] != n {
					t.Fatalf("first report's Instructions[%d] changed from %d to %d", tid, n, rep.Instructions[tid])
				}
			}
		})
	}
}

// scratchSpans collects the backing-array span [start, end) of every
// slice reachable from v, following pointers, interfaces, struct fields
// and slice and array elements. Each pointer is followed once.
func scratchSpans(v reflect.Value, seen map[uintptr]bool, out *[][2]uintptr) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		scratchSpans(v.Elem(), seen, out)
	case reflect.Interface:
		if !v.IsNil() {
			scratchSpans(v.Elem(), seen, out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scratchSpans(v.Field(i), seen, out)
		}
	case reflect.Slice:
		if v.Cap() == 0 {
			return
		}
		start := v.Pointer()
		*out = append(*out, [2]uintptr{start, start + uintptr(v.Cap())*v.Type().Elem().Size()})
		fallthrough
	case reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				scratchSpans(v.Index(i), seen, out)
			}
		}
	}
}

// pinsPayload reports whether any slice reachable from s shares a
// backing array with the payload slice.
func pinsPayload(s *Scratch, payload any) bool {
	p := reflect.ValueOf(payload)
	lo := p.Pointer()
	hi := lo + uintptr(p.Cap())*p.Type().Elem().Size()
	var spans [][2]uintptr
	scratchSpans(reflect.ValueOf(s), map[uintptr]bool{}, &spans)
	for _, sp := range spans {
		if sp[0] < hi && lo < sp[1] {
			return true
		}
	}
	return false
}

// TestDetachedScratchPinsNoPayload: after a run on a detached (serving
// mode) scratch, no slice the scratch reaches shares a backing array with
// the payload the run returned, so a pooled scratch does not keep a reply
// payload alive once its caller drops it. In the zero-alloc mode the
// payload is the scratch's own buffer, which also shows the walk finds an
// alias where there is one.
func TestDetachedScratchPinsNoPayload(t *testing.T) {
	g := graph.SocialNet(600, 6, 5)
	d := &graph.EdgeDelta{Inserts: []graph.Edge{{From: 0, To: 599, Weight: 1}}}
	if err := d.Canonicalize(g.N); err != nil {
		t.Fatal(err)
	}
	next := graph.ApplyDelta(g, d)
	goCtx := context.Background()
	pl := native.New()
	for _, c := range []struct {
		kernel  string
		prev    *Result // the seed of a repair, nil for a run
		payload func(*Result) any
	}{
		{"BFS", nil, func(r *Result) any { return r.BFS.Level }},
		{"SSSP_DIJK", nil, func(r *Result) any { return r.SSSP.Dist }},
		{"CONN_COMP", nil, func(r *Result) any { return r.Components.Labels }},
		{"PageRank", nil, func(r *Result) any { return r.PageRank.Ranks }},
		{"BFS", &Result{BFS: &BFSResult{Level: BFSRef(g, 0)}}, func(r *Result) any { return r.BFS.Level }},
		{"CONN_COMP", &Result{Components: &ComponentsResult{Labels: ComponentsRef(g)}}, func(r *Result) any { return r.Components.Labels }},
	} {
		b, err := ByName(c.kernel)
		if err != nil {
			t.Fatal(err)
		}
		for _, detach := range []bool{true, false} {
			s := NewScratch()
			s.DetachResults = detach
			req := Request{Input: Input{G: g}, Strategy: StrategyFrontier, Threads: 3, Iters: 3, Scratch: s}
			var res *Result
			for i := 0; i < 2; i++ { // the second run reuses what the first left
				if c.prev != nil {
					req.G = next
					res, err = b.Repair(goCtx, pl, req, c.prev, d)
				} else {
					res, err = b.Run(goCtx, pl, req)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if pinned := pinsPayload(s, c.payload(res)); pinned == detach {
				t.Errorf("%s (repair %t, DetachResults %t): scratch aliases the payload = %t, want %t",
					c.kernel, c.prev != nil, detach, pinned, !detach)
			}
		}
	}
}
