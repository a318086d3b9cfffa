package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"crono/internal/graph"
	"crono/internal/native"
	"crono/internal/racecheck"
)

// randomDigraph builds a directed graph of n vertices and deg·n random
// arcs: dense enough that a BFS pulls, and with in-edges that differ from
// out-edges, so a pull over the wrong CSR gets levels wrong.
func randomDigraph(n, deg int, seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, n*deg)
	for i := 0; i < n*deg; i++ {
		edges = append(edges, graph.Edge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n)), Weight: 1})
	}
	return graph.FromEdges(n, edges, false)
}

// dupSources returns k sources of which a quarter repeat earlier ones.
func dupSources(n, k int) []int {
	distinct := max(1, k*3/4)
	src := batchSources(n, distinct)
	for i := 0; len(src) < k; i++ {
		src = append(src, src[i*3%distinct])
	}
	return src
}

// TestBFSBatchPullRounds: the batch pulls its dense rounds on the
// small-world, uniform and directed inputs, and every source's levels are
// BFSRef's whatever the width, duplicates included. On the directed graph
// the pull must read the in-CSR: over the out-CSR the levels would follow
// reversed arcs.
func TestBFSBatchPullRounds(t *testing.T) {
	ctx := context.Background()
	for _, in := range []struct {
		name string
		g    *graph.CSR
	}{
		{"social", graph.Generate(graph.KindSocial, 4096, 7)},
		{"sparse", graph.Generate(graph.KindSparse, 4096, 7)},
		{"directed", randomDigraph(3000, 8, 7)},
	} {
		for _, k := range []int{1, 7, 64} {
			for _, threads := range []int{1, 3} {
				name := fmt.Sprintf("%s/k=%d/t%d", in.name, k, threads)
				sources := dupSources(in.g.N, k)
				d := &direction{}
				res, err := bfsBatch(ctx, native.New(), in.g, sources, threads, d)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if d.pulls == 0 {
					t.Errorf("%s: no pull round", name)
				}
				for i, src := range sources {
					if !slices.Equal(res.Level[i], BFSRef(in.g, src)) {
						t.Fatalf("%s: levels from source %d (#%d) differ from BFSRef", name, src, i)
					}
				}
			}
		}
	}
}

// TestBFSBatchPullIgnoresFinishedSources: a pull probe waits only for
// bits that moved last round. A source on an isolated vertex finishes at
// once; were its bit awaited, no vertex would ever stop probing early and
// the pass would do about twice the work.
func TestBFSBatchPullIgnoresFinishedSources(t *testing.T) {
	social := graph.Generate(graph.KindSocial, 4096, 7)
	var edges []graph.Edge
	for v := 0; v < social.N; v++ {
		ts, _ := social.Neighbors(v)
		for _, u := range ts {
			edges = append(edges, graph.Edge{From: int32(v), To: u, Weight: 1})
		}
	}
	g := graph.FromEdges(social.N+1, edges, false) // vertex social.N is isolated
	sources := batchSources(social.N, BFSBatchWidth-1)
	instr := func(sources []int) uint64 {
		d := &direction{}
		res, err := bfsBatch(context.Background(), native.New(), g, sources, 1, d)
		if err != nil {
			t.Fatal(err)
		}
		if d.pulls == 0 {
			t.Fatal("no pull round")
		}
		return res.Report.Instructions[0]
	}
	alone, with := instr(sources), instr(append(sources, social.N))
	if with > alone+alone/100 {
		t.Fatalf("an isolated source raised the pass from %d to %d instructions", alone, with)
	}
}

// TestBFSBatchCancelMidPull cancels the batch at each of its polls in
// turn — the last arrival at every barrier, whichever thread that is —
// and at least one of those polls falls in a pull round. Each canceled
// run returns the context's error and no result.
func TestBFSBatchCancelMidPull(t *testing.T) {
	const threads = 4
	g := graph.Generate(graph.KindSocial, 4096, 7)
	sources := batchSources(g.N, BFSBatchWidth)
	midPull := 0
	for live := int64(1); ; live++ {
		ctx := cancelAtPoll(live, context.Canceled)
		d := &direction{}
		res, err := bfsBatch(ctx, native.New(), g, sources, threads, d)
		if ctx.left.Load() >= 0 {
			if err != nil {
				t.Fatalf("uncanceled run failed: %v", err)
			}
			break // the run finished within live polls
		}
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("canceled at poll %d: err %v, result %v", live+1, err, res)
		}
		if d.dir == dirPull {
			midPull++
		}
	}
	if midPull == 0 {
		t.Fatal("no cancellation arrived during a pull round")
	}
}

// TestBFSBatchRaceSweepCellsPull: the BFSBatch cells of the racecheck
// sweep (sparse n=40, generator seed 1, 2 and 3 threads) run pull
// rounds, so the happens-before check covers the pull loop, the
// double-buffered front words and the direction switches.
func TestBFSBatchRaceSweepCellsPull(t *testing.T) {
	g := graph.Generate(graph.KindSparse, 40, 1)
	for _, threads := range []int{2, 3} {
		pl, d := racecheck.New(), &direction{}
		if _, err := bfsBatch(context.Background(), pl, g, []int{0, 1, g.N - 1, 1}, threads, d); err != nil {
			t.Fatal(err)
		}
		if d.pulls == 0 {
			t.Errorf("t%d: no pull round", threads)
		}
		if races := pl.Races(); len(races) != 0 {
			t.Errorf("t%d: %d races, first %v", threads, len(races), races[0])
		}
	}
}

// componentGraph lays a social graph, a random digraph and a path side by
// side over n vertices and leaves the last tenth isolated: several
// components, some with vertices no source reaches.
func componentGraph(n int, seed int64) *graph.CSR {
	var edges []graph.Edge
	off := int32(0)
	for _, part := range []*graph.CSR{graph.Generate(graph.KindSocial, n/2, seed), randomDigraph(n/4, 3, seed)} {
		for v := 0; v < part.N; v++ {
			ts, _ := part.Neighbors(v)
			for _, u := range ts {
				edges = append(edges, graph.Edge{From: off + int32(v), To: off + u, Weight: 1})
			}
		}
		off += int32(part.N)
	}
	for v := off + 1; v < off+int32(n/10); v++ {
		edges = append(edges, graph.Edge{From: v - 1, To: v, Weight: 1}, graph.Edge{From: v, To: v - 1, Weight: 1})
	}
	return graph.FromEdges(n, edges, false)
}

// TestBFSBatchMatchesRefAcrossComponents: on a graph of several
// components and isolated vertices, every row is BFSRef's, -1 wherever
// its source does not reach, and each source's Visited and Levels are
// the summary of that row. n = 2048 fills whole cache lines and rows of
// a power-of-two size; n = 1001 ends each row mid-line.
func TestBFSBatchMatchesRefAcrossComponents(t *testing.T) {
	ctx := context.Background()
	check := func(name string, g *graph.CSR, sources []int, res *BFSBatchResult) {
		t.Helper()
		for i, src := range sources {
			ref := BFSRef(g, src)
			if !slices.Equal(res.Level[i], ref) {
				t.Fatalf("%s: levels from source %d (#%d) differ from BFSRef", name, src, i)
			}
			if vis, lv := bfsSummary(ref); res.Visited[i] != vis || res.Levels[i] != lv {
				t.Fatalf("%s: source %d (#%d) summary %d/%d, want %d/%d",
					name, src, i, res.Visited[i], res.Levels[i], vis, lv)
			}
		}
	}
	for _, n := range []int{2048, 1001} {
		g := componentGraph(n, 5)
		if g.Degree(n-1) != 0 {
			t.Fatalf("n=%d: vertex %d is not isolated", n, n-1)
		}
		for _, k := range []int{1, 7, BFSBatchWidth} {
			for _, isolated := range []bool{false, true} {
				sources := dupSources(n, k)
				if isolated {
					sources[k-1] = n - 1
				}
				for _, threads := range []int{1, 2, 4} {
					name := fmt.Sprintf("n=%d/k=%d/isolated=%v/t%d", n, k, isolated, threads)
					res, err := BFSBatch(ctx, native.New(), g, sources, threads)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					check(name, g, sources, res)
				}
			}
		}
	}
	g := componentGraph(1001, 5)
	sources := append(dupSources(g.N, 6), g.N-1)
	pl := racecheck.New()
	res, err := BFSBatch(ctx, pl, g, sources, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("racecheck", g, sources, res)
	if races := pl.Races(); len(races) != 0 {
		t.Fatalf("racecheck: %d races, first %v", len(races), races[0])
	}
}

// TestBFSBatchLevelRowsDoNotAlias pins the level layout: each row is an
// n-element window, and consecutive rows start a whole, odd number of
// 64-byte lines apart, so the lines a settle writes in turn do not share
// a cache set even when n is a power of two.
func TestBFSBatchLevelRowsDoNotAlias(t *testing.T) {
	for _, n := range []int{32768, 1001, 40, 16, 1} {
		g := randomDigraph(n, 2, 1)
		sources := make([]int, BFSBatchWidth)
		for i := range sources {
			sources[i] = i * 7 % n
		}
		res, err := BFSBatch(context.Background(), native.New(), g, sources, 2)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, row := range res.Level {
			if len(row) != n || cap(row) != n {
				t.Fatalf("n=%d: row %d has len %d cap %d, want %d", n, i, len(row), cap(row), n)
			}
			if i == 0 {
				continue
			}
			gap := uintptr(unsafe.Pointer(unsafe.SliceData(row))) - uintptr(unsafe.Pointer(unsafe.SliceData(res.Level[i-1])))
			if gap%64 != 0 || gap/64%2 != 1 || gap < uintptr(4*n) {
				t.Fatalf("n=%d: rows %d and %d start %d bytes apart, want an odd number of whole lines of at least %d bytes", n, i-1, i, gap, 4*n)
			}
		}
	}
}

// BenchmarkBFSBatch times one 64-source pass over social n=32768 at two
// threads on a warm native platform, the sources spread over the largest
// component: the shape of the batch arm of the kernel-social benchmark.
func BenchmarkBFSBatch(b *testing.B) {
	g := graph.Generate(graph.KindSocial, 32768, 1)
	labels := ComponentsRef(g)
	root := int32(largestComponentSource(g))
	var comp []int
	for v, l := range labels {
		if l == root {
			comp = append(comp, v)
		}
	}
	sources := make([]int, BFSBatchWidth)
	for i := range sources {
		sources[i] = comp[i*len(comp)/len(sources)]
	}
	ctx, pl := context.Background(), native.New()
	if _, err := BFSBatch(ctx, pl, g, sources, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BFSBatch(ctx, pl, g, sources, 2); err != nil {
			b.Fatal(err)
		}
	}
}
