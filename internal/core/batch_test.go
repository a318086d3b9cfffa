package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

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
