package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/native"
	"crono/internal/racecheck"
)

// closeEnough compares two modularity values up to float summation
// order: Modularity iterates Go maps, so repeated evaluations of the
// same partition can differ in the last few ulps.
func closeEnough(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestFrontierMatchesScanOnGeneratorMatrix cross-checks every frontier
// kernel against its sequential oracle (and the scan kernel where the
// result is fully determined) on every stock generator.
func TestFrontierMatchesScanOnGeneratorMatrix(t *testing.T) {
	const n = 3000
	for _, kind := range graph.Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			g := graph.Generate(kind, n, 7)
			ctx := context.Background()

			t.Run("BFS", func(t *testing.T) {
				ref := BFSRef(g, 0)
				res, err := bfsFrontier(ctx, native.New(), g, 0, 8, NewScratch())
				if err != nil {
					t.Fatal(err)
				}
				for v := range ref {
					if res.Level[v] != ref[v] {
						t.Fatalf("level[%d] = %d, oracle %d", v, res.Level[v], ref[v])
					}
				}
				scan, err := BFS(ctx, native.New(), g, 0, 8)
				if err != nil {
					t.Fatal(err)
				}
				if res.Levels != scan.Levels || res.Visited != scan.Visited {
					t.Fatalf("frontier (levels=%d visited=%d) != scan (levels=%d visited=%d)",
						res.Levels, res.Visited, scan.Levels, scan.Visited)
				}
			})

			t.Run("SSSP", func(t *testing.T) {
				ref := SSSPRef(g, 0)
				res, err := ssspFrontier(ctx, native.New(), g, 0, 8, 32, NewScratch())
				if err != nil {
					t.Fatal(err)
				}
				for v := range ref {
					if res.Dist[v] != ref[v] {
						t.Fatalf("dist[%d] = %d, oracle %d", v, res.Dist[v], ref[v])
					}
				}
			})

			t.Run("Components", func(t *testing.T) {
				ref := ComponentsRef(g)
				res, err := componentsFrontier(ctx, native.New(), g, 8, NewScratch())
				if err != nil {
					t.Fatal(err)
				}
				for v := range ref {
					if res.Labels[v] != ref[v] {
						t.Fatalf("label[%d] = %d, oracle %d", v, res.Labels[v], ref[v])
					}
				}
			})

			t.Run("Community", func(t *testing.T) {
				res, err := communityFrontier(ctx, native.New(), g, 8, DefaultCommunityPasses)
				if err != nil {
					t.Fatal(err)
				}
				// The bounded heuristic is schedule-dependent, so check
				// partition validity and modularity sanity rather than
				// equality with the scan partition.
				if len(res.Community) != g.N {
					t.Fatalf("community has %d entries, want %d", len(res.Community), g.N)
				}
				seen := make(map[int32]bool)
				for v, c := range res.Community {
					if c < 0 || int(c) >= g.N {
						t.Fatalf("community[%d] = %d out of range", v, c)
					}
					seen[c] = true
				}
				if res.Communities != len(seen) {
					t.Fatalf("Communities = %d, distinct ids = %d", res.Communities, len(seen))
				}
				if res.Modularity < -0.5 || res.Modularity > 1.0 {
					t.Fatalf("modularity %v outside [-0.5, 1]", res.Modularity)
				}
				if got := Modularity(g, res.Community); !closeEnough(got, res.Modularity) {
					t.Fatalf("reported modularity %v != recomputed %v", res.Modularity, got)
				}
			})
		})
	}
}

// TestFrontierPropertyRandomGraphs property-tests each frontier kernel
// against its oracle on random graphs across thread counts.
func TestFrontierPropertyRandomGraphs(t *testing.T) {
	t.Run("BFS", func(t *testing.T) {
		f := func(seed int64, pRaw uint8) bool {
			g := randomGraph(seed)
			p := int(pRaw)%6 + 1
			res, err := bfsFrontier(context.Background(), native.New(), g, 0, p, NewScratch())
			if err != nil {
				return false
			}
			ref := BFSRef(g, 0)
			for v := range ref {
				if res.Level[v] != ref[v] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("SSSP", func(t *testing.T) {
		f := func(seed int64, pRaw, dRaw uint8) bool {
			g := randomGraph(seed)
			p := int(pRaw)%6 + 1
			delta := int32(dRaw)%64 + 1
			res, err := ssspFrontier(context.Background(), native.New(), g, 0, p, delta, NewScratch())
			if err != nil {
				return false
			}
			ref := SSSPRef(g, 0)
			for v := range ref {
				if res.Dist[v] != ref[v] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("Components", func(t *testing.T) {
		f := func(seed int64, pRaw uint8) bool {
			g := randomGraph(seed)
			p := int(pRaw)%6 + 1
			res, err := componentsFrontier(context.Background(), native.New(), g, p, NewScratch())
			if err != nil {
				return false
			}
			ref := ComponentsRef(g)
			for v := range ref {
				if res.Labels[v] != ref[v] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("Community", func(t *testing.T) {
		f := func(seed int64, pRaw uint8) bool {
			g := randomGraph(seed)
			p := int(pRaw)%6 + 1
			res, err := communityFrontier(context.Background(), native.New(), g, p, DefaultCommunityPasses)
			if err != nil {
				return false
			}
			return closeEnough(Modularity(g, res.Community), res.Modularity)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFrontierOnSimulator spot-checks that the frontier kernels run
// unchanged on the timing simulator and still match the oracles.
func TestFrontierOnSimulator(t *testing.T) {
	g := graph.UniformSparse(160, 4, 30, 42)
	ctx := context.Background()

	bfsRef := BFSRef(g, 0)
	bres, err := bfsFrontier(ctx, simMachine(t, 16), g, 0, 8, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	for v := range bfsRef {
		if bres.Level[v] != bfsRef[v] {
			t.Fatalf("sim BFS level[%d] = %d, oracle %d", v, bres.Level[v], bfsRef[v])
		}
	}
	if bres.Report.Time <= 0 {
		t.Fatal("sim BFS report has no simulated time")
	}

	ssspRef := SSSPRef(g, 0)
	sres, err := ssspFrontier(ctx, simMachine(t, 16), g, 0, 8, 32, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	for v := range ssspRef {
		if sres.Dist[v] != ssspRef[v] {
			t.Fatalf("sim SSSP dist[%d] = %d, oracle %d", v, sres.Dist[v], ssspRef[v])
		}
	}

	ccRef := ComponentsRef(g)
	cres, err := componentsFrontier(ctx, simMachine(t, 16), g, 8, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	for v := range ccRef {
		if cres.Labels[v] != ccRef[v] {
			t.Fatalf("sim CC label[%d] = %d, oracle %d", v, cres.Labels[v], ccRef[v])
		}
	}

	mres, err := communityFrontier(ctx, simMachine(t, 16), g, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := Modularity(g, mres.Community); !closeEnough(got, mres.Modularity) {
		t.Fatalf("sim COMM reported modularity %v != recomputed %v", mres.Modularity, got)
	}
}

// TestBFSFrontierPullSwitch pins the direction rule on the run state's
// pull-round count. A pull round sweeps all n vertices, so it is taken
// only when the frontier's out-edges exceed n as well as the unexplored
// edges over HybridAlpha: never on road-ca, whose frontiers stay thin,
// and at least once on the small-world and uniform graphs. The switch
// inputs are per-level sums, so the count does not depend on the
// schedule.
func TestBFSFrontierPullSwitch(t *testing.T) {
	sizes := []int{512, 4096, 32768, 131072}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, kind := range []graph.Kind{graph.KindRoadCA, graph.KindSocial, graph.KindSparse} {
		for _, n := range sizes {
			g := graph.Generate(kind, n, 7)
			s := NewScratch()
			res, err := bfsFrontier(context.Background(), native.New(), g, 0, 2, s)
			if err != nil {
				t.Fatal(err)
			}
			pulls := s.bfsf.pulls
			if (kind == graph.KindRoadCA) != (pulls == 0) {
				t.Errorf("%s n=%d: %d pull rounds over %d levels", kind, n, pulls, res.Levels)
			}
		}
	}
}

// TestBFSFrontierLevelsAcrossMatrix: whichever directions a run takes,
// its levels are BFSRef's — fresh from a source and seeded by
// BFS's Repair after a delta, at 1, 2 and 8 threads, natively and on
// the simulator, over every generator.
func TestBFSFrontierLevelsAcrossMatrix(t *testing.T) {
	ctx := context.Background()
	bfs, err := ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, kind := range graph.Kinds {
		for _, onSim := range []bool{false, true} {
			n := 3000
			if onSim {
				n = 400
			}
			g := graph.Generate(kind, n, 3)
			d := randomDelta(g, rng, 24, 8)
			if err := d.Canonicalize(g.N); err != nil {
				t.Fatal(err)
			}
			next := graph.ApplyDelta(g, d)
			want, wantNext := BFSRef(g, 0), BFSRef(next, 0)
			for _, p := range []int{1, 2, 8} {
				pl := exec.Platform(native.New())
				if onSim {
					pl = simMachine(t, 16)
				}
				name := fmt.Sprintf("%s/sim=%t/t%d", kind, onSim, p)
				s := NewScratch()
				fresh, err := bfsFrontier(ctx, pl, g, 0, p, s)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(fresh.Level, want) {
					t.Fatalf("%s: fresh levels differ from BFSRef", name)
				}
				if pulls := s.bfsf.pulls; (kind == graph.KindSocial || kind == graph.KindSparse) && pulls == 0 {
					t.Fatalf("%s: no pull round, so the matrix does not cover the pull loop", name)
				}
				seeded, err := bfs.Repair(ctx, pl, Request{Input: Input{G: next}, Threads: p, Strategy: StrategyFrontier},
					&Result{BFS: &BFSResult{Level: want}}, d)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(seeded.BFS.Level, wantNext) {
					t.Fatalf("%s: seeded levels differ from BFSRef", name)
				}
			}
		}
	}
}

// TestRaceSweepCellsTakePullRounds: the BFS cells of the racecheck
// sweep (sparse n=40, generator seed 1, 2 and 3 threads) and crono-race's
// default (n=64, 3 threads) run pull rounds, so the happens-before check
// covers the pull loop and its direction switches, and stays race-free.
func TestRaceSweepCellsTakePullRounds(t *testing.T) {
	for _, c := range []struct{ n, threads int }{{40, 2}, {40, 3}, {64, 3}} {
		g := graph.Generate(graph.KindSparse, c.n, 1)
		pl, s := racecheck.New(), NewScratch()
		if _, err := bfsFrontier(context.Background(), pl, g, 0, c.threads, s); err != nil {
			t.Fatal(err)
		}
		if s.bfsf.pulls == 0 {
			t.Errorf("n=%d t%d: no pull round", c.n, c.threads)
		}
		if races := pl.Races(); len(races) != 0 {
			t.Errorf("n=%d t%d: %d races, first %v", c.n, c.threads, len(races), races[0])
		}
	}
}

// TestFrontierStrategyDispatch exercises the Suite dispatch path: the
// same Request with Strategy flipped must route to the frontier kernels
// and still satisfy the oracles; invalid strategies must error.
func TestFrontierStrategyDispatch(t *testing.T) {
	g := graph.UniformSparse(300, 4, 30, 9)
	ctx := context.Background()
	for _, name := range []string{"BFS", "SSSP_DIJK", "CONN_COMP", "COMM"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatalf("suite is missing %s: %v", name, err)
		}
		for _, st := range []Strategy{StrategyScan, StrategyFrontier, StrategyHybrid, ""} {
			if _, err := b.Run(ctx, native.New(), Request{Input: Input{G: g}, Threads: 4, Strategy: st}); err != nil {
				t.Fatalf("%s strategy %q: %v", name, st, err)
			}
		}
		if _, err := b.Run(ctx, native.New(), Request{Input: Input{G: g}, Threads: 4, Strategy: "warp"}); err == nil {
			t.Fatalf("%s accepted unknown strategy", name)
		}
	}
	// PageRank runs the pull form for frontier (and its hybrid alias) and
	// the paper's push form otherwise.
	pr, err := ByName("PageRank")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Strategy{StrategyScan, StrategyFrontier, StrategyHybrid, ""} {
		if _, err := pr.Run(ctx, native.New(), Request{Input: Input{G: g}, Threads: 4, Strategy: st}); err != nil {
			t.Fatalf("PageRank strategy %q: %v", st, err)
		}
	}
	if _, err := pr.Run(ctx, native.New(), Request{Input: Input{G: g}, Threads: 4, Strategy: "warp"}); err == nil {
		t.Fatal("PageRank accepted unknown strategy")
	}
	// Benchmark.Frontier tells the truth: exactly the kernels with a
	// frontier execution check the strategy; the others ignore it.
	in := Input{G: g, D: graph.DenseFromCSR(graph.UniformSparse(16, 3, 20, 1)), Cities: graph.Cities(5, 2)}
	for _, b := range append(Suite(), Variants()...) {
		_, err := b.Run(ctx, native.New(), Request{Input: in, Threads: 2, Strategy: "warp"})
		if b.Frontier != (err != nil) {
			t.Errorf("%s: Frontier %v, unknown-strategy error %v", b.Name, b.Frontier, err)
		}
	}
}
