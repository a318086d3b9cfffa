package core

import (
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/native"
)

var updateInstrGolden = flag.Bool("update-instr-golden", false,
	"rewrite testdata/native_instr_1t.json from the current native instruction counts")

// TestNativeInstructionGolden pins what the native platform counts. At
// one thread the per-thread instruction count is exact (no schedule
// decides a CAS winner), so it is a bit-level fingerprint of the
// annotation stream each kernel issues: every Suite and Variants entry
// under every strategy it dispatches on, the batched BFS and the three
// incremental repairs, on small seeded sparse, road-ca and social graphs.
// A hybrid request is checked against the frontier count it aliases.
// The golden was generated before exec.Ctx became a concrete type; any
// change to how an annotation is counted natively moves a number here.
func TestNativeInstructionGolden(t *testing.T) {
	got := map[string]uint64{}
	record := func(name string, err error, report func() *exec.Report) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := report()
		if len(rep.Instructions) != 1 {
			t.Fatalf("%s: %d instruction counters, want 1", name, len(rep.Instructions))
		}
		got[name] = rep.Instructions[0]
	}
	ctx := context.Background()
	const n = 512

	for _, kind := range []graph.Kind{graph.KindSparse, graph.KindRoadCA, graph.KindSocial} {
		g := graph.Generate(kind, n, 7)
		small := graph.Generate(kind, 48, 7) // the matrix and branch-and-bound kernels
		for _, b := range append(Suite(), Variants()...) {
			strategies := []Strategy{StrategyScan}
			switch b.Name {
			case "SSSP_DIJK", "BFS", "CONN_COMP", "PageRank", "COMM":
				strategies = []Strategy{StrategyScan, StrategyFrontier, StrategyHybrid}
			}
			for _, s := range strategies {
				req := Request{Threads: 1, Strategy: s, Iters: 3, Target: n / 2}
				req.G = g
				switch {
				case b.UsesMatrix:
					req.D = graph.DenseFromCSR(small)
				case b.UsesCities:
					req.Cities = graph.Cities(7, 7)
				case b.Name == "DFS" || b.Name == "BETW_BRANDES":
					req.G = small
				}
				res, err := b.Run(ctx, native.New(), req)
				name := b.Name + "/" + string(kind) + "/" + string(s)
				if s != StrategyHybrid {
					record(name, err, func() *exec.Report { return res.Report })
					continue
				}
				// The alias is not in the golden: it must count exactly
				// what the frontier run it canonicalizes to counted.
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				frontier := b.Name + "/" + string(kind) + "/" + string(StrategyFrontier)
				if count := res.Report.Instructions[0]; count != got[frontier] {
					t.Errorf("%s: %d native instructions, %s counted %d", name, count, frontier, got[frontier])
				}
			}
		}

		// The frontier kernel again through a pooled Scratch, second (warm)
		// run on one platform: the path the benchmark and the service take.
		sc, pl := NewScratch(), native.New()
		for i := 0; i < 2; i++ {
			res, err := bfsFrontier(ctx, pl, g, 0, 1, sc)
			record("BFS.warm/"+string(kind)+"/frontier", err, func() *exec.Report { return res.Report })
		}

		batch, err := BFSBatch(ctx, native.New(), g, []int{0, 1, 2, 3, 5, 8, 13, 21, 34, 55}, 1)
		record("BFSBatch/"+string(kind), err, func() *exec.Report { return batch.Report })

		d := randomDelta(g, rand.New(rand.NewSource(11)), 12, 8)
		if err := d.Canonicalize(g.N); err != nil {
			t.Fatal(err)
		}
		next := graph.ApplyDelta(g, d)
		bfs, err := BFSIncremental(ctx, native.New(), next, 0, 1, BFSRef(g, 0), d)
		record("BFSIncremental/"+string(kind), err, func() *exec.Report { return bfs.Report })

		// The components repair takes insert-only deltas.
		ins := &graph.EdgeDelta{Inserts: d.Inserts}
		cc, err := ComponentsIncremental(ctx, native.New(), graph.ApplyDelta(g, ins), 1, ComponentsRef(g), ins)
		record("ComponentsIncremental/"+string(kind), err, func() *exec.Report { return cc.Report })

		base, err := CommunityFrontier(ctx, native.New(), g, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		comm, err := CommunityIncremental(ctx, native.New(), next, 1, 0, base.Community, d)
		record("CommunityIncremental/"+string(kind), err, func() *exec.Report { return comm.Report })
	}

	path := filepath.Join("testdata", "native_instr_1t.json")
	if *updateInstrGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: in the golden, not run", name)
		} else if g != w {
			t.Errorf("%s: %d native instructions at one thread, golden %d", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: run, not in the golden (regenerate with -update-instr-golden at a commit whose counts are trusted)", name)
		}
	}
}
