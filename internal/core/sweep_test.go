package core

import (
	"context"
	"fmt"
	"os"
	"testing"

	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/native"
)

// sweepSimPinned holds, for every kernel that sweeps a static vertex range
// through exec.Thread's sweep annotations, the simulated completion time,
// breakdown and instruction count of one multi-thread run. The values
// were taken before the kernels used the sweeps, when each skipped vertex
// was its own AtomicLoad/Load and Compute(1); a sweep replays exactly that
// stream on a Model, so none of them may move.
var sweepSimPinned = map[string]string{
	"BFS.scan/sparse/t4":        "time=90747 brk=[30957 29948 92 4955 134811 162225] instr=30957",
	"BFS.scan/sparse/t16":       "time=45229 brk=[31044 43954 259 8688 134817 504902] instr=31044",
	"BFS.scan/road-ca/t4":       "time=127779 brk=[81414 32353 48 4685 167586 225030] instr=81414",
	"BFS.scan/road-ca/t16":      "time=85591 brk=[82206 56906 1307 19707 167704 1041626] instr=82206",
	"BFS.frontier/social/t4":    "time=29254 brk=[5183 11164 26 891 64896 34856] instr=5183",
	"BFS.frontier/social/t16":   "time=15564 brk=[5183 12120 72 1120 64907 165622] instr=5183",
	"SSSP_DIJK.scan/sparse/t4":  "time=272813 brk=[193093 120720 84 49592 199904 527859] instr=193093",
	"SSSP_DIJK.scan/sparse/t16": "time=250182 brk=[194637 184468 921 69032 200699 3353155] instr=194637",
	"BFSBatch/social/t4":        "time=96417 brk=[45884 41712 2675 8718 159006 127673] instr=45884",
	"BFSBatch/social/t16":       "time=43882 brk=[45884 64552 4091 15113 159115 413357] instr=45884",
}

// TestSweepKernelsSimPinned runs the sweeping kernels on the simulator at
// 4 and 16 threads and compares each report with sweepSimPinned. Since
// the simulator's deterministic scheduler, multi-thread runs repeat bit
// for bit, so this pins every simulated thread's stream, not one
// thread's. Run with CRONO_SWEEP_GEN=1 to print the table instead.
func TestSweepKernelsSimPinned(t *testing.T) {
	ctx := context.Background()
	sparse := graph.Generate(graph.KindSparse, 512, 3)
	social := graph.Generate(graph.KindSocial, 512, 3)
	road := graph.Generate(graph.KindRoadCA, 1024, 3)
	kernels := []struct {
		name string
		run  func(pl exec.Platform, threads int) *exec.Report
	}{
		{"BFS.scan/sparse", func(pl exec.Platform, threads int) *exec.Report {
			res, err := BFS(ctx, pl, sparse, 1, threads)
			if err != nil {
				t.Fatal(err)
			}
			if res.Visited < sparse.N/2 {
				t.Fatalf("BFS scan reached %d of %d vertices", res.Visited, sparse.N)
			}
			return res.Report
		}},
		{"BFS.scan/road-ca", func(pl exec.Platform, threads int) *exec.Report {
			res, err := BFS(ctx, pl, road, 1, threads)
			if err != nil {
				t.Fatal(err)
			}
			if res.Visited < road.N/2 {
				t.Fatalf("BFS scan reached %d of %d vertices", res.Visited, road.N)
			}
			return res.Report
		}},
		{"BFS.frontier/social", func(pl exec.Platform, threads int) *exec.Report {
			s := NewScratch()
			res, err := bfsFrontier(ctx, pl, social, 1, threads, s)
			if err != nil {
				t.Fatal(err)
			}
			if s.bfsf.pulls == 0 {
				t.Fatal("frontier BFS ran no pull round")
			}
			return res.Report
		}},
		{"SSSP_DIJK.scan/sparse", func(pl exec.Platform, threads int) *exec.Report {
			res, err := SSSP(ctx, pl, sparse, 1, threads)
			if err != nil {
				t.Fatal(err)
			}
			return res.Report
		}},
		{"BFSBatch/social", func(pl exec.Platform, threads int) *exec.Report {
			d := &direction{}
			res, err := bfsBatch(ctx, pl, social, batchSources(social.N, 8), threads, d)
			if err != nil {
				t.Fatal(err)
			}
			if d.pulls == 0 {
				t.Fatal("BFSBatch ran no pull round")
			}
			return res.Report
		}},
	}
	gen := os.Getenv("CRONO_SWEEP_GEN") != ""
	for _, k := range kernels {
		for _, threads := range []int{4, 16} {
			name := fmt.Sprintf("%s/t%d", k.name, threads)
			rep := k.run(simMachine(t, 16), threads)
			got := fmt.Sprintf("time=%d brk=%v instr=%d", rep.Time, rep.Breakdown, rep.TotalInstructions())
			if gen {
				fmt.Printf("\t%q: %q,\n", name, got)
				continue
			}
			if want := sweepSimPinned[name]; got != want {
				t.Errorf("%s: simulated report moved\n got: %s\nwant: %s", name, got, want)
			}
		}
	}
}

// BenchmarkBFSScan is the host cost of one scan BFS over road-ca
// n=131072 at 2 threads on a warm native platform, from a source in the
// largest component. The graph is deep, so each thread sweeps its whole
// chunk once per level and finds almost nothing on it: the level tests
// and the sweep flushes are most of the pass.
func BenchmarkBFSScan(b *testing.B) {
	g := graph.Generate(graph.KindRoadCA, 131072, 1)
	src := largestComponentSource(g)
	ctx, pl := context.Background(), native.New()
	if _, err := BFS(ctx, pl, g, src, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BFS(ctx, pl, g, src, 2); err != nil {
			b.Fatal(err)
		}
	}
}
