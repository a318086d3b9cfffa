package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"crono/internal/core"
	"crono/internal/graph"
)

func TestSpeedupGuards(t *testing.T) {
	cases := []struct {
		name            string
		base, contender uint64
		want            float64
	}{
		{"normal", 300, 100, 3},
		{"slowdown", 100, 200, 0.5},
		{"equal", 7, 7, 1},
	}
	for _, c := range cases {
		if got := speedup(c.base, c.contender); got != c.want {
			t.Errorf("%s: speedup(%d, %d) = %g, want %g", c.name, c.base, c.contender, got, c.want)
		}
	}
}

// TestPickSourcesLargestComponent: vertex 0 of road-ca at seed 42 is
// isolated, so a benchmark sourced there measures a one-vertex
// traversal. The picker draws only from the largest component.
func TestPickSourcesLargestComponent(t *testing.T) {
	g := graph.Generate(graph.KindRoadCA, 262144, 42)
	if g.Degree(0) != 0 {
		t.Fatalf("vertex 0 has degree %d; the test premise is an isolated vertex 0", g.Degree(0))
	}
	labels := core.ComponentsRef(g)
	size := map[int32]int{}
	for _, l := range labels {
		size[l]++
	}
	largest := labels[0]
	for l, s := range size {
		if s > size[largest] {
			largest = l
		}
	}
	for _, k := range []int{trialSources, core.BFSBatchWidth} {
		sources, err := pickSources(g, k, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(sources) != k {
			t.Fatalf("picked %d sources, want %d", len(sources), k)
		}
		seen := map[int]bool{}
		for _, v := range sources {
			if v == 0 || labels[v] != largest || seen[v] {
				t.Fatalf("source %d: zero, outside the largest component or repeated (%v)", v, sources)
			}
			seen[v] = true
		}
	}
}

// TestReportRepeats: every ratio column is an exact count, so two runs
// of one spec write the same bytes. The warm allocs/op are left out:
// under the race detector a run's thread spawn can allocate, and
// -assertallocs, not this test, gates them.
func TestReportRepeats(t *testing.T) {
	specs, err := parseSpecs("BFS:road-ca:2048,SSSP_DIJK:social:1024,CONN_COMP:road-ca:1024")
	if err != nil {
		t.Fatal(err)
	}
	var outs [2][]byte
	for i := range outs {
		rep := report{Suite: "crono-bench", Seed: 42}
		for _, sp := range specs {
			r, err := measure(context.Background(), sp, 42)
			if err != nil {
				t.Fatal(err)
			}
			r.WarmAllocsPerOp = nil
			rep.Results = append(rep.Results, r)
		}
		path := filepath.Join(t.TempDir(), "bench.json")
		if err := writeReport(path, &rep); err != nil {
			t.Fatal(err)
		}
		if outs[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("two runs differ:\n%s\n---\n%s", outs[0], outs[1])
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := parseSpecs("BFS:road-ca:1024, CONN_COMP:sparse:4096")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].kernel != "BFS" || specs[1].n != 4096 {
		t.Fatalf("specs %+v", specs)
	}
	for _, bad := range []string{"", "BFS:road-ca", "BFS:road-ca:1", "BFS:nope:1024", "BFS:road-ca:x"} {
		if _, err := parseSpecs(bad); err == nil {
			t.Errorf("parseSpecs(%q) accepted", bad)
		}
	}
}

func TestParseAsserts(t *testing.T) {
	as, err := parseAsserts("BFS:road-ca:2.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 || as[0].min != 2.0 || as[0].column != "frontier" {
		t.Fatalf("asserts %+v", as)
	}
	as, err = parseAsserts("BFS:road-ca:rcmsim:1.5, BFS:social:batched:4, COMM:social:frontier:1.1, PageRank:social:degreesim:0.9")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 4 || as[0].column != "rcmsim" || as[1].column != "batched" || as[2].column != "frontier" || as[3].column != "degreesim" {
		t.Fatalf("four-field asserts %+v", as)
	}
	if as[1].min != 4 {
		t.Fatalf("four-field min %+v", as[1])
	}
	if as, err := parseAsserts(""); err != nil || len(as) != 0 {
		t.Fatalf("empty assert list: %v %+v", err, as)
	}
	for _, bad := range []string{
		"BFS:road-ca", "BFS:road-ca:0", "BFS:road-ca:-1", "BFS:road-ca:x",
		"BFS:road-ca:warp:2.0", "BFS:road-ca:hybrid:2.0", "BFS:road-ca:batched:0", "BFS:road-ca:batched:2.0:extra",
		// wall-clock columns that no longer exist
		"BFS:road-ca:rcm:1.0", "BFS:road-ca:degree:1.0", "SSSP_DIJK:road-ca:autodelta:1.0",
	} {
		if _, err := parseAsserts(bad); err == nil {
			t.Errorf("parseAsserts(%q) accepted", bad)
		}
	}
}

func TestFindSpeedup(t *testing.T) {
	rs := []row{
		{Kernel: "BFS", Graph: "sparse", Ratios: map[string]float64{"frontier": 2.5, "rcmsim": 3.5, "batched": 8}},
		{Kernel: "COMM", Graph: "social", Ratios: map[string]float64{"frontier": 1.5}},
	}
	if got, ok := findSpeedup(rs, "BFS", "sparse", "frontier"); !ok || got != 2.5 {
		t.Fatalf("findSpeedup frontier = %g, %v", got, ok)
	}
	if got, ok := findSpeedup(rs, "BFS", "sparse", "rcmsim"); !ok || got != 3.5 {
		t.Fatalf("findSpeedup rcmsim = %g, %v", got, ok)
	}
	if got, ok := findSpeedup(rs, "BFS", "sparse", "batched"); !ok || got != 8 {
		t.Fatalf("findSpeedup batched = %g, %v", got, ok)
	}
	if _, ok := findSpeedup(rs, "COMM", "social", "batched"); ok {
		t.Fatal("found a batched column on a spec that never ran one")
	}
	if _, ok := findSpeedup(rs, "BFS", "road-ca", "frontier"); ok {
		t.Fatal("found a spec that did not run")
	}
}

// TestWorstTrial: a column's ratio is its worst trial's.
func TestWorstTrial(t *testing.T) {
	trials := []trial{
		{Counts: map[string]uint64{"scanInstr": 900, "frontierInstr": 100}},
		{Counts: map[string]uint64{"scanInstr": 400, "frontierInstr": 100}},
		{Counts: map[string]uint64{"scanInstr": 600, "frontierInstr": 100}},
	}
	if got := worst(trials, "scanInstr", "frontierInstr"); got != 4 {
		t.Fatalf("worst = %g, want 4", got)
	}
}
