package main

import (
	"encoding/json"
	"math"
	"testing"
)

func TestSpeedupGuards(t *testing.T) {
	cases := []struct {
		name               string
		scanNs, frontierNs uint64
		want               float64
	}{
		{"normal", 300, 100, 3},
		{"slowdown", 100, 200, 0.5},
		{"both zero", 0, 0, 1},
		{"zero frontier", 500, 0, 500},
		// A zero base with a nonzero contender is a too-coarse timer, not
		// a measured infinite slowdown: the base clamps to one tick. The
		// pre-fix 0.0 here failed every -assert floor spuriously.
		{"zero scan", 0, 100, 0.01},
		{"zero scan one tick", 0, 1, 1},
	}
	for _, c := range cases {
		got := speedup(c.scanNs, c.frontierNs)
		if got != c.want {
			t.Errorf("%s: speedup(%d, %d) = %g, want %g", c.name, c.scanNs, c.frontierNs, got, c.want)
		}
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("%s: non-finite speedup %g", c.name, got)
		}
	}
}

// TestSpeedupMarshals pins the reason for the clamp: encoding/json
// rejects Inf, so a zero frontier time must still yield an encodable
// report.
func TestSpeedupMarshals(t *testing.T) {
	r := benchResult{Kernel: "BFS", Graph: "sparse", Speedup: speedup(500, 0)}
	if _, err := json.Marshal(r); err != nil {
		t.Fatalf("marshal with zero frontier time: %v", err)
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
	as, err = parseAsserts("BFS:road-ca:rcmsim:1.5, BFS:social:batched:4, COMM:social:frontier:1.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 3 || as[0].column != "rcmsim" || as[1].column != "batched" || as[2].column != "frontier" {
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
	} {
		if _, err := parseAsserts(bad); err == nil {
			t.Errorf("parseAsserts(%q) accepted", bad)
		}
	}
}

func TestFindSpeedup(t *testing.T) {
	rs := []benchResult{
		{Kernel: "BFS", Graph: "sparse", Speedup: 2.5, RCMSimSpeedup: 3.5, BatchedSpeedup: 8},
		{Kernel: "COMM", Graph: "social", Speedup: 1.5},
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
