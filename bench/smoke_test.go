package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

func smokeRun(t *testing.T, workload string, trace bool) (*record, string) {
	t.Helper()
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	rec, err := benchmark(options{
		workload: workload, seed: 7, seconds: 1, trace: trace, scale: "smoke",
		specPath: specPath, traceOut: traceFile,
	})
	if err != nil {
		t.Fatalf("%s trace=%t: %v", workload, trace, err)
	}
	if rec.Failed != 0 || !rec.Correct {
		t.Errorf("%s trace=%t: %d of %d ops failed: %v", workload, trace, rec.Failed, rec.Attempted, rec.Failures)
	}
	return rec, traceFile
}

// TestSmoke runs every workload at the smoke scale, untraced and
// traced, and holds what it prints against BENCHMARK.json: each listed
// metric is printed, finite and well named (benchmark itself refuses to
// print a metric the spec does not list), every per-layer metric is
// measured by some workload, and a trace file's spans form a forest.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	measured := map[string]bool{}
	for _, wl := range spec.Workloads {
		rec, _ := smokeRun(t, wl.Name, false)
		checkMetrics(t, wl.Name, rec, spec.EndToEnd, name)
		for _, m := range spec.EndToEnd {
			if rec.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, rec.Metrics[m.Name].Value)
			}
		}

		rec, traceFile := smokeRun(t, wl.Name, true)
		checkMetrics(t, wl.Name, rec, spec.PerLayer, name)
		for m := range rec.Samples {
			measured[m] = true
		}
		checkTrace(t, wl.Name, traceFile)
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", m.Name)
		}
	}
}

func checkMetrics(t *testing.T, workload string, rec *record, want []metricSpec, name *regexp.Regexp) {
	t.Helper()
	if len(rec.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", workload, len(rec.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rec.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", workload, m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, m.Name, got.Value)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, m.Name, got.Unit, m.Unit)
		}
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", m.Name)
		}
	}
}

func checkTrace(t *testing.T, workload, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("%s: trace file: %v", workload, err)
	}
	if len(trace.Spans) == 0 {
		t.Fatalf("%s: trace file has no spans", workload)
	}
	ids := map[int64]bool{}
	for _, s := range trace.Spans {
		ids[s.ID] = true
	}
	for _, s := range trace.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d (%s/%s) names missing parent %d", workload, s.ID, s.Layer, s.Name, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d ends before it starts", workload, s.ID)
		}
	}
}

// TestOneThreadCyclesRepeat pins the one simulated statistic that must
// repeat bit for bit: two runs of the same seed count the same cycles
// and instructions for the one-thread job.
func TestOneThreadCyclesRepeat(t *testing.T) {
	a, _ := smokeRun(t, "sim-sparse", true)
	b, _ := smokeRun(t, "sim-sparse", true)
	for _, m := range []string{"sim.BFS.scan.1t.cycles", "sim.BFS.scan.1t.instr"} {
		if a.Metrics[m].Value == 0 || a.Metrics[m].Value != b.Metrics[m].Value {
			t.Errorf("%s = %v, then %v", m, a.Metrics[m].Value, b.Metrics[m].Value)
		}
	}
}

// TestCompare writes two result sets and checks that a metric worse by
// more than its bound, and only that, is marked.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	set := func(name string, opsPerS float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			rec := &record{Workload: "serve-read"}
			rec.Metrics = map[string]metricValue{
				"ops_per_s":  {Value: opsPerS + float64(i), Unit: "1/s"},
				"geomean_ms": {Value: 3, Unit: "ms"},
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, same, slow := set("base", 300), set("same", 295), set("slow", 150)

	var out bytes.Buffer
	ok, err := compareSets(&out, specPath, base, same)
	if err != nil || !ok {
		t.Errorf("equal sets: ok=%t err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = compareSets(&out, specPath, base, slow)
	if err != nil || ok {
		t.Errorf("halved throughput: ok=%t err=%v\n%s", ok, err, out.String())
	}
	if n := strings.Count(out.String(), "beyond-bound"); n != 1 {
		t.Errorf("want 1 beyond-bound row, got %d:\n%s", n, out.String())
	}
}
