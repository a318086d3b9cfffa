package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crono/internal/core"
	"crono/internal/graph"
	"crono/internal/harness"
)

// crono runs the command in-process and returns its exit status, stdout
// and stderr.
func crono(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := dispatch(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustCrono runs the command and fails the test unless it succeeds.
func mustCrono(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := crono(t, args...)
	if code != 0 {
		t.Fatalf("crono %s: exit %d, stderr:\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

func TestGraphgenStats(t *testing.T) {
	out := mustCrono(t, "graphgen", "-kind", "road-ca", "-n", "256", "-stats")
	s := graph.Summarize(graph.Generate(graph.KindRoadCA, 256, 42))
	for _, want := range []string{"kind=road-ca ", " components=", " largest-cc="} {
		if !strings.Contains(out, want) {
			t.Errorf("stats line %q lacks %q", out, want)
		}
	}
	if !strings.Contains(out, fmt.Sprintf(" vertices=%d edges=%d ", s.Vertices, s.Edges)) {
		t.Errorf("stats line %q does not report the generator's %d edges", out, s.Edges)
	}
}

func TestGraphgenMatrixMarketRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.mtx")
	if out := mustCrono(t, "graphgen", "-kind", "social", "-n", "300", "-seed", "7", "-format", "mtx", "-o", path); out != "" {
		t.Fatalf("-o still wrote %d bytes to stdout", len(out))
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := graph.ReadMatrixMarket(f, graph.MaxN)
	if err != nil {
		t.Fatal(err)
	}
	if want := graph.Generate(graph.KindSocial, 300, 7); got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("re-read graph fingerprint %x, generated %x", got.Fingerprint(), want.Fingerprint())
	}
}

func TestSweepTwoValues(t *testing.T) {
	out := mustCrono(t, "sweep", "-bench", "BFS", "-dim", "l1kb", "-values", "16,32", "-threads", "1", "-n", "256")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want a header and 2 rows:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "benchmark,l1kb,threads,cycles,") {
		t.Fatalf("header %q", lines[0])
	}
	for i, v := range []string{"16", "32"} {
		if !strings.HasPrefix(lines[i+1], "BFS,"+v+",1,") {
			t.Errorf("row %d = %q, want BFS,%s,1,...", i, lines[i+1], v)
		}
	}
}

func TestTraceRecordReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bfs.trace")
	rec := mustCrono(t, "trace", "-record", path, "-bench", "BFS", "-threads", "2", "-n", "256")
	if !strings.HasPrefix(rec, "recorded BFS: 2 threads, ") {
		t.Fatalf("record printed %q", rec)
	}
	rep := mustCrono(t, "trace", "-replay", path, "-cores", "16")
	if !strings.HasPrefix(rep, "replayed ") || !strings.Contains(rep, " on 16 simulated in-order cores: ") {
		t.Fatalf("replay printed %q", rep)
	}
	if code, _, stderr := crono(t, "trace"); code != 1 || !strings.HasPrefix(stderr, "crono trace: need -record") {
		t.Fatalf("trace with neither mode: exit %d, stderr %q", code, stderr)
	}
}

func TestExperimentsList(t *testing.T) {
	out := mustCrono(t, "experiments", "-list")
	for _, e := range harness.All() {
		if !strings.Contains(out, e.ID+" ") {
			t.Errorf("-list omits %s", e.ID)
		}
	}
}

func TestValidatePasses(t *testing.T) {
	out := mustCrono(t, "validate", "-trials", "2")
	if !strings.Contains(out, "all checks passed (2 trials x 17 kernel runs)") {
		t.Fatalf("validate printed %q", out)
	}
}

func TestBareFlagsRunABenchmark(t *testing.T) {
	out := mustCrono(t, "-bench", "BFS", "-platform", "native", "-n", "256", "-json")
	var rep struct {
		Benchmark, Platform string
		Threads             int
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("%v in %q", err, out)
	}
	if rep.Benchmark != "BFS" || rep.Platform != "native" || rep.Threads != 16 {
		t.Fatalf("report %+v", rep)
	}
}

// TestListNamesEveryBenchmark: -list prints every name -bench accepts,
// the variants included.
func TestListNamesEveryBenchmark(t *testing.T) {
	out := mustCrono(t, "-list")
	for _, b := range append(core.Suite(), core.Variants()...) {
		if !strings.Contains(out, b.Name+" ") {
			t.Errorf("-list omits %s", b.Name)
		}
	}
}

func TestUnknownSubcommandFailsWithUsage(t *testing.T) {
	code, stdout, stderr := crono(t, "bogus", "-n", "4")
	if code != 2 || stdout != "" {
		t.Fatalf("exit %d, stdout %q", code, stdout)
	}
	if !strings.Contains(stderr, `unknown subcommand "bogus"`) || !strings.Contains(stderr, "usage: crono [run|sweep|") {
		t.Fatalf("stderr %q", stderr)
	}
}

func TestBadFlagIsAUsageError(t *testing.T) {
	code, _, stderr := crono(t, "sweep", "-nope")
	if code != 2 || !strings.Contains(stderr, "Usage of crono sweep:") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if code, _, _ := crono(t, "graphgen", "-help"); code != 0 {
		t.Fatalf("-help: exit %d, want 0", code)
	}
}
