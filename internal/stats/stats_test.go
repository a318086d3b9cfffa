package stats

import (
	"bytes"
	"strings"
	"testing"

	"crono/internal/exec"
)

func TestTableFprintAlignment(t *testing.T) {
	tb := NewTable("title", "Name", "Value")
	tb.Add("a", "1")
	tb.Add("longer-name", "22")
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "title") {
		t.Fatalf("missing title: %q", lines[0])
	}
	// All value columns start at the same offset.
	off := strings.Index(lines[1], "Value")
	if strings.Index(lines[3], "1") != off || strings.Index(lines[4], "22") != off {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableAddf(t *testing.T) {
	tb := NewTable("", "A", "B", "C")
	tb.Addf(3, 0.12345, "x")
	if tb.Rows[0][0] != "3" || tb.Rows[0][1] != "0.123" || tb.Rows[0][2] != "x" {
		t.Fatalf("row %v", tb.Rows[0])
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Add("x,y", `has "quote"`)
	var buf bytes.Buffer
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",\"has \"\"quote\"\"\"\n"
	if buf.String() != want {
		t.Fatalf("csv %q, want %q", buf.String(), want)
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(100, 25) != 4 {
		t.Fatal("speedup math")
	}
	if Speedup(100, 0) != 0 {
		t.Fatal("division by zero not guarded")
	}
}

func TestBreakdownRow(t *testing.T) {
	var b exec.Breakdown
	b[exec.CompCompute] = 75
	b[exec.CompSync] = 25
	row := BreakdownRow(b)
	if len(row) != int(exec.NumComponents) {
		t.Fatalf("row length %d", len(row))
	}
	if row[exec.CompCompute] != "0.750" || row[exec.CompSync] != "0.250" {
		t.Fatalf("row %v", row)
	}
}

func TestBucketedTrace(t *testing.T) {
	trace := []exec.ActiveSample{
		{Time: 0, Active: 0},
		{Time: 25, Active: 10},
		{Time: 50, Active: 20},
		{Time: 75, Active: 10},
		{Time: 99, Active: 0},
	}
	out := BucketedTrace(trace, 100, 5)
	if len(out) != 5 {
		t.Fatalf("buckets %d", len(out))
	}
	if out[2] != 1.0 {
		t.Fatalf("peak bucket %g, want 1.0", out[2])
	}
	if out[0] != 0 || out[4] != 0 {
		t.Fatalf("edges %g/%g", out[0], out[4])
	}
	// Empty buckets carry the previous value forward.
	sparse := []exec.ActiveSample{{Time: 0, Active: 4}}
	out = BucketedTrace(sparse, 100, 4)
	for i, v := range out {
		if v != 1.0 {
			t.Fatalf("bucket %d = %g, want carried 1.0", i, v)
		}
	}
	if got := BucketedTrace(nil, 100, 3); len(got) != 3 {
		t.Fatal("nil trace should give zero buckets of requested length")
	}
}

// TestBucketedTraceEdgeCases pins the boundary behaviour: empty trace,
// non-positive bucket counts (previously a panic for nb < 0), zero total,
// and a single-sample trace.
func TestBucketedTraceEdgeCases(t *testing.T) {
	sample := []exec.ActiveSample{{Time: 10, Active: 5}}

	if got := BucketedTrace(sample, 100, 0); got != nil {
		t.Fatalf("nb=0 returned %v, want nil", got)
	}
	if got := BucketedTrace(sample, 100, -3); got != nil {
		t.Fatalf("nb=-3 returned %v, want nil (must not panic)", got)
	}

	got := BucketedTrace([]exec.ActiveSample{}, 100, 4)
	if len(got) != 4 {
		t.Fatalf("empty trace length %d, want 4", len(got))
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("empty trace bucket %d = %g, want 0", i, v)
		}
	}

	// total=0 means no time axis to bucket over: all zeros.
	got = BucketedTrace(sample, 0, 4)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("total=0 bucket %d = %g, want 0", i, v)
		}
	}

	// A single sample normalizes to itself (1.0) and carries forward from
	// its own bucket; buckets before it stay 0.
	got = BucketedTrace([]exec.ActiveSample{{Time: 60, Active: 7}}, 100, 4)
	if len(got) != 4 {
		t.Fatalf("single-sample length %d, want 4", len(got))
	}
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("buckets before the sample = %g/%g, want 0/0", got[0], got[1])
	}
	if got[2] != 1.0 || got[3] != 1.0 {
		t.Fatalf("sample bucket and carry-forward = %g/%g, want 1/1", got[2], got[3])
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1, -1, 2})
	if len([]rune(s)) != 5 {
		t.Fatalf("length %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[2] != '█' || runes[3] != '▁' || runes[4] != '█' {
		t.Fatalf("sparkline %q", s)
	}
}
