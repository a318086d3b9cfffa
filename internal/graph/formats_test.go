package graph

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := UniformSparse(150, 4, 30, 21)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf, MaxN)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != g.N || back.M() != g.M() {
		t.Fatalf("round trip %d/%d, want %d/%d", back.N, back.M(), g.N, g.M())
	}
	if d := diffCSR(back, g); d != "" {
		t.Fatalf("round trip: %s", d)
	}
}

func TestMatrixMarketVariants(t *testing.T) {
	// Pattern symmetric: unit weights, symmetrized.
	in := `%%MatrixMarket matrix coordinate pattern symmetric
% a comment
3 3 2
2 1
3 2
`
	g, err := ReadMatrixMarket(strings.NewReader(in), MaxN)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.M() != 4 {
		t.Fatalf("pattern symmetric: %d vertices %d edges", g.N, g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("symmetrization missing")
	}
	// Real general with float weights.
	in = `%%MatrixMarket matrix coordinate real general
2 2 1
1 2 3.7
`
	g, err = ReadMatrixMarket(strings.NewReader(in), MaxN)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 4 {
		t.Fatalf("rounded weight %d, want 4", w)
	}
	if g.HasEdge(1, 0) {
		t.Fatal("general matrix symmetrized")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 0 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 -4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\nx y 1\n",
	}
	for i, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in), MaxN); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMETISRoundTrip(t *testing.T) {
	g := UniformSparse(120, 3, 20, 33)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMETIS(&buf, MaxN)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != g.N || back.M() != g.M() {
		t.Fatalf("round trip %d/%d, want %d/%d", back.N, back.M(), g.N, g.M())
	}
	if d := diffCSR(back, g); d != "" {
		t.Fatalf("round trip: %s", d)
	}
}

func TestMETISUnweighted(t *testing.T) {
	in := "3 2\n2 3\n1\n1\n"
	g, err := ReadMETIS(strings.NewReader(in), MaxN)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.M() != 4 {
		t.Fatalf("%d vertices %d edges", g.N, g.M())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Fatalf("weight %d", w)
	}
}

func TestMETISErrors(t *testing.T) {
	cases := []string{
		"x y\n",
		"2 1 011\n2 1\n1 1\n", // vertex weights unsupported
		"3 1\n2\n",            // missing vertex lines
		"2 1\n9\n\n",          // neighbor out of range
		"2 1 001\n2 x\n1 1\n", // bad weight
	}
	for i, in := range cases {
		if _, err := ReadMETIS(strings.NewReader(in), MaxN); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Writing a directed graph must fail.
	d := FromEdges(3, []Edge{{From: 0, To: 1, Weight: 2}}, false)
	if err := WriteMETIS(&bytes.Buffer{}, d); err == nil {
		t.Error("asymmetric graph accepted by METIS writer")
	}
}

// TestMETISHubLineBeyondMegabyte regression-tests the removal of the
// readers' 1 MiB line cap: a single high-degree hub's adjacency row in a
// METIS file easily exceeds it, and the old bufio.Scanner-based reader
// rejected the file outright (bufio.ErrTooLong).
func TestMETISHubLineBeyondMegabyte(t *testing.T) {
	const n = 1 << 18 // star center with 262143 neighbors: ~2.3 MiB line
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{From: 0, To: int32(i), Weight: int32(i%9 + 1)})
	}
	g := FromEdges(n, edges, true)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 2<<20 {
		t.Fatalf("test graph too small to exercise the cap: %d bytes", buf.Len())
	}
	back, err := ReadMETIS(&buf, MaxN)
	if err != nil {
		t.Fatalf("hub line rejected: %v", err)
	}
	if back.N != g.N || back.M() != g.M() {
		t.Fatalf("round trip %d/%d, want %d/%d", back.N, back.M(), g.N, g.M())
	}
	if w, ok := back.EdgeWeight(0, n-1); !ok || w != int32((n-1)%9+1) {
		t.Fatalf("hub edge weight %d (%v)", w, ok)
	}
}

// TestMatrixMarketLongCommentLine: comment lines are unbounded too.
func TestMatrixMarketLongCommentLine(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("%%MatrixMarket matrix coordinate pattern general\n%")
	sb.WriteString(strings.Repeat("x", 2<<20))
	sb.WriteString("\n2 2 1\n1 2\n")
	g, err := ReadMatrixMarket(strings.NewReader(sb.String()), MaxN)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 2 || !g.HasEdge(0, 1) {
		t.Fatal("graph mangled by long comment")
	}
}

func TestFormatsMalformedLines(t *testing.T) {
	mm := []string{
		"%%MatrixMarket matrix coordinate real general\na b c\n",                                       // garbage size line
		"%%MatrixMarket matrix coordinate real general\n2 2\n",                                         // short size line
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",                                    // lone entry field
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 x\n",                                // bad weight
		"%%MatrixMarket matrix coordinate real general\n",                                              // no size line
		"%%MatrixMarket matrix coordinate real general\n99999999999999999999 99999999999999999999 1\n", // overflow
	}
	for i, in := range mm {
		if _, err := ReadMatrixMarket(strings.NewReader(in), MaxN); err == nil {
			t.Errorf("MatrixMarket case %d accepted", i)
		}
	}
	metis := []string{
		"",                            // no header
		"99999999999999999999 1\n1\n", // overflow vertex count
		"2\n1\n2\n",                   // header missing edge count
	}
	for i, in := range metis {
		if _, err := ReadMETIS(strings.NewReader(in), MaxN); err == nil {
			t.Errorf("METIS case %d accepted", i)
		}
	}
	// Windows line endings must parse identically.
	g, err := ReadMETIS(strings.NewReader("3 2\r\n2 3\r\n1\r\n1\r\n"), MaxN)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.M() != 4 {
		t.Fatalf("CRLF METIS: %d vertices %d edges", g.N, g.M())
	}
}

func benchmarkInput(b *testing.B, write func(io.Writer, *CSR) error) []byte {
	b.Helper()
	g := UniformSparse(20000, 8, 100, 42)
	var buf bytes.Buffer
	if err := write(&buf, g); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkReadMETIS(b *testing.B) {
	in := benchmarkInput(b, WriteMETIS)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMETIS(bytes.NewReader(in), MaxN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadMatrixMarket(b *testing.B) {
	in := benchmarkInput(b, WriteMatrixMarket)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMatrixMarket(bytes.NewReader(in), MaxN); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExtraGenerators(t *testing.T) {
	rmat := RMAT(10, 8, 5)
	if err := rmat.Validate(); err != nil {
		t.Fatal(err)
	}
	if rmat.N != 1024 || !rmat.IsSymmetric() {
		t.Fatalf("rmat %d vertices", rmat.N)
	}
	// RMAT is skewed: its max degree dwarfs the average.
	if rmat.MaxDegree() < 4*int(rmat.AvgDegree()) {
		t.Fatalf("rmat too uniform: max %d avg %.1f", rmat.MaxDegree(), rmat.AvgDegree())
	}

	sw := SmallWorld(500, 6, 0.1, 7)
	if err := sw.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sw.IsSymmetric() {
		t.Fatal("small world not symmetric")
	}
	if d := sw.AvgDegree(); d < 4 || d > 8 {
		t.Fatalf("small world avg degree %g", d)
	}

	grid := Grid(8, 5)
	if grid.N != 40 || grid.M() != 2*(7*5+8*4) {
		t.Fatalf("grid %d/%d", grid.N, grid.M())
	}
	if _, sizes := ComponentsBFS(grid); len(sizes) != 1 {
		t.Fatal("grid disconnected")
	}

	torus := Torus(6, 4)
	for v := 0; v < torus.N; v++ {
		if torus.Degree(v) != 4 {
			t.Fatalf("torus vertex %d degree %d", v, torus.Degree(v))
		}
	}
}

func TestExtraGeneratorsDegenerate(t *testing.T) {
	if g := SmallWorld(2, 4, 0.5, 1); g.Validate() != nil {
		t.Fatal("tiny small world invalid")
	}
	if g := RMAT(0, 2, 1); g.Validate() != nil {
		t.Fatal("tiny rmat invalid")
	}
	if g := Grid(1, 1); g.N != 1 || g.M() != 0 {
		t.Fatal("unit grid wrong")
	}
}
