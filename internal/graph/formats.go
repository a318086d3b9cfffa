package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// lineReader yields newline-delimited lines with no maximum length. The
// readers previously sat on bufio.Scanner with a fixed 1 MiB token cap,
// which turned wide adjacency rows — a high-degree hub in a METIS file
// easily exceeds 1 MiB — into hard parse errors. The reader grows and
// reuses a single buffer, so steady-state parsing allocates nothing per
// line; returned slices are only valid until the next call.
type lineReader struct {
	br  *bufio.Reader
	buf []byte
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// next returns the next line with the trailing newline (and any carriage
// return) removed. It returns io.EOF only when no bytes remain; a final
// line without a newline is returned normally first.
func (lr *lineReader) next() ([]byte, error) {
	lr.buf = lr.buf[:0]
	for {
		frag, err := lr.br.ReadSlice('\n')
		lr.buf = append(lr.buf, frag...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil && len(lr.buf) == 0 {
			return nil, err
		}
		line := lr.buf
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		return line, nil
	}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// nextField splits off the first whitespace-delimited field of b. A nil
// field means b held only whitespace.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	if i == len(b) {
		return nil, nil
	}
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

// isComment reports whether the line's first non-space byte is '%'.
func isComment(b []byte) bool {
	f, _ := nextField(b)
	return len(f) > 0 && f[0] == '%'
}

func isBlank(b []byte) bool {
	f, _ := nextField(b)
	return f == nil
}

// parseInt is a decimal strconv.Atoi over bytes, rejecting overflow.
func parseInt(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const cutoff = (1<<63 - 1) / 10
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' || n > cutoff {
			return 0, false
		}
		n = n*10 + int64(c-'0')
		if n < 0 {
			return 0, false
		}
	}
	if neg {
		n = -n
	}
	return int(n), true
}

// ReadMatrixMarket parses a MatrixMarket coordinate file
// (%%MatrixMarket matrix coordinate <field> <symmetry>) into a graph.
// Pattern matrices get unit weights; real/integer weights are rounded to
// integers and must be non-negative; "symmetric" files are symmetrized.
// MatrixMarket is 1-indexed. A matrix of more than maxN rows fails with
// ErrTooManyVertices.
func ReadMatrixMarket(r io.Reader, maxN int) (*CSR, error) {
	lr := newLineReader(r)
	first, err := lr.next()
	if err != nil {
		return nil, fmt.Errorf("graph: empty MatrixMarket input")
	}
	header := strings.Fields(strings.ToLower(string(first)))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("graph: unsupported MatrixMarket header %q", first)
	}
	field, symmetry := header[3], header[4]
	switch field {
	case "pattern", "real", "integer":
	default:
		return nil, fmt.Errorf("graph: unsupported MatrixMarket field %q", field)
	}
	symmetric := symmetry == "symmetric"

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for {
		line, err := lr.next()
		if err == io.EOF {
			return nil, fmt.Errorf("graph: MatrixMarket input has no size line")
		}
		if err != nil {
			return nil, err
		}
		if isBlank(line) || isComment(line) {
			continue
		}
		fr, rest := nextField(line)
		fc, rest := nextField(rest)
		fn, _ := nextField(rest)
		var ok1, ok2, ok3 bool
		rows, ok1 = parseInt(fr)
		cols, ok2 = parseInt(fc)
		nnz, ok3 = parseInt(fn)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("graph: bad MatrixMarket size line %q", line)
		}
		break
	}
	if rows != cols {
		return nil, fmt.Errorf("graph: MatrixMarket matrix %dx%d is not square", rows, cols)
	}
	if rows > maxN {
		return nil, tooManyVertices(rows, maxN)
	}
	if rows < 0 || nnz < 0 || nnz > rows*cols {
		return nil, fmt.Errorf("graph: MatrixMarket size %d %d %d is impossible", rows, cols, nnz)
	}
	var edges []Edge // nnz is only a claim: grow with the entries read
	for {
		line, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if isBlank(line) || isComment(line) {
			continue
		}
		fi, rest := nextField(line)
		fj, rest := nextField(rest)
		if fj == nil {
			return nil, fmt.Errorf("graph: bad MatrixMarket entry %q", line)
		}
		i, ok := parseInt(fi)
		if !ok {
			return nil, fmt.Errorf("graph: bad MatrixMarket row %q", fi)
		}
		j, ok := parseInt(fj)
		if !ok {
			return nil, fmt.Errorf("graph: bad MatrixMarket column %q", fj)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("graph: MatrixMarket entry (%d,%d) out of range", i, j)
		}
		w := int32(1)
		if field != "pattern" {
			if fw, _ := nextField(rest); fw != nil {
				var val float64
				if iv, ok := parseInt(fw); ok {
					val = float64(iv) // fast path: no allocation
				} else if val, err = strconv.ParseFloat(string(fw), 64); err != nil {
					return nil, fmt.Errorf("graph: bad MatrixMarket value %q", fw)
				}
				if val < 0 {
					return nil, fmt.Errorf("graph: negative weight %g unsupported", val)
				}
				w = int32(val + 0.5)
				if w == 0 {
					w = 1
				}
			}
		}
		edges = append(edges, Edge{From: int32(i - 1), To: int32(j - 1), Weight: w})
	}
	return FromEdges(rows, edges, symmetric), nil
}

// WriteMatrixMarket writes g as a MatrixMarket coordinate integer
// general matrix.
func WriteMatrixMarket(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate integer general\n%% crono graph\n%d %d %d\n",
		g.N, g.N, g.M())
	var line []byte
	for v := 0; v < g.N; v++ {
		ts, ws := g.Neighbors(v)
		for i, t := range ts {
			line = append(appendInts(line[:0], int64(v)+1, int64(t)+1, int64(ws[i])), '\n')
			bw.Write(line)
		}
	}
	return bw.Flush() // a bufio.Writer keeps its first error
}

// ReadMETIS parses a METIS graph file: a header "n m [fmt]" followed by
// one line per vertex listing its neighbors (1-indexed), optionally with
// per-edge weights when fmt's weights flag ("1" in the last position) is
// set. The METIS format stores undirected graphs with both directions
// listed, which matches the suite's storage directly. A header of more
// than maxN vertices fails with ErrTooManyVertices.
func ReadMETIS(r io.Reader, maxN int) (*CSR, error) {
	lr := newLineReader(r)
	var n, m int
	weighted := false
	for {
		line, err := lr.next()
		if err == io.EOF {
			return nil, fmt.Errorf("graph: METIS input has no header")
		}
		if err != nil {
			return nil, err
		}
		if isBlank(line) || isComment(line) {
			continue
		}
		fn, rest := nextField(line)
		fm, rest := nextField(rest)
		if fm == nil {
			return nil, fmt.Errorf("graph: bad METIS header %q", line)
		}
		var ok bool
		if n, ok = parseInt(fn); !ok {
			return nil, fmt.Errorf("graph: bad METIS vertex count %q", fn)
		}
		if m, ok = parseInt(fm); !ok {
			return nil, fmt.Errorf("graph: bad METIS edge count %q", fm)
		}
		if ff, _ := nextField(rest); ff != nil {
			weighted = ff[len(ff)-1] == '1'
			if len(ff) >= 2 && ff[len(ff)-2] == '1' {
				return nil, fmt.Errorf("graph: METIS vertex weights unsupported")
			}
		}
		break
	}
	if n > maxN {
		return nil, tooManyVertices(n, maxN)
	}
	if n < 0 || m < 0 || m > n*n {
		return nil, fmt.Errorf("graph: METIS header %d %d is impossible", n, m)
	}
	var edges []Edge // m is only a claim: grow with the neighbors read
	v := 0
	for v < n {
		line, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if isComment(line) {
			continue
		}
		rest := line
		for {
			fu, r := nextField(rest)
			if fu == nil {
				break
			}
			u, ok := parseInt(fu)
			if !ok || u < 1 || u > n {
				return nil, fmt.Errorf("graph: bad METIS neighbor %q for vertex %d", fu, v+1)
			}
			w := int32(1)
			if weighted {
				fw, r2 := nextField(r)
				if fw == nil {
					break // dangling neighbor without a weight: ignore, as before
				}
				wi, ok := parseInt(fw)
				if !ok || wi < 0 {
					return nil, fmt.Errorf("graph: bad METIS weight %q", fw)
				}
				w = int32(wi)
				r = r2
			}
			edges = append(edges, Edge{From: int32(v), To: int32(u - 1), Weight: w})
			rest = r
		}
		v++
	}
	if v != n {
		return nil, fmt.Errorf("graph: METIS file has %d vertex lines, header says %d", v, n)
	}
	return FromEdges(n, edges, false), nil
}

// WriteMETIS writes g in METIS format with edge weights. The graph must
// be symmetric (METIS stores undirected graphs).
func WriteMETIS(w io.Writer, g *CSR) error {
	if !g.IsSymmetric() {
		return fmt.Errorf("graph: METIS requires a symmetric graph")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d 001\n", g.N, g.M()/2)
	var line []byte
	for v := 0; v < g.N; v++ {
		ts, ws := g.Neighbors(v)
		line = line[:0]
		for i, t := range ts {
			if i > 0 {
				line = append(line, ' ')
			}
			line = appendInts(line, int64(t)+1, int64(ws[i]))
		}
		bw.Write(append(line, '\n'))
	}
	return bw.Flush() // a bufio.Writer keeps its first error
}
