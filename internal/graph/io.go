package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// MaxN is the largest vertex count a CSR can address: vertex ids are
// int32.
const MaxN = math.MaxInt32

// ErrTooManyVertices is wrapped by the readers' error when a declared
// vertex count, or one implied by a vertex id, exceeds their bound. It is
// returned before anything is allocated for the vertices.
var ErrTooManyVertices = errors.New("graph: too many vertices")

func tooManyVertices(n, maxN int) error {
	return fmt.Errorf("%w: %d, limit %d", ErrTooManyVertices, n, maxN)
}

// WriteEdgeList writes g in SNAP-style edge-list text format:
// a header comment with the vertex count, then one "from to weight" line
// per stored directed edge.
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# crono edge list\n# nodes %d edges %d\n", g.N, g.M())
	var line []byte
	for v := 0; v < g.N; v++ {
		ts, ws := g.Neighbors(v)
		for i, t := range ts {
			line = append(appendInts(line[:0], int64(v), int64(t), int64(ws[i])), '\n')
			bw.Write(line)
		}
	}
	return bw.Flush() // a bufio.Writer keeps its first error
}

// appendInts appends the decimal forms of xs to b, separated by spaces.
func appendInts(b []byte, xs ...int64) []byte {
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return b
}

// ReadEdgeList parses the format written by WriteEdgeList into a graph of
// at most maxN vertices. Each data line is "from to [weight] ...": the
// first two fields are vertex ids in [0, 2^31), the optional third is a
// weight in [0, 2^31) (weight 1 when absent), and any further fields are
// ignored. Lines starting with '#' are comments, except that a
// "# nodes N edges M" comment fixes the vertex count; otherwise the count
// is one past the largest endpoint. A declared or implied count above
// maxN fails with ErrTooManyVertices.
func ReadEdgeList(r io.Reader, maxN int) (*CSR, error) {
	lr := newLineReader(r)
	n := -1
	var edges []Edge
	maxV := int32(-1)
	for line := 1; ; line++ {
		text, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		f0, rest := nextField(text)
		if f0 == nil {
			continue
		}
		if f0[0] == '#' {
			if nodes, ok := nodesHeader(f0, rest); ok {
				if nodes > maxN {
					return nil, tooManyVertices(nodes, maxN)
				}
				n = nodes
			}
			continue
		}
		f1, rest := nextField(rest)
		if f1 == nil {
			return nil, fmt.Errorf("graph: line %d: %q: want \"from to [weight]\"", line, text)
		}
		var e Edge
		if e.From, err = parseVertex(f0, maxN); err == nil {
			e.To, err = parseVertex(f1, maxN)
		}
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		e.Weight = 1
		if fw, _ := nextField(rest); fw != nil {
			w, ok := parseInt(fw)
			if !ok || w < 0 || w > math.MaxInt32 {
				return nil, fmt.Errorf("graph: line %d: bad weight %q (want an integer in [0, 2^31))", line, fw)
			}
			e.Weight = int32(w)
		}
		maxV = max(maxV, e.From, e.To)
		edges = append(edges, e)
	}
	if n < 0 {
		n = int(maxV) + 1
	}
	if int(maxV) >= n {
		return nil, fmt.Errorf("graph: vertex %d exceeds declared count %d", maxV, n)
	}
	return FromEdges(n, edges, false), nil
}

// nodesHeader recognizes the "# nodes N edges M" comment, given its first
// field and the rest of the line, and returns N.
func nodesHeader(f0, rest []byte) (int, bool) {
	if !bytes.Equal(f0, []byte("#")) {
		return 0, false
	}
	kw, rest := nextField(rest)
	fn, rest := nextField(rest)
	kw2, rest := nextField(rest)
	fm, _ := nextField(rest)
	if !bytes.Equal(kw, []byte("nodes")) || !bytes.Equal(kw2, []byte("edges")) {
		return 0, false
	}
	nodes, ok := parseInt(fn)
	if _, okM := parseInt(fm); !ok || !okM {
		return 0, false
	}
	return nodes, true
}

// parseVertex parses a vertex id: a decimal integer in [0, 2^31) whose
// implied vertex count (id+1) is at most maxN.
func parseVertex(b []byte, maxN int) (int32, error) {
	v, ok := parseInt(b)
	switch {
	case !ok || v > math.MaxInt32:
		return 0, fmt.Errorf("bad vertex id %q (want an integer in [0, 2^31))", b)
	case v < 0:
		return 0, fmt.Errorf("negative vertex %d", v)
	case v >= maxN:
		return 0, tooManyVertices(v+1, maxN)
	}
	return int32(v), nil
}
