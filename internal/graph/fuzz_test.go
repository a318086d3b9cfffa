package graph

import (
	"bytes"
	"strings"
	"testing"
)

// The parser fuzz targets assert one property: any byte input either
// fails cleanly or produces a graph whose structural invariants hold.
// They read with a vertex bound of fuzzMaxN, so that an input declaring a
// huge graph is refused instead of allocated.

const fuzzMaxN = 1 << 16

func FuzzReadEdgeList(f *testing.F) {
	f.Add("# nodes 3 edges 2\n0 1 5\n1 2 3\n")
	f.Add("0 1\n")
	f.Add("")
	f.Add("# comment only\n")
	f.Add("1 2 3 4 5\n")
	// Weights and ids the Sscanf reader let through or wrapped.
	f.Add("0 1 -3\n")
	f.Add("0 1 99999999999\n")
	f.Add("0 1 x\n")
	f.Add("2147483648 0\n")
	f.Add("# nodes 200000000 edges 1\n0 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in), fuzzMaxN)
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("parsed invalid graph from %q: %v", in, verr)
		}
	})
}

func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 2\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 4.5\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n1 1 0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 100000000000\n1 2\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n200000000 200000000 1\n1 2\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadMatrixMarket(strings.NewReader(in), fuzzMaxN)
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("parsed invalid graph from %q: %v", in, verr)
		}
	})
}

func FuzzReadMETIS(f *testing.F) {
	f.Add("3 2\n2 3\n1\n1\n")
	f.Add("2 1 001\n2 7\n1 7\n")
	f.Add("% c\n1 0\n\n")
	f.Add("2 100000000000\n2\n1\n")
	f.Add("200000000 1\n2\n1\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadMETIS(strings.NewReader(in), fuzzMaxN)
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("parsed invalid graph from %q: %v", in, verr)
		}
	})
}

// FuzzEdgeListRoundTrip: writing any parsed graph and re-reading it must
// be the identity.
func FuzzEdgeListRoundTrip(f *testing.F) {
	f.Add("# nodes 4 edges 3\n0 1 2\n1 2 9\n3 0 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in), fuzzMaxN)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf, fuzzMaxN)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if d := diffCSR(back, g); d != "" {
			t.Fatalf("round trip changed the graph: %s", d)
		}
	})
}

// FuzzApplyDelta: applying any canonical delta to any base, unit or
// weighted, gives the graph FromEdges builds from the edited edge list,
// equal in content and in weight form. base and delta are read three
// bytes to an edge (from, to, weight); a delta edge is a delete when its
// weight byte is odd. Weights are mostly 1, so unit bases, unit inserts
// and weighted graphs whose last other weight goes all come up.
func FuzzApplyDelta(f *testing.F) {
	f.Add(uint8(8), []byte{0, 1, 0, 1, 2, 0, 2, 3, 0}, []byte{3, 4, 0, 1, 2, 1})
	f.Add(uint8(8), []byte{0, 1, 0, 1, 2, 14}, []byte{1, 2, 6, 0, 1, 1})
	f.Add(uint8(5), []byte{0, 1, 14, 1, 0, 30}, []byte{0, 1, 0, 1, 0, 0, 2, 3, 6})
	f.Add(uint8(1), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, nb uint8, base, delta []byte) {
		n := 1 + int(nb%32)
		edge := func(b []byte) Edge {
			w := int32(1)
			if b[2]&6 == 6 {
				w = int32(b[2]>>3) % 4
			}
			return Edge{From: int32(b[0]) % int32(n), To: int32(b[1]) % int32(n), Weight: w}
		}
		var edges []Edge
		for i := 0; i+2 < len(base); i += 3 {
			edges = append(edges, edge(base[i:]))
		}
		g := FromEdges(n, edges, false)
		// At most one mutation per edge and no self loops, so the delta
		// always passes Canonicalize.
		d := &EdgeDelta{}
		seen := make(map[[2]int32]bool)
		for i := 0; i+2 < len(delta); i += 3 {
			e := edge(delta[i:])
			if k := [2]int32{e.From, e.To}; e.From != e.To && !seen[k] {
				seen[k] = true
				if delta[i+2]&1 == 0 {
					d.Inserts = append(d.Inserts, e)
				} else {
					d.Deletes = append(d.Deletes, e)
				}
			}
		}
		if err := d.Canonicalize(n); err != nil {
			t.Fatal(err)
		}
		var edited []Edge
		for e, w := range modelApply(g, d) {
			edited = append(edited, Edge{From: e[0], To: e[1], Weight: w})
		}
		got := ApplyDelta(g, d)
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if diff := diffCSR(got, FromEdges(n, edited, false)); diff != "" {
			t.Fatalf("ApplyDelta differs from FromEdges over the edited edges: %s", diff)
		}
	})
}
