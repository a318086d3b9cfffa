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
		if back.M() != g.M() {
			t.Fatalf("round trip changed edge count: %d vs %d", back.M(), g.M())
		}
		for i := range g.Targets {
			if back.Targets[i] != g.Targets[i] || back.Weights[i] != g.Weights[i] {
				t.Fatalf("round trip changed edge %d", i)
			}
		}
	})
}
