package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The counting-sort CSR build must reproduce the sort-based builder it
// replaced bit for bit: every fingerprint, golden count and cached reply
// in the repository is keyed by the graphs it builds.

// diffCSR describes the first difference between two graphs, or returns
// "" when their vertex counts, offsets, targets and weights are identical
// and got stores its weights in the canonical form: Weights is nil
// exactly when every weight is 1. want may store an all-ones Weights
// (fromEdgesRef always builds the array), so weights are compared edge by
// edge through Weight, and row by row through Neighbors.
func diffCSR(got, want *CSR) string {
	switch {
	case got.N != want.N:
		return fmt.Sprintf("N %d, want %d", got.N, want.N)
	case len(got.Offsets) != len(want.Offsets):
		return fmt.Sprintf("%d offsets, want %d", len(got.Offsets), len(want.Offsets))
	case len(got.Targets) != len(want.Targets):
		return fmt.Sprintf("%d targets, want %d", len(got.Targets), len(want.Targets))
	case got.Weights != nil && len(got.Weights) != len(got.Targets):
		return fmt.Sprintf("%d weights for %d targets", len(got.Weights), len(got.Targets))
	}
	for i := range want.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			return fmt.Sprintf("Offsets[%d] = %d, want %d", i, got.Offsets[i], want.Offsets[i])
		}
	}
	unit := true
	for i := range want.Targets {
		if got.Targets[i] != want.Targets[i] || got.Weight(i) != want.Weight(i) {
			return fmt.Sprintf("edge %d = (%d, w%d), want (%d, w%d)",
				i, got.Targets[i], got.Weight(i), want.Targets[i], want.Weight(i))
		}
		unit = unit && want.Weight(i) == 1
	}
	if (got.Weights == nil) != unit {
		return fmt.Sprintf("Weights nil = %t, but every weight 1 = %t", got.Weights == nil, unit)
	}
	for v := 0; v < got.N; v++ {
		_, ws := got.Neighbors(v)
		for i, w := range ws {
			if e := int(got.Offsets[v]) + i; w != want.Weight(e) {
				return fmt.Sprintf("Neighbors(%d) weight %d = %d, want %d", v, i, w, want.Weight(e))
			}
		}
	}
	return ""
}

// randomEdges draws an edge list with everything FromEdges must handle:
// self loops, exact duplicates, duplicates of unequal weight, endpoints
// below 0 and at or past n, and weights across the whole int32 range.
func randomEdges(rng *rand.Rand, n, m int) []Edge {
	vertex := func() int32 { return int32(rng.Intn(n+4) - 2) }
	weight := func() int32 {
		switch rng.Intn(10) {
		case 0:
			return math.MinInt32
		case 1:
			return math.MaxInt32
		}
		return int32(rng.Intn(9) - 2)
	}
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		e := Edge{From: vertex(), To: vertex(), Weight: weight()}
		if len(edges) > 0 {
			prev := edges[rng.Intn(len(edges))]
			switch rng.Intn(6) {
			case 0: // exact duplicate
				e = prev
			case 1: // same endpoints, another weight
				e.From, e.To = prev.From, prev.To
			case 2: // the reverse of an earlier edge
				e.From, e.To = prev.To, prev.From
			case 3: // self loop
				e.To = e.From
			}
		}
		edges = append(edges, e)
	}
	return edges
}

func TestFromEdgesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		edges := randomEdges(rng, n, rng.Intn(300))
		for _, undirected := range []bool{false, true} {
			got := FromEdges(n, edges, undirected)
			if d := diffCSR(got, fromEdgesRef(n, edges, undirected)); d != "" {
				t.Fatalf("trial %d (n=%d, m=%d, undirected=%v): %s", trial, n, len(edges), undirected, d)
			}
			if cap(got.Targets) != len(got.Targets) || cap(got.Weights) != len(got.Weights) {
				t.Fatalf("trial %d: cap %d/%d for %d edges", trial, cap(got.Targets), cap(got.Weights), got.M())
			}
		}
	}
}

// referenceFingerprints were taken with the sort-based builder (then
// FromEdges, now fromEdgesRef) for every Generate kind.
var referenceFingerprints = []struct {
	kind Kind
	n    int
	seed int64
	fp   uint64
}{
	{"sparse", 1, 1, 0x7295d91aa94b524},
	{"sparse", 2, 42, 0xc6d2d95ee1683b27},
	{"sparse", 1000, 1, 0x9995593a9d17f4bf},
	{"sparse", 4096, 42, 0xe171aa31a86994c1},
	{"road-tx", 2, 1, 0x7e0eafa1d69b9187},
	{"road-tx", 1000, 42, 0xd315cc30cfeea12b},
	{"road-tx", 4096, 1, 0x23cc9c91ffbb8611},
	{"road-pa", 2, 1, 0xb62a0a74f3b8a647},
	{"road-pa", 1000, 1, 0x2021c6e5569cc4c},
	{"road-pa", 4096, 42, 0x3c2922714991e192},
	{"road-ca", 2, 42, 0xcc27b8656bc67be7},
	{"road-ca", 1000, 1, 0x2fa8ae911c4d46e1},
	{"road-ca", 4096, 42, 0x8d3d42b52fb9436b},
	{"social", 1, 42, 0x7295d91aa94b524},
	{"social", 1000, 42, 0xfd6aeeca9b237422},
	{"social", 4096, 1, 0xd1fb25adc8c33de0},
	{"social-dense", 2, 1, 0x45d2f45f9621c8b7},
	{"social-dense", 1000, 1, 0xf0912bca686299d},
	{"social-dense", 4096, 42, 0xfc59bf6d74790bb},
}

func TestGenerateMatchesReference(t *testing.T) {
	for _, c := range referenceFingerprints {
		g := Generate(c.kind, c.n, c.seed)
		if fp := g.Fingerprint(); fp != c.fp {
			t.Errorf("%s n=%d seed=%d: fingerprint %#x, want %#x", c.kind, c.n, c.seed, fp, c.fp)
		}
		// A built graph is canonical: rebuilding its own edges changes nothing.
		if d := diffCSR(g, fromEdgesRef(g.N, g.Edges(), false)); d != "" {
			t.Errorf("%s n=%d seed=%d: not canonical: %s", c.kind, c.n, c.seed, d)
		}
	}
	for name, c := range map[string]struct {
		g  *CSR
		fp uint64
	}{
		"rmat":        {RMAT(10, 8, 3), 0x7644789d08c17067},
		"small-world": {SmallWorld(1000, 6, 0.1, 3), 0xc09edf535934151f},
		"grid":        {Grid(17, 23), 0xdc6f315c76c200d0},
		"torus":       {Torus(17, 23), 0xd92edc0f9d76aa37},
		"uniform":     {UniformSparse(1000, 5, 7, 3), 0x62f4658f4805568f},
	} {
		if fp := c.g.Fingerprint(); fp != c.fp {
			t.Errorf("%s: fingerprint %#x, want %#x", name, fp, c.fp)
		}
	}
}

// generatedFingerprints pins every family Generate knows at four sizes
// and two seeds: the fingerprints of the graph and of its degree and rcm
// reorders, taken while SocialNet still kept a map per vertex and every
// CSR stored its weight array.
var generatedFingerprints = []struct {
	kind            Kind
	n               int
	seed            int64
	fp, degree, rcm uint64
}{
	{"sparse", 2, 1, 0x45d2f45f9621c8b7, 0x45d2f45f9621c8b7, 0x45d2f45f9621c8b7},
	{"sparse", 2, 42, 0xc6d2d95ee1683b27, 0xc6d2d95ee1683b27, 0xc6d2d95ee1683b27},
	{"sparse", 100, 1, 0xd6aeedd3838ae4be, 0xd796b6d8a3eff9bd, 0x1200093389cd7d2f},
	{"sparse", 100, 42, 0xa50f89c90c7ac07f, 0x47c7a632122e491d, 0x495403f7863f2de4},
	{"sparse", 4096, 1, 0xb9d0a7a2a33aaeb2, 0x34ec1b07d53250e3, 0x2b91d845b9e7b04a},
	{"sparse", 4096, 42, 0xe171aa31a86994c1, 0xaf34f0a454742f69, 0x5c4ea931d2aa7840},
	{"sparse", 32768, 1, 0x157e82effa5c8ea4, 0xebe915555f9a9703, 0x69826161354cdafc},
	{"sparse", 32768, 42, 0xe1188bc629b92a17, 0x9fe77196984f6467, 0x1a6c2523ccccd4dd},
	{"road-tx", 2, 1, 0x7e0eafa1d69b9187, 0x7e0eafa1d69b9187, 0x7e0eafa1d69b9187},
	{"road-tx", 2, 42, 0x83cc6a33d1317fd7, 0x83cc6a33d1317fd7, 0x83cc6a33d1317fd7},
	{"road-tx", 100, 1, 0x2358f2e1daeed321, 0xc6040e29320200f9, 0x192c3d39ec58dffd},
	{"road-tx", 100, 42, 0xe541c8e6ad2a9025, 0x177f34662328bc39, 0x18278918f593b5bb},
	{"road-tx", 4096, 1, 0x23cc9c91ffbb8611, 0x1eedacec09f9bcd6, 0x7572e8dfaa315240},
	{"road-tx", 4096, 42, 0x25192ab1e56be33e, 0x24c9c75e6afabd30, 0xd1aefe8492909a7b},
	{"road-tx", 32768, 1, 0x829de83349237076, 0xa52bea8ead08a2c3, 0x8cecb6c9ef3b6aa5},
	{"road-tx", 32768, 42, 0xdfd851f88084b7da, 0x99aaff9e1c5b1f68, 0x25e9b0798c1aab21},
	{"road-pa", 2, 1, 0xb62a0a74f3b8a647, 0xb62a0a74f3b8a647, 0xb62a0a74f3b8a647},
	{"road-pa", 2, 42, 0x45d2f45f9621c8b7, 0x45d2f45f9621c8b7, 0x45d2f45f9621c8b7},
	{"road-pa", 100, 1, 0xafcfb89bb07cb665, 0x895e4675c581ee8, 0xadb2e9283f1dea71},
	{"road-pa", 100, 42, 0x34b843727f05b69b, 0x59ad867c7de14e91, 0xebf7848b3efd6e3},
	{"road-pa", 4096, 1, 0x3b3646fa9879a578, 0x6417e836a49e8a34, 0x6f44221bddf950ed},
	{"road-pa", 4096, 42, 0x3c2922714991e192, 0x269f38983e4a6df7, 0xecfaa7651bdede3e},
	{"road-pa", 32768, 1, 0xbe02dc28c8759be2, 0x265c3876dbe1385f, 0xee64e178a8e21c15},
	{"road-pa", 32768, 42, 0x879703f6abc10374, 0xcf1592775f71c35c, 0xeb59fa34d80652d3},
	{"road-ca", 2, 1, 0x5bd0a2500e2f9e57, 0x5bd0a2500e2f9e57, 0x5bd0a2500e2f9e57},
	{"road-ca", 2, 42, 0xcc27b8656bc67be7, 0xcc27b8656bc67be7, 0xcc27b8656bc67be7},
	{"road-ca", 100, 1, 0x10826c4bae98e77, 0x812bd093c4769383, 0x448a723b9fb7d1cd},
	{"road-ca", 100, 42, 0xb386933e5323cde3, 0x19f51e24d348d30f, 0x1f18273bc9203d55},
	{"road-ca", 4096, 1, 0x5d08592a0c346c67, 0xf7349c461bfb0fe9, 0x7e705888e2a9fcc4},
	{"road-ca", 4096, 42, 0x8d3d42b52fb9436b, 0x428a433640f47e22, 0x726f8a5e8b30b326},
	{"road-ca", 32768, 1, 0xa5e15450bbc7670f, 0x11265f54999945f6, 0x3977b7685c0617ee},
	{"road-ca", 32768, 42, 0x24850113aacb02ce, 0x784f9bd17629d06a, 0xcedb8d676af82d85},
	{"social", 2, 1, 0x45d2f45f9621c8b7, 0x45d2f45f9621c8b7, 0x45d2f45f9621c8b7},
	{"social", 2, 42, 0x45d2f45f9621c8b7, 0x45d2f45f9621c8b7, 0x45d2f45f9621c8b7},
	{"social", 100, 1, 0x52db2d6ae5da56da, 0xd8b18f81618d67c2, 0xd4cc22decf7e7e13},
	{"social", 100, 42, 0x29e1171a69f6874f, 0xd490e228d95c2eb2, 0x90f42cbee795a406},
	{"social", 4096, 1, 0xd1fb25adc8c33de0, 0x79595c3a50e0cbc7, 0x9ff45e97abc1cca3},
	{"social", 4096, 42, 0xb089d4c66bec5729, 0x3fbf30d980801053, 0x3935f8858dcac990},
	{"social", 32768, 1, 0xe8d3b59b4b97ddeb, 0x5183be1e101f213a, 0x821dc074b3cd2597},
	{"social", 32768, 42, 0x923e6814ce6ca398, 0xa049418b650c7fac, 0x18c562042834d6de},
	{"social-dense", 2, 1, 0x45d2f45f9621c8b7, 0x45d2f45f9621c8b7, 0x45d2f45f9621c8b7},
	{"social-dense", 2, 42, 0x45d2f45f9621c8b7, 0x45d2f45f9621c8b7, 0x45d2f45f9621c8b7},
	{"social-dense", 100, 1, 0x1443621ecfbcf1a, 0x41737f84fc565b31, 0x882a2f0bb101a775},
	{"social-dense", 100, 42, 0xdd94f2f32998145c, 0x96b69ddadb89cf78, 0x5aff71d4cda503c8},
	{"social-dense", 4096, 1, 0x2d3fe8b8784185d3, 0x93eff467e579352c, 0x402052b48e30cda4},
	{"social-dense", 4096, 42, 0xfc59bf6d74790bb, 0x339af8536c94226e, 0xb10bb5285c67d7e5},
	{"social-dense", 32768, 1, 0xfad788b7c5180ce8, 0x2e54d0f5453f533e, 0xb3ddd73ee07b325d},
	{"social-dense", 32768, 42, 0x18cfd4ea931d6eaa, 0xe4aadbad5a07be4c, 0x13ca3fb5cf517be6},
}

// TestGeneratedFingerprintsPinned: a change to a generator's internals,
// or to how a CSR stores its weights, moves no content address.
func TestGeneratedFingerprintsPinned(t *testing.T) {
	for _, c := range generatedFingerprints {
		g := Generate(c.kind, c.n, c.seed)
		got := []uint64{g.Fingerprint(), 0, 0}
		for i, o := range []Order{OrderDegree, OrderRCM} {
			r, err := Reorder(g, o)
			if err != nil {
				t.Fatal(err)
			}
			got[i+1] = r.G.Fingerprint()
		}
		if want := []uint64{c.fp, c.degree, c.rcm}; !slices.Equal(got, want) {
			t.Errorf("%s n=%d seed=%d: fingerprints %#x, want %#x", c.kind, c.n, c.seed, got, want)
		}
		if g.InCSR() != g {
			t.Errorf("%s n=%d seed=%d: undirected graph is not its own transpose", c.kind, c.n, c.seed)
		}
	}
}

func permDigest(perm []int32) uint64 {
	h := fnvOffset64
	for _, p := range perm {
		h = fnvMix64(h, uint64(uint32(p)))
	}
	return h
}

// applyPermutationRef is the reference relabeling: rebuild the mapped
// edge list with the sort-based builder.
func applyPermutationRef(g *CSR, perm []int32) *CSR {
	edges := g.Edges()
	for i := range edges {
		edges[i].From, edges[i].To = perm[edges[i].From], perm[edges[i].To]
	}
	return fromEdgesRef(g.N, edges, false)
}

// degreePermRef is ReorderByDegree's former order: a stable sort of the
// vertex ids by descending degree.
func degreePermRef(g *CSR) []int32 {
	order := make([]int32, g.N)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.Degree(int(order[a])) > g.Degree(int(order[b]))
	})
	perm := make([]int32, g.N)
	for newID, oldID := range order {
		perm[oldID] = int32(newID)
	}
	return perm
}

func TestReorderMatchesReference(t *testing.T) {
	graphs := map[string]*CSR{
		"road-ca": Generate(KindRoadCA, 4096, 42),
		"social":  Generate(KindSocial, 4096, 42),
		"sparse":  Generate(KindSparse, 1000, 1),
		"rmat":    RMAT(10, 8, 3),
	}
	// Fingerprints of the relabeled graph and digests of the permutation,
	// taken from the sort-based reorders.
	want := []struct {
		graph, order string
		fp, perm     uint64
	}{
		{"road-ca", "degree", 0x428a433640f47e22, 0x97d20e00cb08f805},
		{"road-ca", "rcm", 0x726f8a5e8b30b326, 0xe9acc65597464075},
		{"road-ca", "bfs", 0xf7248936d9544b41, 0x8ab8ef7a5570e1},
		{"social", "degree", 0x3fbf30d980801053, 0xc7a918c438d7298d},
		{"social", "rcm", 0x3935f8858dcac990, 0xf4de61e3f4fe73bd},
		{"social", "bfs", 0x26c7ed1b6d2b77d, 0x7f6e2905eb3d9381},
		{"sparse", "degree", 0xf8c2c12ef0fccdba, 0x34ea2bf31cd365e5},
		{"sparse", "rcm", 0x4442883ddd4e77b0, 0xf8dcb049c3eda16d},
		{"sparse", "bfs", 0xb61deb2733475d20, 0x5acf2b12d0ab90d9},
		{"rmat", "degree", 0x1b4b64a93e94751e, 0xea912f293fa588c9},
		{"rmat", "rcm", 0x8319ded42932e0fc, 0x956fc749ee583e45},
		{"rmat", "bfs", 0x956b63835823be1a, 0x6527384fd80d5bad},
	}
	for _, c := range want {
		g := graphs[c.graph]
		var pg *CSR
		var perm []int32
		if c.order == "bfs" {
			pg, perm = ReorderBFS(g, 7)
		} else {
			r, err := Reorder(g, Order(c.order))
			if err != nil {
				t.Fatal(err)
			}
			pg, perm = r.G, r.Perm
		}
		if fp, pd := pg.Fingerprint(), permDigest(perm); fp != c.fp || pd != c.perm {
			t.Errorf("%s/%s: fingerprint %#x perm %#x, want %#x %#x", c.graph, c.order, fp, pd, c.fp, c.perm)
		}
		if d := diffCSR(pg, applyPermutationRef(g, perm)); d != "" {
			t.Errorf("%s/%s: relabeled graph: %s", c.graph, c.order, d)
		}
		if cap(pg.Targets) != pg.M() {
			t.Errorf("%s/%s: cap(Targets) %d for %d edges", c.graph, c.order, cap(pg.Targets), pg.M())
		}
		if c.order == "degree" {
			if pd := permDigest(degreePermRef(g)); pd != c.perm {
				t.Errorf("%s: counting-sort degree order differs from the stable sort", c.graph)
			}
		}
	}

	// The generator graphs are all symmetric, so their relabels read the
	// graph itself as its in-adjacency. A directed graph's relabel reads
	// its transpose: random directed graphs, weighted and unit, with
	// every fourth vertex isolated, under random permutations.
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		vertex := func() int32 {
			for {
				if v := int32(rng.Intn(n)); v%4 != 3 {
					return v
				}
			}
		}
		edges := make([]Edge, rng.Intn(4*n))
		for i := range edges {
			edges[i] = Edge{From: vertex(), To: vertex(), Weight: 1}
			if trial%2 == 1 {
				edges[i].Weight = int32(rng.Intn(5))
			}
		}
		g := FromEdges(n, edges, false)
		perm := make([]int32, n)
		for i, p := range rng.Perm(n) {
			perm[i] = int32(p)
		}
		r := applyPermutation(g, perm)
		if d := diffCSR(r.G, applyPermutationRef(g, perm)); d != "" {
			t.Fatalf("directed trial %d (n=%d, m=%d): %s", trial, n, g.M(), d)
		}
		for v, w := range perm {
			if r.Inv[w] != int32(v) {
				t.Fatalf("directed trial %d: Inv[%d] = %d, want %d", trial, w, r.Inv[w], v)
			}
		}
	}
}

// readEdgeListRef is the fmt.Sscanf reader ReadEdgeList replaced, built
// with the reference builder. The byte-level reader must agree with it on
// every input it accepted, except the ones ReadEdgeList now rejects (see
// newlyRejected).
func readEdgeListRef(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := -1
	var edges []Edge
	maxV := int32(-1)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			var nodes, e int
			if _, err := fmt.Sscanf(text, "# nodes %d edges %d", &nodes, &e); err == nil {
				n = nodes
			}
			continue
		}
		var from, to, weight int32
		weight = 1
		k, err := fmt.Sscanf(text, "%d %d %d", &from, &to, &weight)
		if err != nil && k < 2 {
			return nil, fmt.Errorf("graph: line %d: %q: %v", line, text, err)
		}
		if from < 0 || to < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex", line)
		}
		maxV = max(maxV, from, to)
		edges = append(edges, Edge{From: from, To: to, Weight: weight})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		n = int(maxV) + 1
	}
	if int(maxV) >= n {
		return nil, fmt.Errorf("graph: vertex %d exceeds declared count %d", maxV, n)
	}
	return fromEdgesRef(n, edges, false), nil
}

// newlyRejected reports whether in has a data line whose weight column
// the Sscanf reader let through but ReadEdgeList rejects: a third field
// that is not a decimal integer in [0, 2^31) (negative, overflowing or
// not a number at all, which the old reader read as weight 1).
func newlyRejected(in string) bool {
	for _, line := range strings.Split(in, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if w, err := strconv.ParseInt(f[2], 10, 64); err != nil || w < 0 || w > math.MaxInt32 {
			return true
		}
	}
	return false
}

// randomEdgeListText writes a SNAP text with the variations real files
// have: comments, headers (some declaring too few vertices, some
// incomplete), blank lines, CRLF endings, tabs and runs of spaces,
// missing and extra columns, explicit '+' signs and leading zeros; and,
// now and then, a weight column ReadEdgeList rejects.
func randomEdgeListText(rng *rand.Rand) string {
	var sb strings.Builder
	sep := func() string { return []string{" ", "\t", "  ", " \t "}[rng.Intn(4)] }
	n := 1 + rng.Intn(30)
	id := func() string {
		v := rng.Intn(n)
		switch rng.Intn(12) {
		case 0:
			return "+" + strconv.Itoa(v)
		case 1:
			return "0" + strconv.Itoa(v)
		}
		return strconv.Itoa(v)
	}
	for lines := rng.Intn(40); lines > 0; lines-- {
		switch rng.Intn(14) {
		case 0:
			sb.WriteString(sep())
		case 1:
			sb.WriteString("# a comment")
		case 2:
			fmt.Fprintf(&sb, "# nodes %d edges %d", n-rng.Intn(2), rng.Intn(100))
		case 3:
			fmt.Fprintf(&sb, "# nodes %d", n)
		case 4:
			sb.WriteString(sep() + id() + sep() + id() + sep())
		case 5:
			sb.WriteString(id() + sep() + id() + sep() + strconv.Itoa(rng.Intn(100)) + sep() + "17 extra")
		case 6:
			bad := []string{"-3", "99999999999", "x", "2147483648", "1.5"}[rng.Intn(5)]
			sb.WriteString(id() + sep() + id() + sep() + bad)
		default:
			sb.WriteString(id() + sep() + id() + sep() + strconv.Itoa(rng.Intn(100)))
		}
		if rng.Intn(5) == 0 {
			sb.WriteString("\r")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestReadEdgeListMatchesSscanfReader(t *testing.T) {
	inputs := []string{
		"# nodes 3 edges 2\n0 1 5\n1 2 3\n", "0 1\n", "", "# comment only\n", "1 2 3 4 5\n",
		"# comment\n0 1\n1 2 7\n\n", "0 -1 3\n", "# nodes 2 edges 1\n0 5 1\n", "garbage\n",
		"0 1 -3\n", "0 1 99999999999\n", "0 1 x\n", "2147483648 0\n", "0 2147483648 1\n",
		"# nodes 5 edges 0\n", "  0\t1\t2  \r\n3 1\r\n", "#nodes 4 edges 1\n0 1\n",
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 2000; i++ {
		inputs = append(inputs, randomEdgeListText(rng))
	}
	accepted := 0
	for _, in := range inputs {
		want, wantErr := readEdgeListRef(strings.NewReader(in))
		got, err := ReadEdgeList(strings.NewReader(in), MaxN)
		switch {
		case wantErr != nil:
			if err == nil {
				t.Errorf("%q: accepted; the Sscanf reader said %v", in, wantErr)
			}
		case newlyRejected(in):
			if err == nil {
				t.Errorf("%q: bad weight accepted", in)
			}
		case err != nil:
			t.Errorf("%q: %v; the Sscanf reader accepted it", in, err)
		default:
			accepted++
			if d := diffCSR(got, want); d != "" {
				t.Errorf("%q: %s", in, d)
			}
		}
	}
	if accepted < len(inputs)/4 {
		t.Fatalf("only %d of %d inputs exercised the accepting path", accepted, len(inputs))
	}
}

func TestReadersRefuseCountsOverTheBound(t *testing.T) {
	const maxN = 1 << 10
	for _, c := range []struct {
		name string
		read func(io.Reader, int) (*CSR, error)
		in   string
	}{
		{"snap header", ReadEdgeList, "# nodes 200000000 edges 1\n0 1\n"},
		{"snap id", ReadEdgeList, "0 1\n1 199999999\n"},
		{"mtx rows", ReadMatrixMarket, "%%MatrixMarket matrix coordinate pattern general\n200000000 200000000 1\n1 2\n"},
		{"metis header", ReadMETIS, "200000000 1\n2\n1\n"},
	} {
		_, err := c.read(strings.NewReader(c.in), maxN)
		if !errors.Is(err, ErrTooManyVertices) {
			t.Errorf("%s: %v, want ErrTooManyVertices", c.name, err)
		}
	}
	// Counts no input of that header could hold are malformed, and
	// nothing is sized from them.
	for _, c := range []struct {
		name string
		read func(io.Reader, int) (*CSR, error)
		in   string
	}{
		{"mtx nnz", ReadMatrixMarket, "%%MatrixMarket matrix coordinate pattern general\n2 2 100000000000\n1 2\n"},
		{"mtx negative", ReadMatrixMarket, "%%MatrixMarket matrix coordinate pattern general\n-1 -1 0\n"},
		{"metis m", ReadMETIS, "2 100000000000\n2\n1\n"},
		{"metis negative", ReadMETIS, "-1 0\n"},
	} {
		if _, err := c.read(strings.NewReader(c.in), maxN); err == nil || errors.Is(err, ErrTooManyVertices) {
			t.Errorf("%s: %v, want a parse error", c.name, err)
		}
	}
}

// buildAllocs is the allocation count of a build, whatever its size and
// weight form: Offsets, Targets, Weights or a unit graph's row of ones,
// the CSR, and one more: FromEdges's packed edge keys, or a relabel's
// inverse permutation (of a symmetric graph, which is its own transpose).
const buildAllocs = 5

func TestBuildAllocationsIndependentOfSize(t *testing.T) {
	for _, n := range []int{1 << 8, 1 << 14} {
		for _, g := range []*CSR{RoadNet(n, 1), SocialNet(n, 14, 1)} {
			edges := g.Edges()
			perm := make([]int32, n)
			for v := range perm {
				perm[v] = int32(n - 1 - v)
			}
			if a := testing.AllocsPerRun(3, func() { FromEdges(n, edges, true) }); a != buildAllocs {
				t.Errorf("FromEdges, n=%d m=%d unit=%t: %v allocations, want %d", n, len(edges), g.Weights == nil, a, buildAllocs)
			}
			if a := testing.AllocsPerRun(3, func() { applyPermutation(g, perm) }); a != buildAllocs {
				t.Errorf("applyPermutation, n=%d m=%d unit=%t: %v allocations, want %d", n, g.M(), g.Weights == nil, a, buildAllocs)
			}
		}
	}
}

func TestReadEdgeListAllocsPerLine(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, Generate(KindRoadCA, 4096, 42)); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	lines := bytes.Count(text, []byte("\n"))
	a := testing.AllocsPerRun(3, func() {
		if _, err := ReadEdgeList(bytes.NewReader(text), MaxN); err != nil {
			t.Fatal(err)
		}
	})
	// The line buffer is reused and the edge list grows geometrically, so
	// allocations grow with the log of the line count.
	if a > float64(lines)/100 {
		t.Fatalf("%v allocations for %d lines, want at most %d", a, lines, lines/100)
	}
}

// roadEdges is the input of the build benchmarks: the undirected edge
// list of the road-ca graph the kernel-road workload builds.
func roadEdges(b *testing.B) (int, []Edge) {
	b.Helper()
	g := Generate(KindRoadCA, 131072, 1)
	var edges []Edge
	for _, e := range g.Edges() {
		if e.From < e.To {
			edges = append(edges, e)
		}
	}
	return g.N, edges
}

func BenchmarkFromEdges(b *testing.B) {
	n, edges := roadEdges(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromEdges(n, edges, true)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*len(edges)), "ns/edge")
}

func BenchmarkReadEdgeList(b *testing.B) {
	g := Generate(KindRoadCA, 131072, 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		b.Fatal(err)
	}
	in := buf.Bytes()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(bytes.NewReader(in), MaxN); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.M()), "ns/edge")
}

// BenchmarkReorder relabels the graphs the kernel-* workloads reorder:
// social at n=32768 and road-ca at n=131072, under degree and RCM.
func BenchmarkReorder(b *testing.B) {
	for _, c := range []struct {
		kind Kind
		n    int
	}{{KindSocial, 32768}, {KindRoadCA, 131072}} {
		g := Generate(c.kind, c.n, 1)
		for _, o := range Orders() {
			b.Run(string(c.kind)+"/"+string(o), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Reorder(g, o); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.M()), "ns/edge")
			})
		}
	}
}
