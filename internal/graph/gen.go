package graph

import (
	"math"
	"math/rand"
	"slices"
)

// Kind names a Table III input-graph family.
type Kind string

// The input families of Table III. The real SNAP road and social networks
// are replaced by synthetic generators with matched degree statistics; see
// DESIGN.md substitution #1.
const (
	// KindSparse is the GTgraph-style uniform random sparse graph
	// (paper default: 1,048,576 vertices, 16 edges per vertex).
	KindSparse Kind = "sparse"
	// KindRoadTX models roadNet-TX (1.38M vertices, avg degree 2.8).
	KindRoadTX Kind = "road-tx"
	// KindRoadPA models roadNet-PA.
	KindRoadPA Kind = "road-pa"
	// KindRoadCA models roadNet-CA.
	KindRoadCA Kind = "road-ca"
	// KindSocial models the Facebook social graph (avg degree ~28,
	// power-law).
	KindSocial Kind = "social"
	// KindSocialDense models a denser social network (Orkut-like, avg
	// degree ~56, power-law). Not part of Table III; it exists because
	// cache-aware reorderings are locality plays, and their payoff scales
	// with how much neighbor traffic a cache line can serve — the dense
	// family is where hub packing and RCM show their headline wins.
	KindSocialDense Kind = "social-dense"
)

// Kinds lists all Table III graph families in paper order. KindSocialDense
// is deliberately absent: the paper-table reproductions iterate this slice
// and must keep the paper's exact input matrix. Use KnownKind to validate
// user-supplied kinds.
var Kinds = []Kind{KindSparse, KindRoadTX, KindRoadPA, KindRoadCA, KindSocial}

// KnownKind reports whether Generate understands kind (the Table III
// families plus the dense social extension).
func KnownKind(kind Kind) bool {
	for _, k := range Kinds {
		if kind == k {
			return true
		}
	}
	return kind == KindSocialDense
}

// Generate builds a graph of the given family with approximately n
// vertices, deterministically from seed. Road networks differ between the
// TX/PA/CA variants only by seed salt, as the paper's road networks differ
// only in size and geography, not structure.
func Generate(kind Kind, n int, seed int64) *CSR {
	switch kind {
	case KindSparse:
		return UniformSparse(n, 8, 100, seed)
	case KindRoadTX:
		return RoadNet(n, seed+1)
	case KindRoadPA:
		return RoadNet(n, seed+2)
	case KindRoadCA:
		return RoadNet(n, seed+3)
	case KindSocial:
		return SocialNet(n, 14, seed)
	case KindSocialDense:
		return SocialNet(n, 28, seed)
	}
	return UniformSparse(n, 8, 100, seed)
}

// UniformSparse generates the GTgraph-style synthetic sparse graph: every
// vertex draws `degree` uniform random partners; edges are undirected with
// uniform weights in [1, maxWeight]. The result averages close to
// 2*degree directed edges per vertex before deduplication, matching the
// paper's "16 edges per vertex" sparse input with degree=8..16.
func UniformSparse(n, degree int, maxWeight int32, seed int64) *CSR {
	if n < 2 {
		return FromEdges(n, nil, true)
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, n*degree)
	for v := 0; v < n; v++ {
		for k := 0; k < degree; k++ {
			u := rng.Intn(n - 1)
			if u >= v {
				u++
			}
			edges = append(edges, Edge{
				From:   int32(v),
				To:     int32(u),
				Weight: 1 + rng.Int31n(maxWeight),
			})
		}
	}
	return FromEdges(n, edges, true)
}

// RoadNet generates a road-network-like graph: a near-square 2-D lattice
// with 4-neighborhood connectivity, ~30% of edges removed (dead ends and
// sparse rural areas) and a small number of long-range highways. The
// resulting average degree is ~2.8 directed edges per vertex with a very
// large diameter, matching SNAP's roadNet-* statistics. Weights model
// segment lengths.
func RoadNet(n int, seed int64) *CSR {
	if n < 2 {
		return FromEdges(n, nil, true)
	}
	rng := rand.New(rand.NewSource(seed))
	w := int(math.Sqrt(float64(n)))
	if w < 2 {
		w = 2
	}
	h := (n + w - 1) / w
	id := func(x, y int) int { return y*w + x }
	var edges []Edge
	add := func(a, b int) {
		if a >= n || b >= n {
			return
		}
		// Drop ~30% of lattice edges to create irregular connectivity.
		if rng.Float64() < 0.30 {
			return
		}
		edges = append(edges, Edge{From: int32(a), To: int32(b), Weight: 1 + rng.Int31n(20)})
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if id(x, y) >= n {
				continue
			}
			if x+1 < w {
				add(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				add(id(x, y), id(x, y+1))
			}
		}
	}
	// Highways: a few long-range shortcuts (~0.5% of vertices).
	for k := 0; k < n/200+1; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			edges = append(edges, Edge{From: int32(a), To: int32(b), Weight: 30 + rng.Int31n(50)})
		}
	}
	return FromEdges(n, edges, true)
}

// SocialNet generates a social-network-like graph by preferential
// attachment (Barabási–Albert): each new vertex attaches to m existing
// vertices chosen proportionally to degree, yielding a power-law degree
// distribution and small diameter. With m=14 the directed average degree
// is ~28, matching the paper's Facebook graph. All weights are 1.
func SocialNet(n, m int, seed int64) *CSR {
	if n < 2 {
		return FromEdges(n, nil, true)
	}
	if m < 1 {
		m = 1
	}
	if m >= n {
		m = n - 1
	}
	rng := rand.New(rand.NewSource(seed))
	// repeated holds every edge endpoint once per incidence, so sampling
	// uniformly from it is degree-proportional sampling.
	repeated := make([]int32, 0, 2*n*m)
	// The seed clique's m(m+1)/2 edges and m per later vertex.
	edges := make([]Edge, 0, m*(m+1)/2+(n-m-1)*m)
	// Seed clique over the first m+1 vertices.
	for i := 0; i <= m && i < n; i++ {
		for j := i + 1; j <= m && j < n; j++ {
			edges = append(edges, Edge{From: int32(i), To: int32(j), Weight: 1})
			repeated = append(repeated, int32(i), int32(j))
		}
	}
	chosen := make([]int32, 0, m) // v's partners so far; m is small
	for v := m + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			var u int32
			if rng.Float64() < 0.10 || len(repeated) == 0 {
				u = int32(rng.Intn(v)) // uniform escape hatch keeps the graph connected
			} else {
				u = repeated[rng.Intn(len(repeated))]
			}
			if int(u) == v || slices.Contains(chosen, u) {
				continue
			}
			chosen = append(chosen, u)
			edges = append(edges, Edge{From: int32(v), To: u, Weight: 1})
			repeated = append(repeated, int32(v), u)
		}
	}
	return FromEdges(n, edges, true)
}

// Cities generates a TSP instance: n cities on a plane with symmetric
// integer distances derived from Euclidean coordinates, so the triangle
// inequality holds. The paper uses "Cities for TSP: 32 Cities".
func Cities(n int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		ys[i] = rng.Float64() * 1000
	}
	d := NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			w := int32(math.Round(math.Sqrt(dx*dx+dy*dy))) + 1
			d.Set(i, j, w)
			d.Set(j, i, w)
		}
	}
	return d
}
