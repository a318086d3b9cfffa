package graph

// FNV-1a 64-bit parameters (the stdlib hash/fnv is not used so the byte
// feeding order over the CSR arrays stays explicit and stable).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Fingerprint returns a deterministic 64-bit FNV-1a digest of the graph:
// vertex count, edge count, and the full Offsets/Targets arrays and every
// edge's weight in order, so a unit graph's missing Weights array hashes
// as M ones. Two CSR graphs have equal fingerprints iff they are structurally
// identical; because FromEdges canonicalizes edge lists (sorting neighbors,
// dropping self loops, merging duplicates), the same logical graph built
// from any permutation of its edge list fingerprints identically. The
// serving layer uses the fingerprint as a content-addressed graph ID and
// result-cache key.
func (g *CSR) Fingerprint() uint64 {
	h := fnvOffset64
	mix64 := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(v >> s))
			h *= fnvPrime64
		}
	}
	mix32 := func(v uint32) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(v >> s))
			h *= fnvPrime64
		}
	}
	mix64(uint64(g.N))
	mix64(uint64(g.M()))
	for _, o := range g.Offsets {
		mix64(uint64(o))
	}
	for _, t := range g.Targets {
		mix32(uint32(t))
	}
	for e := range g.Targets {
		mix32(uint32(g.Weight(e)))
	}
	return h
}
