package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// EdgeDelta is a batch of directed-edge mutations against a CSR graph:
// the unit of change of the dynamic-graph subsystem. Semantics are
// streaming-friendly rather than strict:
//
//   - Deletes drop the named directed edge where present; deleting an
//     absent edge is a no-op (a road that was already closed).
//   - Inserts add the named directed edge; inserting over an existing
//     edge overwrites its weight (a travel-time update).
//   - Out-of-range endpoints, self loops, negative weights, duplicate
//     inserts of one edge, and inserting and deleting the same edge in
//     one batch are errors: each would make the resulting graph (or the
//     batch's intent) ambiguous.
//
// Mutations are edge-only: the vertex set is fixed at graph-creation
// time. Undirected graphs store both edge directions explicitly, so a
// caller mutating one must include both (from,to) and (to,from) in the
// batch, exactly as FromEdges does at build time.
//
// Delete weights are ignored; only (From, To) identifies the edge.
type EdgeDelta struct {
	Inserts []Edge
	Deletes []Edge
}

// Size returns the number of requested mutations.
func (d *EdgeDelta) Size() int { return len(d.Inserts) + len(d.Deletes) }

// Canonicalize validates d against an n-vertex graph and sorts both
// batches by (From, To), deduplicating deletes. After a nil return the
// delta is in canonical form: Fingerprint is stable under the original
// ordering and ApplyDelta can merge it in one linear pass.
func (d *EdgeDelta) Canonicalize(n int) error {
	check := func(e Edge, kind string) error {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return fmt.Errorf("graph: %s %d->%d out of range [0, %d)", kind, e.From, e.To, n)
		}
		if e.From == e.To {
			return fmt.Errorf("graph: %s %d->%d is a self loop", kind, e.From, e.To)
		}
		return nil
	}
	for _, e := range d.Inserts {
		if err := check(e, "insert"); err != nil {
			return err
		}
		if e.Weight < 0 {
			return fmt.Errorf("graph: insert %d->%d has negative weight %d", e.From, e.To, e.Weight)
		}
	}
	for _, e := range d.Deletes {
		if err := check(e, "delete"); err != nil {
			return err
		}
	}
	sortByEndpoints(d.Inserts)
	sortByEndpoints(d.Deletes)
	for i := 1; i < len(d.Inserts); i++ {
		if sameEdge(d.Inserts[i], d.Inserts[i-1]) {
			return fmt.Errorf("graph: duplicate insert %d->%d", d.Inserts[i].From, d.Inserts[i].To)
		}
	}
	// Duplicate deletes are harmless repetition: collapse them.
	uniq := d.Deletes[:0]
	for i, e := range d.Deletes {
		if i > 0 && sameEdge(e, d.Deletes[i-1]) {
			continue
		}
		uniq = append(uniq, e)
	}
	d.Deletes = uniq
	// An edge both inserted and deleted in one batch has no defined
	// order of application: reject rather than guess.
	for i, j := 0, 0; i < len(d.Inserts) && j < len(d.Deletes); {
		switch {
		case lessByEndpoints(d.Inserts[i], d.Deletes[j]):
			i++
		case lessByEndpoints(d.Deletes[j], d.Inserts[i]):
			j++
		default:
			return fmt.Errorf("graph: edge %d->%d both inserted and deleted", d.Inserts[i].From, d.Inserts[i].To)
		}
	}
	return nil
}

func sortByEndpoints(es []Edge) {
	sort.Slice(es, func(i, j int) bool { return lessByEndpoints(es[i], es[j]) })
}

func lessByEndpoints(a, b Edge) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

func sameEdge(a, b Edge) bool { return a.From == b.From && a.To == b.To }

// fnvMix64 feeds one 64-bit word into a running FNV-1a state, in the
// same byte order as CSR.Fingerprint.
func fnvMix64(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= uint64(byte(v >> s))
		h *= fnvPrime64
	}
	return h
}

// Fingerprint returns a deterministic 64-bit FNV-1a digest of the
// canonical delta. Two deltas fingerprint identically iff they request
// the same mutations, regardless of the order they were supplied in
// (Canonicalize sorts first). The versioned store combines it with the
// parent's fingerprint (LineageFingerprint) to derive version identity
// without hashing full CSR arrays.
func (d *EdgeDelta) Fingerprint() uint64 {
	h := fnvOffset64
	h = fnvMix64(h, uint64(len(d.Inserts)))
	for _, e := range d.Inserts {
		h = fnvMix64(h, uint64(uint32(e.From))<<32|uint64(uint32(e.To)))
		h = fnvMix64(h, uint64(uint32(e.Weight)))
	}
	h = fnvMix64(h, uint64(len(d.Deletes)))
	for _, e := range d.Deletes {
		h = fnvMix64(h, uint64(uint32(e.From))<<32|uint64(uint32(e.To)))
	}
	return h
}

// LineageFingerprint derives a child graph version's fingerprint from
// its parent's fingerprint and its delta's: the content-and-history
// address of the version. Equal lineage fingerprints mean "same root
// mutated by the same patch sequence", which is what makes cached
// per-version results safe with zero invalidation scans.
func LineageFingerprint(parent, delta uint64) uint64 {
	h := fnvOffset64
	h = fnvMix64(h, parent)
	h = fnvMix64(h, delta)
	return h
}

// ApplyDelta builds the CSR that results from applying the canonical
// delta d to base (Canonicalize must have returned nil for base.N).
// Untouched adjacency spans are copied verbatim; touched vertices merge
// their base list with the delta in one linear pass, so the work beyond
// the unavoidable O(n+m) array copy is proportional to the touched
// lists. The base graph is never modified — versions share nothing
// mutable.
//
// The result is in canonical weight form: a unit base with unit inserts
// builds no weight array at all, and a weighted base whose remaining
// weights are all 1 drops its array.
func ApplyDelta(base *CSR, d *EdgeDelta) *CSR {
	n := base.N
	out := &CSR{
		N:       n,
		Offsets: make([]int64, n+1),
		Targets: make([]int32, 0, len(base.Targets)+len(d.Inserts)),
	}
	var ws []int32 // out's weights; nil when base and inserts are all weight 1
	if base.Weights != nil || slices.ContainsFunc(d.Inserts, func(e Edge) bool { return e.Weight != 1 }) {
		ws = make([]int32, 0, cap(out.Targets))
	}
	emit := func(t, w int32) {
		out.Targets = append(out.Targets, t)
		if ws != nil {
			ws = append(ws, w)
		}
	}
	ii, di := 0, 0 // cursors into d.Inserts / d.Deletes (sorted by From,To)
	for v := 0; v < n; v++ {
		ts, bws := base.Neighbors(v)
		i0 := ii
		for ii < len(d.Inserts) && int(d.Inserts[ii].From) == v {
			ii++
		}
		d0 := di
		for di < len(d.Deletes) && int(d.Deletes[di].From) == v {
			di++
		}
		ins, del := d.Inserts[i0:ii], d.Deletes[d0:di]
		if len(ins) == 0 && len(del) == 0 {
			out.Targets = append(out.Targets, ts...)
			if ws != nil {
				ws = append(ws, bws...)
			}
			out.Offsets[v+1] = int64(len(out.Targets))
			continue
		}
		bi, xi, yi := 0, 0, 0 // base, insert, delete cursors within v
		for bi < len(ts) || xi < len(ins) {
			bt := int32(math.MaxInt32)
			if bi < len(ts) {
				bt = ts[bi]
			}
			it := int32(math.MaxInt32)
			if xi < len(ins) {
				it = ins[xi].To
			}
			switch {
			case it < bt: // pure insert
				emit(it, ins[xi].Weight)
				xi++
			case it == bt: // insert over existing edge: weight overwrite
				emit(it, ins[xi].Weight)
				xi++
				bi++
			default: // base edge, unless deleted
				for yi < len(del) && del[yi].To < bt {
					yi++ // absent delete: no-op
				}
				if yi < len(del) && del[yi].To == bt {
					bi++
					yi++
					continue
				}
				emit(bt, bws[bi])
				bi++
			}
		}
		out.Offsets[v+1] = int64(len(out.Targets))
	}
	out.setWeights(ws)
	return out.ownTranspose(base.tr.Load() == base && d.mirrored())
}

// mirrored reports whether the canonical delta d is its own reverse, under
// which ApplyDelta keeps a base's self-transpose mark (see ownTranspose).
func (d *EdgeDelta) mirrored() bool {
	for k, es := range [][]Edge{d.Inserts, d.Deletes} {
		for _, e := range es {
			r := Edge{From: e.To, To: e.From}
			i := sort.Search(len(es), func(i int) bool { return !lessByEndpoints(es[i], r) })
			if i == len(es) || !sameEdge(es[i], r) || (k == 0 && es[i].Weight != e.Weight) {
				return false
			}
		}
	}
	return true
}
