package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"crono/internal/core"
	"crono/internal/graph"
)

// ErrStoreFull is returned by Store.Put and Store.Patch when the version
// budget is exhausted. Every version — roots included — counts against
// MaxGraphs, so a mutation-heavy workload cannot grow memory unboundedly
// by patching a single graph.
var ErrStoreFull = errors.New("service: graph store full")

// ErrVersionConflict is returned by Store.Patch when the request pins a
// parent version that is no longer the lineage head (and the patch is
// not a replay of an already-applied one): optimistic concurrency
// control for concurrent mutators.
var ErrVersionConflict = errors.New("service: parent is not the current head")

// storeShards is the shard count of the graph and version indexes.
// Sharding keeps Put and Get contention-free across concurrent loads:
// IDs are content hashes, so they spread uniformly.
const storeShards = 16

// Version is one immutable graph version in a lineage: the root carries
// the full CSR, every child carries only its delta (copy-on-write — the
// O(delta) storage discipline of journal/snapshot state stores). The
// flat CSR and dense forms are derived on first use and memoized.
type Version struct {
	// ID is the lineage-addressed identifier: "v" + 16 hex digits of
	// Fingerprint.
	ID string
	// GraphID names the owning lineage.
	GraphID string
	// Ordinal is the position in the lineage chain (0 = root).
	Ordinal int
	// Parent is the parent version ID, "" for the root.
	Parent string
	// Fingerprint is the lineage fingerprint: the root's is the CSR
	// content fingerprint; a child's is LineageFingerprint(parent, delta).
	// Equal fingerprints mean same root content mutated by the same
	// patch sequence, which is what lets cached per-version results stay
	// correct with zero invalidation scans.
	Fingerprint uint64
	// Delta is the canonical edge delta from Parent (nil for the root).
	Delta *graph.EdgeDelta

	parent    *Version   // resident parent, nil for the root
	root      *graph.CSR // non-nil only for the root
	csrOnce   sync.Once
	csr       *graph.CSR
	denseOnce sync.Once
	dense     *graph.Dense
	autoOnce  sync.Once
	auto      graph.Order
	depthOnce sync.Once
	depth     int
	orderMu   sync.Mutex // guards orders map shape; entries synchronize themselves
	orders    map[graph.Order]*orderedVersion
}

// orderedVersion memoizes one reordered materialization of a version.
// The once is per (version, order): concurrent first requests share one
// permutation build, later requests get the cached Reordered for free.
type orderedVersion struct {
	once sync.Once
	ro   *graph.Reordered
	err  error
}

// DeltaSize is the number of mutations from the parent (0 for the root).
func (v *Version) DeltaSize() int {
	if v.Delta == nil {
		return 0
	}
	return v.Delta.Size()
}

// Graph returns the materialized CSR of this version, derived on first
// use by replaying the delta chain onto the root and memoized per
// version. Concurrent callers share one materialization.
func (v *Version) Graph() *graph.CSR {
	v.csrOnce.Do(func() {
		if v.root != nil {
			v.csr = v.root
			return
		}
		v.csr = graph.ApplyDelta(v.parent.Graph(), v.Delta)
	})
	return v.csr
}

// Dense returns the adjacency-matrix form (APSP/BETW_CENT input), derived
// on first use and memoized. Callers must gate on vertex count: the
// matrix is O(N²).
func (v *Version) Dense() *graph.Dense {
	v.denseOnce.Do(func() { v.dense = graph.DenseFromCSR(v.Graph()) })
	return v.dense
}

// Ordered returns the reordered materialization of this version under the
// named (non-identity) ordering, built on first use and memoized per
// (version, order) — the same lazy discipline as Graph and Dense.
// Concurrent first callers share one permutation build.
func (v *Version) Ordered(o graph.Order) (*graph.Reordered, error) {
	if o == graph.OrderNone {
		return graph.Reorder(v.Graph(), graph.OrderNone)
	}
	v.orderMu.Lock()
	if v.orders == nil {
		v.orders = make(map[graph.Order]*orderedVersion, 2)
	}
	e := v.orders[o]
	if e == nil {
		e = &orderedVersion{}
		v.orders[o] = e
	}
	v.orderMu.Unlock()
	e.once.Do(func() { e.ro, e.err = graph.Reorder(v.Graph(), o) })
	return e.ro, e.err
}

// AutoOrder picks this version's ordering from its degree skew
// (graph.PickOrder): hub packing for power-law graphs, RCM bandwidth
// reduction for flat-degree road/mesh graphs. Memoized — the skew scan is
// O(N) and version content is immutable.
func (v *Version) AutoOrder() graph.Order {
	v.autoOnce.Do(func() { v.auto = graph.PickOrder(v.Graph()) })
	return v.auto
}

// BFSDepth estimates how deep a BFS of this version runs: the level count
// of one sequential BFS from the max-degree vertex. The batcher reads it
// to tell small-world graphs, where sources share frontier vertices and a
// multi-source pass pays off, from road-like ones, where it never does
// (see planBatch). Memoized like AutoOrder, and computed per version
// rather than inherited: a patch can bridge or cut a long path.
func (v *Version) BFSDepth() int {
	v.depthOnce.Do(func() {
		g := v.Graph()
		src := 0
		for u := 1; u < g.N; u++ {
			if g.Degree(u) > g.Degree(src) {
				src = u
			}
		}
		for _, l := range core.BFSRef(g, src) {
			v.depth = max(v.depth, int(l))
		}
	})
	return v.depth
}

// StoredGraph is one resident lineage: a chain of immutable versions
// rooted at the uploaded or generated CSR. The graph ID stays the root's
// content address for the lineage's whole life; mutation advances the
// head version, never the ID.
type StoredGraph struct {
	// ID is the content-addressed identifier: "g" + 16 hex digits of the
	// root CSR fingerprint. Loading the same logical graph twice yields
	// the same ID (the store deduplicates).
	ID string
	// Desc records provenance, e.g. "generated:sparse" or "uploaded:snap".
	Desc string

	// mu guards versions. Writers (Store.Patch) hold it exclusively,
	// which serializes mutation per lineage; unpinned concurrent patches
	// land in a deterministic chain, pinned ones conflict.
	mu       sync.RWMutex
	versions []*Version
}

// Head returns the current head version of the lineage.
func (sg *StoredGraph) Head() *Version {
	sg.mu.RLock()
	defer sg.mu.RUnlock()
	return sg.versions[len(sg.versions)-1]
}

// Versions returns the lineage chain, root first.
func (sg *StoredGraph) Versions() []*Version {
	sg.mu.RLock()
	defer sg.mu.RUnlock()
	out := make([]*Version, len(sg.versions))
	copy(out, sg.versions)
	return out
}

// VersionCount returns the number of versions in the lineage.
func (sg *StoredGraph) VersionCount() int {
	sg.mu.RLock()
	defer sg.mu.RUnlock()
	return len(sg.versions)
}

type storeShard struct {
	mu     sync.RWMutex
	graphs map[string]*StoredGraph
}

// versionShard is a separate lock family from storeShard: Put nests
// graph-shard → version-shard, and nothing ever nests the other way, so
// the two-level hierarchy is deadlock-free by construction.
type versionShard struct {
	mu       sync.RWMutex
	versions map[string]*Version
}

// Store is a sharded in-memory store of graph lineages, addressed by
// content fingerprint ("g…" graph IDs resolve to the lineage head,
// "v…" version IDs pin an exact version).
type Store struct {
	maxVersions int
	count       atomic.Int64 // total versions across all lineages
	graphCount  atomic.Int64
	shards      [storeShards]storeShard
	vshards     [storeShards]versionShard
}

// NewStore returns a store admitting at most maxGraphs versions in total
// (<=0 means 64). Roots and patched versions draw from one budget, so
// "graphs plus mutations" is what MaxGraphs bounds.
func NewStore(maxGraphs int) *Store {
	if maxGraphs <= 0 {
		maxGraphs = 64
	}
	s := &Store{maxVersions: maxGraphs}
	for i := range s.shards {
		s.shards[i].graphs = make(map[string]*StoredGraph)
		s.vshards[i].versions = make(map[string]*Version)
	}
	return s
}

// GraphID renders the content-addressed graph ID for a fingerprint.
func GraphID(fp uint64) string { return fmt.Sprintf("g%016x", fp) }

// VersionID renders the lineage-addressed version ID for a fingerprint.
func VersionID(fp uint64) string { return fmt.Sprintf("v%016x", fp) }

func shardIndex(id string) uint32 {
	var h uint32
	for i := 0; i < len(id); i++ {
		h = h*31 + uint32(id[i])
	}
	return h % storeShards
}

func (s *Store) shard(id string) *storeShard    { return &s.shards[shardIndex(id)] }
func (s *Store) vshard(id string) *versionShard { return &s.vshards[shardIndex(id)] }

// reserve claims one slot of the version budget, or fails with
// ErrStoreFull. The atomic claim-then-rollback keeps the budget exact
// under concurrent Put/Patch across shards.
func (s *Store) reserve() error {
	if s.count.Add(1) > int64(s.maxVersions) {
		s.count.Add(-1)
		return ErrStoreFull
	}
	return nil
}

// Put stores g as a new lineage rooted at its fingerprint ID and returns
// the resident entry. Storing an already-present graph is a no-op
// returning the existing lineage (whose head may have advanced past the
// uploaded content), so repeated uploads of one graph cost one copy.
func (s *Store) Put(g *graph.CSR, desc string) (*StoredGraph, error) {
	fp := g.Fingerprint()
	id := GraphID(fp)
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if existing, ok := sh.graphs[id]; ok {
		return existing, nil
	}
	if err := s.reserve(); err != nil {
		return nil, err
	}
	sg := &StoredGraph{ID: id, Desc: desc}
	root := &Version{
		ID:          VersionID(fp),
		GraphID:     id,
		Fingerprint: fp,
		root:        g,
	}
	sg.versions = []*Version{root}
	// Publish the root version before the graph: anyone who can see the
	// lineage can resolve its head version ID.
	s.putVersion(root)
	sh.graphs[id] = sg
	s.graphCount.Add(1)
	return sg, nil
}

func (s *Store) putVersion(v *Version) {
	sh := s.vshard(v.ID)
	sh.mu.Lock()
	sh.versions[v.ID] = v
	sh.mu.Unlock()
}

// Patch applies a canonical delta to the lineage named by graph ID.
// parent optionally pins the expected head version ID: "" means "apply
// to whatever the head is". Patches on one lineage are serialized, so
// concurrent unpinned patches land in a deterministic chain; a pinned
// patch whose parent is no longer the head either replays (the same
// delta was already applied to that parent — same child fingerprint, so
// the stored version is returned with replayed=true) or fails with
// ErrVersionConflict. A pinned parent that names no version of this
// lineage reports ok=false, like an unknown graph ID.
func (s *Store) Patch(graphID string, d *graph.EdgeDelta, parent string) (v *Version, replayed bool, ok bool, err error) {
	sg, found := s.Get(graphID)
	if !found {
		return nil, false, false, nil
	}
	dfp := d.Fingerprint()
	sg.mu.Lock()
	defer sg.mu.Unlock()
	head := sg.versions[len(sg.versions)-1]
	if parent != "" && parent != head.ID {
		// Not the head: either a retry of an already-applied patch
		// (idempotent replay) or a genuine conflict.
		for _, pv := range sg.versions {
			if pv.ID != parent {
				continue
			}
			childID := VersionID(graph.LineageFingerprint(pv.Fingerprint, dfp))
			for _, cv := range sg.versions {
				if cv.ID == childID && cv.Parent == parent {
					return cv, true, true, nil
				}
			}
			return nil, false, true, ErrVersionConflict
		}
		return nil, false, false, nil
	}
	childFp := graph.LineageFingerprint(head.Fingerprint, dfp)
	childID := VersionID(childFp)
	if err := s.reserve(); err != nil {
		return nil, false, true, err
	}
	child := &Version{
		ID:          childID,
		GraphID:     sg.ID,
		Ordinal:     head.Ordinal + 1,
		Parent:      head.ID,
		Fingerprint: childFp,
		Delta:       d,
		parent:      head,
	}
	sg.versions = append(sg.versions, child)
	s.putVersion(child)
	return child, false, true, nil
}

// Get returns the lineage stored under a graph ID.
func (s *Store) Get(id string) (*StoredGraph, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sg, ok := sh.graphs[id]
	return sg, ok
}

// GetVersion returns the version stored under a version ID.
func (s *Store) GetVersion(id string) (*Version, bool) {
	sh := s.vshard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.versions[id]
	return v, ok
}

// Resolve maps a reference — graph ID ("g…", resolving to the lineage
// head) or version ID ("v…", pinning an exact version) — to the lineage
// and version it names.
func (s *Store) Resolve(ref string) (*StoredGraph, *Version, bool) {
	if sg, ok := s.Get(ref); ok {
		return sg, sg.Head(), true
	}
	if v, ok := s.GetVersion(ref); ok {
		sg, ok := s.Get(v.GraphID)
		if !ok {
			return nil, nil, false
		}
		return sg, v, true
	}
	return nil, nil, false
}

// List returns all resident lineages sorted by ID (a stable order for
// paged listings).
func (s *Store) List() []*StoredGraph {
	out := make([]*StoredGraph, 0, s.graphCount.Load())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, sg := range sh.graphs {
			out = append(out, sg)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of resident lineages (graphs, not versions).
func (s *Store) Len() int { return int(s.graphCount.Load()) }

// VersionTotal returns the number of resident versions across all
// lineages — the quantity the MaxGraphs budget bounds.
func (s *Store) VersionTotal() int { return int(s.count.Load()) }
