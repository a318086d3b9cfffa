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
// by patching a single graph. A version costs its delta; only a lineage's
// root and head hold a CSR (see Version), and a lineage keeps at most one
// run payload per repairable kernel (see StoredGraph.seeds), so the
// budget bounds memory at two CSRs and two O(n) seeds per lineage plus
// the deltas.
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
// O(delta) storage discipline of journal/snapshot state stores).
//
// Residency rule: a version holds its materialized forms — the CSR, the
// in-CSR memoized on it, the dense matrix and the reordered CSRs — only
// while it is its lineage's root or head. The head builds its CSR lazily,
// on first use, from the nearest ancestor that still holds one, and in
// doing so releases the forms of every non-root ancestor. A superseded
// version replays the deltas below its nearest ancestor holding a CSR —
// the root, once the head is built — on each use without memoizing: at
// most depth × graph.ApplyDelta, and MaxGraphs bounds the depth. So a
// lineage of any length holds at most two CSRs.
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

	parent  *Version     // nil for the root
	lineage *StoredGraph // whose head decides residency
	// resident holds the version's forms while the residency rule keeps
	// them: always on the root, on the head once built; nil otherwise.
	resident  atomic.Pointer[forms]
	autoOnce  sync.Once
	auto      graph.Order
	depthOnce sync.Once
	depth     int
}

// forms is one materialization of a version: its CSR and the forms
// derived from it on first use. A resident version's forms are shared by
// every run on it; a superseded version's are built for one request,
// which holds them until it is done.
type forms struct {
	ver       *Version
	g         *graph.CSR
	denseOnce sync.Once
	dense     atomic.Pointer[graph.Dense]
	orderMu   sync.Mutex // guards orders map shape; entries synchronize themselves
	orders    map[graph.Order]*orderedVersion
}

// orderedVersion memoizes one reordered materialization of a version.
// The once is per (forms, order): concurrent first requests share one
// permutation build, later requests get the cached Reordered for free.
type orderedVersion struct {
	once sync.Once
	ro   atomic.Pointer[graph.Reordered] // set by once; read by residentBytes
	err  error
}

// DeltaSize is the number of mutations from the parent (0 for the root).
func (v *Version) DeltaSize() int {
	if v.Delta == nil {
		return 0
	}
	return v.Delta.Size()
}

// Graph returns the materialized CSR of this version (see materialize).
func (v *Version) Graph() *graph.CSR { return v.materialize().g }

// materialize returns the version's forms. For a root, or a head already
// built, it is one atomic load. Otherwise the lineage's build lock is
// taken: the head builds its forms, memoizes them and releases every
// non-root ancestor's, so concurrent first callers share one build; a
// superseded version replays outside the lock and memoizes nothing.
func (v *Version) materialize() *forms {
	if f := v.resident.Load(); f != nil {
		return f
	}
	sg := v.lineage
	sg.buildMu.Lock()
	if f := v.resident.Load(); f != nil {
		sg.buildMu.Unlock()
		return f
	}
	if sg.Head() != v {
		sg.buildMu.Unlock()
		return v.replay()
	}
	defer sg.buildMu.Unlock()
	f := v.replay()
	v.resident.Store(f)
	// Every ancestor, not only the parent: after patches with no run in
	// between, the version that last held forms is further up.
	for a := v.parent; a.parent != nil; a = a.parent {
		a.resident.Store(nil)
	}
	return f
}

// replay builds the version's forms from the nearest ancestor holding a
// CSR — the root at worst — by applying the deltas below it in order.
func (v *Version) replay() *forms {
	var chain []*Version
	a, f := v, v.resident.Load()
	for f == nil {
		chain = append(chain, a)
		a = a.parent
		f = a.resident.Load()
	}
	g := f.g
	for i := len(chain) - 1; i >= 0; i-- {
		g = graph.ApplyDelta(g, chain[i].Delta)
	}
	return &forms{ver: v, g: g}
}

// residentBytes is the memory of the forms the version holds: 0 when it
// holds only its delta.
func (v *Version) residentBytes() int64 {
	f := v.resident.Load()
	if f == nil {
		return 0
	}
	b := f.g.ResidentBytes()
	if d := f.dense.Load(); d != nil {
		b += 4 * int64(len(d.W))
	}
	f.orderMu.Lock()
	defer f.orderMu.Unlock()
	for _, e := range f.orders {
		if ro := e.ro.Load(); ro != nil {
			b += ro.G.ResidentBytes() + 4*int64(len(ro.Perm)+len(ro.Inv))
		}
	}
	return b
}

// Dense returns the adjacency-matrix form (APSP/BETW_CENT input), derived
// on first use and memoized. Callers must gate on vertex count: the
// matrix is O(N²).
func (f *forms) Dense() *graph.Dense {
	f.denseOnce.Do(func() { f.dense.Store(graph.DenseFromCSR(f.g)) })
	return f.dense.Load()
}

// Ordered returns the reordered CSR under the named (non-identity)
// ordering, built on first use and memoized per order — the same lazy
// discipline as Dense. Concurrent first callers share one permutation
// build.
func (f *forms) Ordered(o graph.Order) (*graph.Reordered, error) {
	if o == graph.OrderNone {
		return graph.Reorder(f.g, graph.OrderNone)
	}
	f.orderMu.Lock()
	if f.orders == nil {
		f.orders = make(map[graph.Order]*orderedVersion, 2)
	}
	e := f.orders[o]
	if e == nil {
		e = &orderedVersion{}
		f.orders[o] = e
	}
	f.orderMu.Unlock()
	e.once.Do(func() {
		var ro *graph.Reordered
		ro, e.err = graph.Reorder(f.g, o)
		e.ro.Store(ro)
	})
	return e.ro.Load(), e.err
}

// AutoOrder picks the version's ordering from its degree skew
// (graph.PickOrder): hub packing for power-law graphs, RCM bandwidth
// reduction for flat-degree road/mesh graphs. Memoized on the version,
// which outlives its forms — the skew scan is O(N) and version content is
// immutable.
func (f *forms) AutoOrder() graph.Order {
	v := f.ver
	v.autoOnce.Do(func() { v.auto = graph.PickOrder(f.g) })
	return v.auto
}

// BFSDepth estimates how deep a BFS of the version runs: the level count
// of one sequential BFS from the max-degree vertex. The batcher reads it
// to tell small-world graphs, where sources share frontier vertices and a
// multi-source pass pays off, from road-like ones, where it never does
// (see planBatch). Memoized on the version like AutoOrder, and computed
// per version rather than inherited: a patch can bridge or cut a long
// path.
func (f *forms) BFSDepth() int {
	v, g := f.ver, f.g
	v.depthOnce.Do(func() {
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
// rooted at the uploaded or generated CSR, and the repair seeds of its
// head. The graph ID stays the root's content address for the lineage's
// whole life; mutation advances the head version, never the ID.
type StoredGraph struct {
	// ID is the content-addressed identifier: "g" + 16 hex digits of the
	// root CSR fingerprint. Loading the same logical graph twice yields
	// the same ID (the store deduplicates).
	ID string
	// Desc records provenance, e.g. "generated:sparse" or "uploaded:snap".
	Desc string

	root *Version // versions[0], whose forms are never released
	// mu guards versions and seeds. Writers (Store.Patch, offerSeed) hold
	// it exclusively, which serializes mutation per lineage; unpinned
	// concurrent patches land in a deterministic chain, pinned ones
	// conflict.
	mu       sync.RWMutex
	versions []*Version
	// seeds holds, per kernel with a Repair, the payload its next repair
	// starts from: the newest result a run that keeps one (runPlan.keep)
	// produced on the head. It is the only run payload the server holds
	// after a reply, so a lineage holds at most one O(n) array per
	// repairable kernel, and the seeds go with the lineage.
	seeds map[string]seed
	// buildMu serializes the head's first materialization with the
	// release of its ancestors' forms (Version.materialize). Patch does
	// not take it: a PATCH stores only the delta.
	buildMu sync.Mutex
}

// seed is a repair seed: a run's payload and the run-cache key of the run
// that produced it.
type seed struct {
	key string
	res *core.Result
}

// offerSeed makes res, the payload of the run of key on v, its kernel's
// repair seed, replacing the last one — unless v is no longer the head,
// so that a pinned read of a superseded version cannot evict the seed the
// head's runs left before the next patch. Heads only advance, so the
// seed is always from the newest version a run finished on.
func (sg *StoredGraph) offerSeed(v *Version, kernel, key string, res *core.Result) {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if sg.versions[len(sg.versions)-1] != v {
		return
	}
	if sg.seeds == nil {
		sg.seeds = make(map[string]seed, 2)
	}
	sg.seeds[kernel] = seed{key: key, res: res}
}

// seed returns the kernel's repair seed when the run of key produced it,
// nil otherwise.
func (sg *StoredGraph) seed(kernel, key string) *core.Result {
	sg.mu.RLock()
	defer sg.mu.RUnlock()
	if sd, ok := sg.seeds[kernel]; ok && sd.key == key {
		return sd.res
	}
	return nil
}

// N returns the vertex count, which every version of the lineage shares.
func (sg *StoredGraph) N() int { return sg.root.Graph().N }

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
// "v…" version IDs pin an exact version). Every version stays
// addressable; under the residency rule (see Version) only each
// lineage's root and head hold a materialized CSR.
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
		lineage:     sg,
	}
	root.resident.Store(&forms{ver: root, g: g})
	sg.root, sg.versions = root, []*Version{root}
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
		lineage:     sg,
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

// Materialized returns the number of versions holding a CSR: at most two
// per lineage, its root and its head.
func (s *Store) Materialized() int {
	n := 0
	for _, sg := range s.List() {
		sg.mu.RLock()
		for _, v := range sg.versions {
			if v.resident.Load() != nil {
				n++
			}
		}
		sg.mu.RUnlock()
	}
	return n
}
