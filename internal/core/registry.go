// Package core implements the paper's primary contribution: the
// topology algebra. It computes l-path equivalence classes
// (Definition 1), l-topologies for entity pairs (Definition 2), and
// l-topology query results (Definition 3); it runs the offline Topology
// Computation module that builds the AllTops table (Section 4.1) and
// the Topology Pruning module that derives LeftTops and ExcpTops
// (Section 4.2); and it materializes all of these as relational tables
// for the query-evaluation methods.
package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"toposearch/internal/canon"
	"toposearch/internal/graph"
)

// TopologyID densely numbers registered topologies.
type TopologyID int32

// TopInfo describes one registered topology (the paper's TopInfo table).
type TopInfo struct {
	ID       TopologyID
	Canon    string       // canonical form; the identity of the topology
	Graph    *canon.Graph // a representative labeled graph
	NumNodes int
	NumEdges int
	// Sigs are the path-equivalence-class signatures whose union first
	// produced this topology, sorted. For a path-shaped topology this
	// is the single signature of its path class.
	Sigs []graph.PathSig
	// IsPath reports whether the topology is a simple path — the
	// "simple structure" family that the pruning strategy targets
	// (Section 4.2.2).
	IsPath bool
}

// Describe renders a short human-readable structure summary, e.g.
// "Protein,Unigene,DNA; 0-1:uni_encodes,1-2:uni_contains".
func (ti *TopInfo) Describe() string {
	return strings.ReplaceAll(ti.Canon, ";", " ; ")
}

// Registry interns topologies by canonical form and assigns IDs. All
// methods are safe for concurrent use; note however that the order in
// which topologies are first registered determines their IDs, so
// callers that need deterministic IDs under parallelism must impose a
// deterministic registration order themselves. The parallel Compute
// path does this with a two-phase design: workers intern into local
// registries, and the results are merged into the global registry in
// sorted start-node order via Adopt.
type Registry struct {
	mu      sync.RWMutex
	byCanon map[string]TopologyID
	infos   []*TopInfo
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byCanon: make(map[string]TopologyID)}
}

// Register interns the graph (built as the union of one representative
// path per equivalence class with signatures sigs) and returns its
// topology ID. Re-registering an isomorphic graph returns the existing
// ID.
func (r *Registry) Register(g *canon.Graph, sigs []graph.PathSig) TopologyID {
	return r.intern(canon.Canonical(g), g, sigs) // canonicalize outside the lock; it is expensive
}

// intern is Register for a graph whose canonical form c is known. The
// registry keeps g and a sorted copy of sigs if the topology is new.
func (r *Registry) intern(c string, g *canon.Graph, sigs []graph.PathSig) TopologyID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byCanon[c]; ok {
		return id
	}
	sorted := slices.Clone(sigs)
	slices.Sort(sorted)
	return r.add(&TopInfo{
		Canon:    c,
		Graph:    g,
		NumNodes: g.NumNodes(),
		NumEdges: g.NumEdges(),
		Sigs:     sorted,
		IsPath:   g.IsPath(),
	})
}

// Adopt interns a topology already described by another registry's
// TopInfo, reusing its precomputed canonical form instead of
// recanonicalizing. This is the merge half of the two-phase parallel
// interning design: workers Register into worker-local registries, then
// the merge loop Adopts each local entry into the global registry in a
// deterministic order.
func (r *Registry) Adopt(info *TopInfo) TopologyID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byCanon[info.Canon]; ok {
		return id
	}
	clone := *info
	return r.add(&clone)
}

// add appends a new TopInfo under r.mu; info.Canon must be absent.
func (r *Registry) add(info *TopInfo) TopologyID {
	id := TopologyID(len(r.infos))
	info.ID = id
	r.infos = append(r.infos, info)
	r.byCanon[info.Canon] = id
	return id
}

// Lookup finds the ID of a topology isomorphic to g.
func (r *Registry) Lookup(g *canon.Graph) (TopologyID, bool) {
	return r.find(canon.Canonical(g))
}

// find returns the ID registered under canonical form c.
func (r *Registry) find(c string) (TopologyID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byCanon[c]
	return id, ok
}

// Info returns the TopInfo for an ID. The returned TopInfo is immutable
// after registration.
func (r *Registry) Info(id TopologyID) *TopInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if int(id) < 0 || int(id) >= len(r.infos) {
		return nil
	}
	return r.infos[id]
}

// Len returns the number of registered topologies.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.infos)
}

// All returns a snapshot of every TopInfo in ID order (the TopInfos are
// shared and immutable; do not mutate).
func (r *Registry) All() []*TopInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*TopInfo(nil), r.infos...)
}

// String renders a summary.
func (r *Registry) String() string {
	return fmt.Sprintf("Registry(%d topologies)", r.Len())
}
