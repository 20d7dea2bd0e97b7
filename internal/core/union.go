package core

import (
	"encoding/binary"
	"slices"

	"toposearch/internal/canon"
	"toposearch/internal/graph"
)

// memoOff makes every canonical-form lookup miss; tests set it to check
// that the memo changes nothing but the work done.
var memoOff bool

// unions builds the unions of representative paths behind Definition 2
// and reduces each to its canonical form. A build registers hundreds of
// thousands of unions drawn from a few hundred distinct shapes, so the
// reduction is memoized on the assembled graph itself: the key spells
// out the node types and the (u, v, type) edge triples in assembly
// order, each as a varint behind a node count, so two unions share a key
// only when they are the same labeled multigraph node for node. Unions
// that are isomorphic but assembled in different orders take separate
// entries holding the same canonical string. The buffers are reused from
// union to union; a unions value belongs to one goroutine and one graph
// (type IDs stand in for type names, which the graph's tables intern
// one-to-one).
type unions struct {
	g       *graph.Graph
	nodes   []graph.NodeID // the union's entities, in assembly order
	types   []graph.TypeID // their entity types
	edgeIDs []int64        // the union's relationships, in assembly order
	edges   []unionEdge    // their endpoints and relationship types
	key     []byte
	memo    map[string]string // shape key -> canonical form
	// calls counts canonical-form lookups, misses those that ran the
	// canonicalizer.
	calls, misses int

	choice []graph.Path // combination enumeration state
	at     []int
}

type unionEdge struct {
	u, v int // indices into nodes
	t    graph.TypeID
}

func newUnions(g *graph.Graph) *unions {
	return &unions{g: g, memo: make(map[string]string)}
}

// assemble unions the paths into one labeled graph: nodes are keyed by
// entity ID and edges by the graph-global relationship ID, so two paths
// that share an intermediate entity share its node — exactly the
// distinction between topologies T3 and T4 in the paper's running
// example — and a relationship on two paths is one edge.
func (u *unions) assemble(paths []graph.Path) {
	u.nodes, u.types, u.edgeIDs, u.edges = u.nodes[:0], u.types[:0], u.edgeIDs[:0], u.edges[:0]
	for _, p := range paths {
		prev := 0
		for i, n := range p.Nodes {
			at := slices.Index(u.nodes, n)
			if at < 0 {
				at = len(u.nodes)
				t, _ := u.g.NodeType(n)
				u.nodes, u.types = append(u.nodes, n), append(u.types, t)
			}
			if i > 0 && !slices.Contains(u.edgeIDs, p.Edges[i-1]) {
				u.edgeIDs = append(u.edgeIDs, p.Edges[i-1])
				u.edges = append(u.edges, unionEdge{u: prev, v: at, t: p.Types[i-1]})
			}
			prev = at
		}
	}
}

// shapeKey spells the assembled union out into the key buffer.
func (u *unions) shapeKey() []byte {
	key := binary.AppendUvarint(u.key[:0], uint64(len(u.types)))
	for _, t := range u.types {
		key = binary.AppendUvarint(key, uint64(t))
	}
	for _, e := range u.edges {
		key = binary.AppendUvarint(key, uint64(e.u))
		key = binary.AppendUvarint(key, uint64(e.v))
		key = binary.AppendUvarint(key, uint64(e.t))
	}
	u.key = key
	return key
}

// canonical returns the canonical form of the assembled union.
func (u *unions) canonical() string {
	u.calls++
	key := u.shapeKey()
	if c, ok := u.memo[string(key)]; ok && !memoOff {
		return c
	}
	u.misses++
	c := canon.Canonical(u.graph())
	u.memo[string(key)] = c
	return c
}

// graph snapshots the assembled union as a labeled graph that shares
// no memory with the scratch.
func (u *unions) graph() *canon.Graph {
	out := &canon.Graph{Labels: make([]string, len(u.types)), Edges: make([]canon.Edge, len(u.edges))}
	for i, t := range u.types {
		out.Labels[i] = u.g.NodeTypes.Name(t)
	}
	for i, e := range u.edges {
		out.Edges[i] = canon.Edge{U: e.u, V: e.v, Label: u.g.EdgeTypes.Name(e.t)}
	}
	return out
}

// register interns the union of the paths — one representative per
// class, the classes having signatures sigs — and returns its topology.
func (u *unions) register(reg *Registry, paths []graph.Path, sigs []graph.PathSig) TopologyID {
	u.assemble(paths)
	c := u.canonical()
	if id, ok := reg.find(c); ok {
		return id
	}
	return reg.intern(c, u.graph(), sigs)
}

// combinations visits every way of choosing one representative per
// class, the last class varying fastest, until visit returns false or
// budget combinations have been visited (Options.MaxCombinations). The
// choice slice is reused between visits.
func (u *unions) combinations(reps [][]graph.Path, budget int, visit func(choice []graph.Path) bool) {
	if len(reps) == 0 {
		return
	}
	u.choice, u.at = u.choice[:0], u.at[:0]
	for _, r := range reps {
		u.choice, u.at = append(u.choice, r[0]), append(u.at, 0)
	}
	for ; budget > 0; budget-- {
		if !visit(u.choice) {
			return
		}
		i := len(reps) - 1
		for ; i >= 0; i-- {
			if u.at[i]++; u.at[i] < len(reps[i]) {
				break
			}
			u.at[i] = 0
		}
		if i < 0 {
			return
		}
		for ; i < len(reps); i++ {
			u.choice[i] = reps[i][u.at[i]]
		}
	}
}

// topologies appends to out the distinct topologies of one entity
// pair's unions, in discovery order: every combination of one
// representative per class, unioned and reduced to its equivalence
// class. Discovery order is intrinsic to the pair — it depends only on
// the order of the classes and of their representatives, never on the
// registry's prior contents — which is what lets the incremental-update
// merge replay a cell's registrations in exactly the order a
// from-scratch sequential run would perform them.
func (u *unions) topologies(reg *Registry, reps [][]graph.Path, sigs []graph.PathSig,
	opts Options, out []TopologyID) []TopologyID {
	base := len(out)
	u.combinations(reps, opts.MaxCombinations, func(choice []graph.Path) bool {
		if id := u.register(reg, choice, sigs); !slices.Contains(out[base:], id) {
			out = append(out, id)
		}
		return true
	})
	return out
}
