// Package canon computes canonical forms of small labeled multigraphs.
//
// Topology identity in the paper is "equivalence under labeled-graph
// isomorphism" (Section 2.1): two result graphs denote the same topology
// exactly when there is a type-preserving bijection between them. canon
// provides that identity as a canonical string: Canonical(g) ==
// Canonical(h) iff g and h are isomorphic.
//
// The algorithm is individualization–refinement: iterated colour
// refinement (initial colour = node label, refined by the multiset of
// (edge label, neighbour colour) pairs), then exhaustive branching over
// the first non-singleton cell, taking the lexicographically least
// adjacency encoding over all discrete colourings explored. Topology
// graphs have O(l) nodes (l = path-length bound, 3 or 4 in the paper),
// so the worst-case exponential search is never a concern in practice;
// property-based tests verify permutation invariance.
//
// The search runs over label ranks and colours in buffers sized once
// per call; only the final encoding touches label text. The output
// format is frozen — topology IDs, goldens and the wire "structure"
// field derive from it — and a fuzz test holds it byte-for-byte equal
// to the original string-based implementation kept in the tests.
package canon

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
)

// Edge is an undirected labeled edge between node indices U and V.
type Edge struct {
	U, V  int
	Label string
}

// Graph is a small labeled multigraph. Node i carries label Labels[i].
type Graph struct {
	Labels []string
	Edges  []Edge
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Labels) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Degrees returns per-node degrees (loops count twice).
func (g *Graph) Degrees() []int {
	d := make([]int, len(g.Labels))
	for _, e := range g.Edges {
		d[e.U]++
		d[e.V]++
	}
	return d
}

// IsPath reports whether g is a simple path: connected, acyclic, with
// exactly two degree-1 endpoints (or a single node). Used to decide
// which frequent topologies are prunable "simple" topologies
// (Section 4.2.2).
func (g *Graph) IsPath() bool {
	n := len(g.Labels)
	if n == 0 {
		return false
	}
	if n == 1 {
		return len(g.Edges) == 0
	}
	if len(g.Edges) != n-1 {
		return false
	}
	deg := g.Degrees()
	ones := 0
	for _, d := range deg {
		switch d {
		case 1:
			ones++
		case 2:
		default:
			return false
		}
	}
	return ones == 2 && g.connected()
}

func (g *Graph) connected() bool {
	n := len(g.Labels)
	if n == 0 {
		return true
	}
	adj := make([][]int, n)
	for _, e := range g.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				cnt++
				stack = append(stack, w)
			}
		}
	}
	return cnt == n
}

// Canonical returns a string that identifies g up to labeled-graph
// isomorphism: two graphs map to the same string iff they are
// isomorphic.
func Canonical(g *Graph) string {
	if len(g.Labels) == 0 {
		return "empty"
	}
	s := newSearch(g)
	s.branch(0)
	return string(s.best)
}

// Iso reports whether two labeled graphs are isomorphic.
func Iso(a, b *Graph) bool {
	if len(a.Labels) != len(b.Labels) || len(a.Edges) != len(b.Edges) {
		return false
	}
	return Canonical(a) == Canonical(b)
}

// arc is one end of an edge as seen from a node: the node at the other
// end and the rank of the edge's label.
type arc struct{ to, label int }

type search struct {
	g   *Graph
	n   int
	off []int // node v's arcs are adj[off[v]:off[v+1]]
	adj []arc
	// colors holds one row of n colours per search depth. Every level
	// of branching adds a cell, so there are at most n levels.
	colors []int
	// Refinement buffers: sig[off[v]:off[v+1]] is node v's sorted
	// neighbourhood signature, order lists the nodes by (colour, sig)
	// and next receives the colours of the following round.
	sig, order, next []int
	// Encoding buffers: edge i rendered as "u-v:label" is
	// text[eoff[i]:eoff[i+1]], and eord lists the edges in output order.
	text       []byte
	eoff, eord []int
	enc, best  []byte
}

// compareTilde orders a+"~" against b+"~" bytewise. The canonical form
// was first defined by sorting "label~colour" strings, and that is the
// order edge labels take there; it differs from plain string order
// exactly when one label is a prefix of the other. (For labels that
// themselves contain '~' the original order also depended on the colour
// digits; such labels still canonicalize consistently, but not
// necessarily to the bytes the original produced.)
func compareTilde(a, b string) int {
	switch {
	case len(a) < len(b) && b[:len(a)] == a:
		if b[len(a)] < '~' {
			return 1
		}
		return -1
	case len(b) < len(a) && a[:len(b)] == b:
		if a[len(b)] < '~' {
			return -1
		}
		return 1
	}
	return strings.Compare(a, b)
}

func newSearch(g *Graph) *search {
	n, m := len(g.Labels), len(g.Edges)
	s := &search{g: g, n: n}
	ints := make([]int, (n+1)+n*n+2*m+n+n+(m+1)+m)
	take := func(k int) []int {
		out := ints[:k:k]
		ints = ints[k:]
		return out
	}
	s.off, s.colors, s.sig = take(n+1), take(n*n), take(2*m)
	s.order, s.next, s.eoff, s.eord = take(n), take(n), take(m+1), take(m)

	// An edge label's rank is the number of edges with a smaller label
	// (eoff is borrowed to hold it until the first encoding).
	rank := s.eoff[:m]
	for i, e := range g.Edges {
		for _, f := range g.Edges {
			if compareTilde(f.Label, e.Label) < 0 {
				rank[i]++
			}
		}
	}

	// Adjacency in compressed rows; a loop contributes one arc.
	for _, e := range g.Edges {
		s.off[e.U+1]++
		if e.U != e.V {
			s.off[e.V+1]++
		}
	}
	for v := 0; v < n; v++ {
		s.off[v+1] += s.off[v]
	}
	s.adj = make([]arc, s.off[n])
	s.sig = s.sig[:s.off[n]]
	fill := s.next
	copy(fill, s.off)
	for i, e := range g.Edges {
		s.adj[fill[e.U]] = arc{to: e.V, label: rank[i]}
		fill[e.U]++
		if e.U != e.V {
			s.adj[fill[e.V]] = arc{to: e.U, label: rank[i]}
			fill[e.V]++
		}
	}

	// Initial colouring by node label, ranks assigned in sorted label
	// order so the colouring is permutation-invariant.
	for v := range s.order {
		s.order[v] = v
	}
	slices.SortFunc(s.order, func(v, w int) int { return strings.Compare(g.Labels[v], g.Labels[w]) })
	c := 0
	for i, v := range s.order {
		if i > 0 && g.Labels[s.order[i-1]] != g.Labels[v] {
			c++
		}
		s.colors[v] = c
	}
	return s
}

// refine runs colour refinement on row to a fixpoint. A round ranks the
// nodes by (old colour, sorted multiset of (edge label, neighbour
// colour) pairs), which keeps the refinement permutation-invariant.
// Colours are always dense ranks, and refinement only ever splits
// cells, so the partition is stable when a round adds no colour.
func (s *search) refine(row []int) {
	n := s.n
	colours := slices.Max(row) + 1
	for {
		for v := 0; v < n; v++ {
			seg := s.sig[s.off[v]:s.off[v+1]]
			for i, a := range s.adj[s.off[v]:s.off[v+1]] {
				seg[i] = a.label*n + row[a.to]
			}
			slices.Sort(seg)
		}
		for v := range s.order {
			s.order[v] = v
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && s.compareNodes(row, s.order[j], s.order[j-1]) < 0; j-- {
				s.order[j], s.order[j-1] = s.order[j-1], s.order[j]
			}
		}
		c := 0
		for i, v := range s.order {
			if i > 0 && s.compareNodes(row, s.order[i-1], v) != 0 {
				c++
			}
			s.next[v] = c
		}
		copy(row, s.next)
		if c+1 == colours {
			return
		}
		colours = c + 1
	}
}

func (s *search) compareNodes(row []int, v, w int) int {
	if row[v] != row[w] {
		return row[v] - row[w]
	}
	return slices.Compare(s.sig[s.off[v]:s.off[v+1]], s.sig[s.off[w]:s.off[w+1]])
}

// branch refines the colouring at the given depth and, unless it is
// discrete, individualizes each node of the first non-singleton cell
// (smallest colour) in turn.
func (s *search) branch(depth int) {
	n := s.n
	row := s.colors[depth*n : (depth+1)*n]
	s.refine(row)
	size := s.next
	clear(size)
	for _, c := range row {
		size[c]++
	}
	target := slices.IndexFunc(size, func(k int) bool { return k > 1 })
	if target == -1 {
		s.encode(row)
		return
	}
	child := s.colors[(depth+1)*n : (depth+2)*n]
	for v := 0; v < n; v++ {
		if row[v] != target {
			continue
		}
		// Individualize v: it keeps the cell's colour, everything else
		// at or above the cell shifts up by one.
		for w, c := range row {
			if c >= target {
				c++
			}
			child[w] = c
		}
		child[v] = target
		s.branch(depth + 1)
	}
}

// encode renders the graph under the discrete colouring pos (node v at
// canonical position pos[v]) as "labels;edges" with the edges sorted as
// strings, and keeps the least encoding seen.
func (s *search) encode(pos []int) {
	nodeAt := s.order
	for v, p := range pos {
		nodeAt[p] = v
	}
	enc := s.enc[:0]
	for p, v := range nodeAt {
		if p > 0 {
			enc = append(enc, ',')
		}
		enc = append(enc, s.g.Labels[v]...)
	}
	enc = append(enc, ';')
	text := s.text[:0]
	for i, e := range s.g.Edges {
		u, v := pos[e.U], pos[e.V]
		if u > v {
			u, v = v, u
		}
		s.eoff[i], s.eord[i] = len(text), i
		text = strconv.AppendInt(text, int64(u), 10)
		text = append(text, '-')
		text = strconv.AppendInt(text, int64(v), 10)
		text = append(text, ':')
		text = append(text, e.Label...)
	}
	s.eoff[len(s.g.Edges)] = len(text)
	s.text = text
	edge := func(i int) []byte { return text[s.eoff[i]:s.eoff[i+1]] }
	slices.SortFunc(s.eord, func(i, j int) int { return bytes.Compare(edge(i), edge(j)) })
	for k, i := range s.eord {
		if k > 0 {
			enc = append(enc, ',')
		}
		enc = append(enc, edge(i)...)
	}
	s.enc = enc
	if len(s.best) == 0 || bytes.Compare(enc, s.best) < 0 {
		s.enc, s.best = s.best, s.enc
	}
}
