package canon

import (
	"fmt"
	"sort"
	"strings"
)

// referenceCanonical is the original string-based canonicalizer, kept
// verbatim as the oracle for Canonical: refinement compares
// "%06d|label~%06d,..." strings, the encoding sorts "%d-%d:%s" strings.
// Canonical must return exactly these bytes.
func referenceCanonical(g *Graph) string {
	if len(g.Labels) == 0 {
		return "empty"
	}
	s := newRefSearch(g)
	s.run()
	return s.best
}

type refNeighbor struct {
	to    int
	label string
}

type refSearch struct {
	g    *Graph
	n    int
	adj  [][]refNeighbor
	best string
}

func newRefSearch(g *Graph) *refSearch {
	n := len(g.Labels)
	s := &refSearch{g: g, n: n, adj: make([][]refNeighbor, n)}
	for _, e := range g.Edges {
		s.adj[e.U] = append(s.adj[e.U], refNeighbor{to: e.V, label: e.Label})
		if e.U != e.V {
			s.adj[e.V] = append(s.adj[e.V], refNeighbor{to: e.U, label: e.Label})
		}
	}
	return s
}

func (s *refSearch) run() {
	colors := make([]int, s.n)
	// Initial colouring by node label, ranks assigned in sorted label
	// order so the colouring is permutation-invariant.
	labels := append([]string(nil), s.g.Labels...)
	sort.Strings(labels)
	rank := map[string]int{}
	for _, l := range labels {
		if _, ok := rank[l]; !ok {
			rank[l] = len(rank)
		}
	}
	for i, l := range s.g.Labels {
		colors[i] = rank[l]
	}
	s.branch(colors)
}

// refine runs colour refinement to a fixpoint. New colour ranks are
// assigned by sorting (old colour, neighbourhood signature), which keeps
// the refinement permutation-invariant.
func (s *refSearch) refine(colors []int) {
	for {
		type key struct {
			node int
			sig  string
		}
		keys := make([]key, s.n)
		for v := 0; v < s.n; v++ {
			parts := make([]string, 0, len(s.adj[v]))
			for _, nb := range s.adj[v] {
				parts = append(parts, fmt.Sprintf("%s~%06d", nb.label, colors[nb.to]))
			}
			sort.Strings(parts)
			keys[v] = key{node: v, sig: fmt.Sprintf("%06d|%s", colors[v], strings.Join(parts, ","))}
		}
		sorted := append([]key(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].sig < sorted[j].sig })
		newColors := make([]int, s.n)
		c := -1
		prev := ""
		for _, k := range sorted {
			if k.sig != prev {
				c++
				prev = k.sig
			}
			newColors[k.node] = c
		}
		same := true
		// The partition is stable when the number of colours stops
		// growing (refinement only ever splits cells).
		if refCountColors(newColors) != refCountColors(colors) {
			same = false
		}
		copy(colors, newColors)
		if same {
			return
		}
	}
}

func refCountColors(colors []int) int {
	seen := map[int]bool{}
	for _, c := range colors {
		seen[c] = true
	}
	return len(seen)
}

func (s *refSearch) branch(colors []int) {
	work := append([]int(nil), colors...)
	s.refine(work)
	// Find the first non-singleton cell (smallest colour).
	cells := map[int][]int{}
	for v, c := range work {
		cells[c] = append(cells[c], v)
	}
	target := -1
	for c := 0; c < s.n; c++ {
		if len(cells[c]) > 1 {
			target = c
			break
		}
	}
	if target == -1 {
		enc := s.encode(work)
		if s.best == "" || enc < s.best {
			s.best = enc
		}
		return
	}
	for _, v := range cells[target] {
		child := make([]int, s.n)
		// Individualize v: give it a colour just below its cell, shift
		// everything at or above the cell up by one.
		for w, c := range work {
			if c >= target {
				child[w] = c + 1
			} else {
				child[w] = c
			}
		}
		child[v] = target
		s.branch(child)
	}
}

// encode renders the graph under the discrete colouring (colours form a
// permutation) as "labels;edges" with edges sorted.
func (s *refSearch) encode(colors []int) string {
	pos := make([]int, s.n) // node -> canonical position
	copy(pos, colors)
	nodeAt := make([]int, s.n)
	for v, p := range pos {
		nodeAt[p] = v
	}
	var b strings.Builder
	for p := 0; p < s.n; p++ {
		if p > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.g.Labels[nodeAt[p]])
	}
	b.WriteByte(';')
	edges := make([]string, 0, len(s.g.Edges))
	for _, e := range s.g.Edges {
		u, v := pos[e.U], pos[e.V]
		if u > v {
			u, v = v, u
		}
		edges = append(edges, fmt.Sprintf("%d-%d:%s", u, v, e.Label))
	}
	sort.Strings(edges)
	b.WriteString(strings.Join(edges, ","))
	return b.String()
}
