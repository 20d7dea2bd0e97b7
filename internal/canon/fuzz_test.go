package canon

import (
	"math/rand"
	"sort"
	"testing"
)

// The label alphabets include prefix pairs ("a"/"ab", "P"/"PD"), a
// separator character, a multi-byte rune and the empty label: the cases
// where rank order and the reference's string order could part ways.
// '~' is excluded (see compareTilde).
var (
	fuzzNodeLabels = []string{"P", "PD", "D", "", "é"}
	fuzzEdgeLabels = []string{"a", "ab", "a,b", "b", "", "é", "a-b:c"}
)

// byteSource deals out the fuzz input one byte at a time, zeros once it
// runs dry.
type byteSource struct{ data []byte }

func (s *byteSource) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

// graph decodes a labeled multigraph on n nodes; loops and parallel
// edges are kept.
func (s *byteSource) graph(n int) *Graph {
	g := &Graph{Labels: make([]string, n)}
	for i := range g.Labels {
		g.Labels[i] = fuzzNodeLabels[s.next()%len(fuzzNodeLabels)]
	}
	for m := s.next() % (2*n + 1); m > 0; m-- {
		g.Edges = append(g.Edges, Edge{U: s.next() % n, V: s.next() % n,
			Label: fuzzEdgeLabels[s.next()%len(fuzzEdgeLabels)]})
	}
	return g
}

func (s *byteSource) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.next() % (i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// bruteIso decides labeled-multigraph isomorphism by trying every node
// bijection. It shares no code with the canonicalizer.
func bruteIso(a, b *Graph) bool {
	n := len(a.Labels)
	if n != len(b.Labels) || len(a.Edges) != len(b.Edges) {
		return false
	}
	type key struct {
		u, v  int
		label string
	}
	edges := func(g *Graph, at []int) []key {
		out := make([]key, len(g.Edges))
		for i, e := range g.Edges {
			u, v := at[e.U], at[e.V]
			if u > v {
				u, v = v, u
			}
			out[i] = key{u, v, e.Label}
		}
		sort.Slice(out, func(i, j int) bool {
			x, y := out[i], out[j]
			if x.u != y.u {
				return x.u < y.u
			}
			if x.v != y.v {
				return x.v < y.v
			}
			return x.label < y.label
		})
		return out
	}
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	want := edges(b, id)
	perm := make([]int, n)
	used := make([]bool, n)
	var try func(i int) bool
	try = func(i int) bool {
		if i == n {
			got := edges(a, perm)
			for k := range got {
				if got[k] != want[k] {
					return false
				}
			}
			return true
		}
		for j := 0; j < n; j++ {
			if used[j] || a.Labels[i] != b.Labels[j] {
				continue
			}
			used[j], perm[i] = true, j
			if try(i + 1) {
				return true
			}
			used[j] = false
		}
		return false
	}
	return try(0)
}

// checkAgainstReference decodes a graph g, a permuted copy and a
// second graph h (a permuted copy with one edge rewired, or an
// unrelated graph of the same size) from data and checks that
// Canonical returns the reference implementation's bytes on all of
// them and that, up to six nodes, equal canonical strings coincide with
// brute-force isomorphism.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	src := &byteSource{data: data}
	n := 1 + src.next()%8
	g := src.graph(n)
	same := permute(g, src.perm(n))
	var h *Graph
	if src.next()%2 == 0 {
		h = permute(g, src.perm(n))
		if len(h.Edges) > 0 {
			e := &h.Edges[src.next()%len(h.Edges)]
			e.V = src.next() % n
		}
	} else {
		h = src.graph(n)
	}
	for _, x := range []*Graph{g, same, h} {
		if got, want := Canonical(x), referenceCanonical(x); got != want {
			t.Fatalf("graph %+v:\n got %q\nwant %q", *x, got, want)
		}
	}
	if Canonical(g) != Canonical(same) {
		t.Fatalf("permutation changed the canonical form of %+v", *g)
	}
	if n <= 6 {
		if eq, iso := Canonical(g) == Canonical(h), bruteIso(g, h); eq != iso {
			t.Fatalf("canonical strings equal = %v, isomorphic = %v:\n%+v\n%+v", eq, iso, *g, *h)
		}
	}
}

func FuzzCanonicalMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 6, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 0, 0})
	f.Fuzz(checkAgainstReference)
}

// TestCanonicalMatchesReference runs the fuzz check over a fixed
// pseudo-random stream, so every plain `go test` covers a few thousand
// graphs beyond the committed corpus.
func TestCanonicalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 96)
	for i := 0; i < 3000; i++ {
		rng.Read(data)
		checkAgainstReference(t, data)
	}
}

// TestCanonicalManyNodes covers multi-digit positions in the encoding
// ("10-11:" sorts before "2-3:" as a string) against the reference.
func TestCanonicalManyNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		n := 10 + rng.Intn(4)
		g := &Graph{Labels: make([]string, n)}
		for v := range g.Labels {
			g.Labels[v] = fuzzNodeLabels[rng.Intn(len(fuzzNodeLabels))]
		}
		// A labeled path through every node plus chords: refinement
		// separates almost everything, so the search stays small.
		for v := 1; v < n; v++ {
			g.Edges = append(g.Edges, Edge{U: v - 1, V: v, Label: fuzzEdgeLabels[rng.Intn(len(fuzzEdgeLabels))]})
		}
		for c := rng.Intn(n); c > 0; c-- {
			g.Edges = append(g.Edges, Edge{U: rng.Intn(n), V: rng.Intn(n), Label: fuzzEdgeLabels[rng.Intn(len(fuzzEdgeLabels))]})
		}
		h := permute(g, rng.Perm(n))
		want := referenceCanonical(g)
		if got := Canonical(g); got != want {
			t.Fatalf("graph %+v:\n got %q\nwant %q", *g, got, want)
		}
		if got := Canonical(h); got != want {
			t.Fatalf("permuted graph %+v:\n got %q\nwant %q", *h, got, want)
		}
	}
}
