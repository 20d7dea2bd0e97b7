package canon

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// permute returns g with nodes renamed by the permutation perm.
func permute(g *Graph, perm []int) *Graph {
	out := &Graph{Labels: make([]string, len(g.Labels))}
	for i, l := range g.Labels {
		out.Labels[perm[i]] = l
	}
	for _, e := range g.Edges {
		out.Edges = append(out.Edges, Edge{U: perm[e.U], V: perm[e.V], Label: e.Label})
	}
	return out
}

func randPerm(rng *rand.Rand, n int) []int { return rng.Perm(n) }

// pathGraph builds P0-e-P1-e-...-Pn with alternating labels.
func pathGraph(labels []string, edgeLabels []string) *Graph {
	g := &Graph{Labels: labels}
	for i := 0; i < len(labels)-1; i++ {
		g.Edges = append(g.Edges, Edge{U: i, V: i + 1, Label: edgeLabels[i]})
	}
	return g
}

func TestCanonicalSimpleCases(t *testing.T) {
	empty := &Graph{}
	if Canonical(empty) != "empty" {
		t.Error("empty canonical wrong")
	}
	single := &Graph{Labels: []string{"Protein"}}
	if got := Canonical(single); got != "Protein;" {
		t.Errorf("single = %q", got)
	}
	// Two disconnected nodes, order-independent.
	a := &Graph{Labels: []string{"A", "B"}}
	b := &Graph{Labels: []string{"B", "A"}}
	if Canonical(a) != Canonical(b) {
		t.Error("disconnected two-node graphs differ")
	}
}

func TestPathDirectionInvariance(t *testing.T) {
	// Protein-encodes-DNA vs DNA-encodes-Protein.
	p1 := pathGraph([]string{"Protein", "DNA"}, []string{"encodes"})
	p2 := pathGraph([]string{"DNA", "Protein"}, []string{"encodes"})
	if Canonical(p1) != Canonical(p2) {
		t.Error("reversed edge changes canonical form")
	}
	// P-ue-U-uc-D forwards and backwards.
	f := pathGraph([]string{"Protein", "Unigene", "DNA"}, []string{"uni_encodes", "uni_contains"})
	r := pathGraph([]string{"DNA", "Unigene", "Protein"}, []string{"uni_contains", "uni_encodes"})
	if Canonical(f) != Canonical(r) {
		t.Error("reversed path changes canonical form")
	}
}

func TestNonIsomorphicDistinguished(t *testing.T) {
	// Same node multiset, different wiring: P-D plus isolated U vs P-U-D.
	g1 := &Graph{Labels: []string{"P", "U", "D"},
		Edges: []Edge{{U: 0, V: 2, Label: "e"}}}
	g2 := &Graph{Labels: []string{"P", "U", "D"},
		Edges: []Edge{{U: 0, V: 1, Label: "e"}, {U: 1, V: 2, Label: "e"}}}
	if Canonical(g1) == Canonical(g2) {
		t.Error("different graphs share canonical form")
	}
	// Same shape, different edge label.
	g3 := &Graph{Labels: []string{"P", "D"}, Edges: []Edge{{U: 0, V: 1, Label: "x"}}}
	g4 := &Graph{Labels: []string{"P", "D"}, Edges: []Edge{{U: 0, V: 1, Label: "y"}}}
	if Canonical(g3) == Canonical(g4) {
		t.Error("edge labels ignored")
	}
	// Same shape, different node label.
	g5 := &Graph{Labels: []string{"P", "D"}, Edges: []Edge{{U: 0, V: 1, Label: "x"}}}
	g6 := &Graph{Labels: []string{"P", "U"}, Edges: []Edge{{U: 0, V: 1, Label: "x"}}}
	if Canonical(g5) == Canonical(g6) {
		t.Error("node labels ignored")
	}
}

func TestMultiEdgeDistinguished(t *testing.T) {
	// One edge vs a double edge between the same labeled endpoints.
	g1 := &Graph{Labels: []string{"P", "I"}, Edges: []Edge{{U: 0, V: 1, Label: "i"}}}
	g2 := &Graph{Labels: []string{"P", "I"},
		Edges: []Edge{{U: 0, V: 1, Label: "i"}, {U: 0, V: 1, Label: "i"}}}
	if Canonical(g1) == Canonical(g2) {
		t.Error("multi-edge not distinguished")
	}
}

func TestT3VsT4(t *testing.T) {
	// The paper's T3 and T4 (Figure 5): both are the union of a PUD
	// path and a PUPD path, differing only in whether the Unigene is
	// shared. They must canonicalize differently.
	// T3: shared unigene.
	t3 := &Graph{
		Labels: []string{"Protein", "Unigene", "DNA", "Protein"},
		Edges: []Edge{
			{U: 0, V: 1, Label: "uni_encodes"},
			{U: 1, V: 2, Label: "uni_contains"},
			{U: 1, V: 3, Label: "uni_encodes"},
			{U: 3, V: 2, Label: "encodes"},
		},
	}
	// T4: two disjoint unigenes.
	t4 := &Graph{
		Labels: []string{"Protein", "Unigene", "DNA", "Protein", "Unigene"},
		Edges: []Edge{
			{U: 0, V: 1, Label: "uni_encodes"},
			{U: 1, V: 2, Label: "uni_contains"},
			{U: 0, V: 4, Label: "uni_encodes"},
			{U: 4, V: 3, Label: "uni_encodes"},
			{U: 3, V: 2, Label: "encodes"},
		},
	}
	if Canonical(t3) == Canonical(t4) {
		t.Error("T3 and T4 share canonical form")
	}
}

func TestPermutationInvarianceQuick(t *testing.T) {
	nodeLabels := []string{"P", "D", "U", "I"}
	edgeLabels := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		g := &Graph{Labels: make([]string, n)}
		for i := range g.Labels {
			g.Labels[i] = nodeLabels[rng.Intn(len(nodeLabels))]
		}
		m := rng.Intn(2 * n)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			g.Edges = append(g.Edges, Edge{U: u, V: v, Label: edgeLabels[rng.Intn(len(edgeLabels))]})
		}
		h := permute(g, randPerm(rng, n))
		return Canonical(g) == Canonical(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIsoQuickNegatives(t *testing.T) {
	// Adding one edge to a graph must break isomorphism (edge counts differ).
	g := pathGraph([]string{"P", "U", "D"}, []string{"a", "b"})
	h := pathGraph([]string{"P", "U", "D"}, []string{"a", "b"})
	h.Edges = append(h.Edges, Edge{U: 0, V: 2, Label: "c"})
	if Iso(g, h) {
		t.Error("Iso ignored edge count")
	}
	if !Iso(g, permute(g, []int{2, 0, 1})) {
		t.Error("Iso rejected a permutation")
	}
	if Iso(g, pathGraph([]string{"P", "U"}, []string{"a"})) {
		t.Error("Iso ignored node count")
	}
}

func TestRegularGraphNeedsBranching(t *testing.T) {
	// A 6-cycle with all-same labels: colour refinement alone cannot
	// make the partition discrete, so this exercises the branching path.
	cycle := func(order []int) *Graph {
		g := &Graph{Labels: []string{"X", "X", "X", "X", "X", "X"}}
		for i := 0; i < 6; i++ {
			g.Edges = append(g.Edges, Edge{U: order[i], V: order[(i+1)%6], Label: "e"})
		}
		return g
	}
	c1 := cycle([]int{0, 1, 2, 3, 4, 5})
	c2 := cycle([]int{3, 1, 4, 0, 5, 2})
	if Canonical(c1) != Canonical(c2) {
		t.Error("relabeled 6-cycles differ")
	}
	// Two triangles vs a 6-cycle: same degree sequence, not isomorphic.
	twoTri := &Graph{Labels: []string{"X", "X", "X", "X", "X", "X"}}
	for _, tri := range [][3]int{{0, 1, 2}, {3, 4, 5}} {
		twoTri.Edges = append(twoTri.Edges,
			Edge{U: tri[0], V: tri[1], Label: "e"},
			Edge{U: tri[1], V: tri[2], Label: "e"},
			Edge{U: tri[2], V: tri[0], Label: "e"})
	}
	if Canonical(c1) == Canonical(twoTri) {
		t.Error("6-cycle and 2x triangle share canonical form")
	}
}

func TestIsPath(t *testing.T) {
	cases := []struct {
		g    *Graph
		want bool
	}{
		{&Graph{}, false},
		{&Graph{Labels: []string{"P"}}, true},
		{pathGraph([]string{"P", "D"}, []string{"e"}), true},
		{pathGraph([]string{"P", "U", "D"}, []string{"a", "b"}), true},
		// Triangle: not a path.
		{&Graph{Labels: []string{"A", "B", "C"}, Edges: []Edge{
			{U: 0, V: 1, Label: "e"}, {U: 1, V: 2, Label: "e"}, {U: 2, V: 0, Label: "e"}}}, false},
		// Star with 3 leaves: not a path.
		{&Graph{Labels: []string{"A", "B", "C", "D"}, Edges: []Edge{
			{U: 0, V: 1, Label: "e"}, {U: 0, V: 2, Label: "e"}, {U: 0, V: 3, Label: "e"}}}, false},
		// Disconnected: edge + isolated node has n-1 edges? No: 2 nodes
		// 1 edge + 1 isolated = 3 nodes, 1 edge != n-1, rejected.
		{&Graph{Labels: []string{"A", "B", "C"}, Edges: []Edge{{U: 0, V: 1, Label: "e"}}}, false},
		// Two disjoint edges + one more to make edge count n-1 but disconnected:
		// nodes {A,B,C,D}, edges A-B, A-B, C-D: degree check rejects.
		{&Graph{Labels: []string{"A", "B", "C", "D"}, Edges: []Edge{
			{U: 0, V: 1, Label: "e"}, {U: 0, V: 1, Label: "e"}, {U: 2, V: 3, Label: "e"}}}, false},
	}
	for i, c := range cases {
		if got := c.g.IsPath(); got != c.want {
			t.Errorf("case %d: IsPath = %v, want %v", i, got, c.want)
		}
	}
}

func BenchmarkCanonicalPath3(b *testing.B) {
	g := pathGraph([]string{"Protein", "Unigene", "Protein", "DNA"},
		[]string{"uni_encodes", "uni_encodes", "encodes"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Canonical(g)
	}
}

func BenchmarkCanonicalDense8(b *testing.B) {
	g := &Graph{Labels: []string{"X", "X", "X", "X", "X", "X", "X", "X"}}
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if (i+j)%2 == 0 {
				g.Edges = append(g.Edges, Edge{U: i, V: j, Label: "e"})
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Canonical(g)
	}
}
