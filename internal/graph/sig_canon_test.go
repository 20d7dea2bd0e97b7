package graph_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"toposearch/internal/biozon"
	"toposearch/internal/canon"
	"toposearch/internal/graph"
)

// pathToCanon converts an instance path into a labeled graph for the
// general canonicalizer.
func pathToCanon(g *graph.Graph, p graph.Path) *canon.Graph {
	out := &canon.Graph{}
	for i, n := range p.Nodes {
		t, _ := g.NodeType(n)
		out.Labels = append(out.Labels, g.NodeTypes.Name(t))
		if i > 0 {
			out.Edges = append(out.Edges, canon.Edge{U: i - 1, V: i, Label: g.EdgeTypes.Name(p.Types[i-1])})
		}
	}
	return out
}

// TestSignatureEquivalentToCanonicalForm validates the claim behind
// Definition 1's fast path: for simple paths, equality of the
// direction-normalized type signature coincides with labeled-graph
// isomorphism as decided by the general canonicalizer.
func TestSignatureEquivalentToCanonicalForm(t *testing.T) {
	db := biozon.Generate(biozon.DefaultConfig(1))
	g, err := graph.Build(db, biozon.SchemaGraph())
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := g.NodeTypes.Lookup(biozon.Protein)
	proteins := g.NodesOfType(pt)

	// Collect a pool of paths from random proteins to anywhere.
	var paths []graph.Path
	rng := rand.New(rand.NewSource(3))
	for len(paths) < 60 {
		a := proteins[rng.Intn(len(proteins))]
		dt, _ := g.NodeTypes.Lookup(biozon.DNA)
		dnas := g.NodesOfType(dt)
		b := dnas[rng.Intn(len(dnas))]
		g.SimplePaths(a, b, 3, func(p graph.Path) bool {
			paths = append(paths, p.Clone())
			return len(paths) < 60
		})
	}
	if len(paths) < 2 {
		t.Skip("not enough paths")
	}

	check := func(iRaw, jRaw uint8) bool {
		i := int(iRaw) % len(paths)
		j := int(jRaw) % len(paths)
		pi, pj := paths[i], paths[j]
		sigEq := g.Signature(pi) == g.Signature(pj)
		isoEq := canon.Iso(pathToCanon(g, pi), pathToCanon(g, pj))
		if sigEq != isoEq {
			t.Logf("paths %d and %d: sig-equal=%v iso=%v (sigs %q vs %q)",
				i, j, sigEq, isoEq, g.Signature(pi), g.Signature(pj))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
