package core

import (
	"context"
	"testing"

	"toposearch/internal/biozon"
	"toposearch/internal/canon"
	"toposearch/internal/graph"
)

func figure3Graph(tb testing.TB) *graph.Graph {
	tb.Helper()
	g, err := graph.Build(biozon.Figure3DB(), biozon.SchemaGraph())
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return g
}

// pathsBetween returns one path per class of (a, b), classes in
// signature order.
func pathsBetween(g *graph.Graph, a, b graph.NodeID) ([]graph.Path, []graph.PathSig) {
	sigs, reps := classReps(PathClasses(g, a, b, 3), DefaultOptions())
	paths := make([]graph.Path, len(reps))
	for i, r := range reps {
		paths[i] = r[0]
	}
	return paths, sigs
}

// TestUnionSharesNodesAndEdges unions l2 (78-103-215) and l6
// (78-103-34-215) of the paper's Figure 3: the shared Unigene 103 must
// appear once and the shared relationship 78-103 once, giving T3, and
// the snapshot must not alias the scratch.
func TestUnionSharesNodesAndEdges(t *testing.T) {
	g := figure3Graph(t)
	u := newUnions(g)
	var l2, l6 graph.Path
	for _, ps := range PathClasses(g, biozon.P78, biozon.D215, 3) {
		for _, p := range ps {
			if len(p.Nodes) < 3 || p.Nodes[1] != biozon.U103 {
				continue
			}
			if len(p.Nodes) == 3 {
				l2 = p
			} else if p.Nodes[2] == biozon.P34 {
				l6 = p
			}
		}
	}
	if l2.Nodes == nil || l6.Nodes == nil {
		t.Fatal("paths l2 and l6 not found in the Figure 3 database")
	}
	u.assemble([]graph.Path{l2, l6})
	got := u.graph()
	if got.NumNodes() != 4 || got.NumEdges() != 4 {
		t.Fatalf("union has %d nodes and %d edges, want 4 and 4", got.NumNodes(), got.NumEdges())
	}
	t3 := &canon.Graph{
		Labels: []string{"Protein", "Unigene", "DNA", "Protein"},
		Edges: []canon.Edge{
			{U: 0, V: 1, Label: "uni_encodes"},
			{U: 1, V: 2, Label: "uni_contains"},
			{U: 1, V: 3, Label: "uni_encodes"},
			{U: 3, V: 2, Label: "encodes"},
		},
	}
	if c := u.canonical(); c != canon.Canonical(t3) {
		t.Errorf("union of l2 and l6 is not T3: %q", c)
	}
	want := canon.Canonical(got)
	u.assemble([]graph.Path{l6})
	if canon.Canonical(got) != want {
		t.Error("graph snapshot changed when the scratch was reused")
	}
}

// TestUnionKeyExact checks the memo key on hand-built unions: graphs
// that differ in one label, one endpoint or one edge type, or whose
// numbers would run together without delimiting (node 1 then 12
// against 11 then 2; indices past the one-byte varint range), must not
// share a key, and the same graph must.
func TestUnionKeyExact(t *testing.T) {
	key := func(types []graph.TypeID, edges []unionEdge) string {
		u := &unions{types: types, edges: edges}
		return string(u.shapeKey())
	}
	many := make([]graph.TypeID, 300)
	cases := []struct {
		types []graph.TypeID
		edges []unionEdge
	}{
		{[]graph.TypeID{0, 1}, []unionEdge{{0, 1, 0}}},
		{[]graph.TypeID{0, 2}, []unionEdge{{0, 1, 0}}},
		{[]graph.TypeID{0, 1}, []unionEdge{{0, 1, 1}}},
		{[]graph.TypeID{0, 1}, []unionEdge{{1, 1, 0}}},
		{[]graph.TypeID{0, 1}, []unionEdge{{0, 1, 0}, {0, 1, 0}}},
		{[]graph.TypeID{0, 1, 0}, []unionEdge{{0, 1, 0}}},
		{[]graph.TypeID{0}, []unionEdge{{0, 0, 1}, {0, 0, 0}}},
		{[]graph.TypeID{0, 1, 0}, nil},
		{[]graph.TypeID{1, 12}, nil},
		{[]graph.TypeID{11, 2}, nil},
		{many, []unionEdge{{1, 299, 0}}},
		{many, []unionEdge{{129, 171, 0}}},
		{many, []unionEdge{{1, 43, 2}}},
	}
	seen := map[string]int{}
	for i, c := range cases {
		k := key(c.types, c.edges)
		if j, dup := seen[k]; dup {
			t.Errorf("cases %d and %d share key %x", j, i, k)
		}
		seen[k] = i
		if key(c.types, c.edges) != k {
			t.Errorf("case %d: key not reproducible", i)
		}
	}
}

// BenchmarkRegisterUnion times one union registration on the paper's
// T3/T4 pair: answered by the shape memo, and with the memo missing so
// that the canonicalizer runs.
func BenchmarkRegisterUnion(b *testing.B) {
	g := figure3Graph(b)
	paths, sigs := pathsBetween(g, biozon.P78, biozon.D215)
	run := func(b *testing.B) {
		u, reg := newUnions(g), NewRegistry()
		u.register(reg, paths, sigs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u.register(reg, paths, sigs)
		}
	}
	b.Run("hit", run)
	b.Run("miss", func(b *testing.B) {
		memoOff = true
		defer func() { memoOff = false }()
		run(b)
	})
}

// BenchmarkComputeStart times the per-start-node work unit of the
// offline phase — path materialization, class grouping, union
// registration — over every Protein of the scale-1 synthetic database
// on one worker.
func BenchmarkComputeStart(b *testing.B) {
	sg := biozon.SchemaGraph()
	g, err := graph.Build(biozon.Generate(biozon.DefaultConfig(1)), sg)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Parallelism = 1
	schemaPaths, err := sg.EnumeratePaths(biozon.Protein, biozon.DNA, opts.MaxLen)
	if err != nil {
		b.Fatal(err)
	}
	pt, _ := g.NodeTypes.Lookup(biozon.Protein)
	starts := g.NodesOfType(pt)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var stats canonStats
		if _, err := runStarts(context.Background(), g, sg, starts, schemaPaths, false, opts, &stats); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(starts)), "starts/op")
}
