package biozon

import (
	"math"
	"testing"

	"toposearch/internal/graph"
)

func TestSchemaGraphTenPaths(t *testing.T) {
	sg := SchemaGraph()
	paths, err := sg.EnumeratePaths(Protein, DNA, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 10 {
		t.Errorf("P-D schema paths (l<=3) = %d, want 10 (paper, introduction)", len(paths))
	}
}

func TestFigure3DBBuilds(t *testing.T) {
	db := Figure3DB()
	if got := db.MustTable(TabProtein).NumRows(); got != 4 {
		t.Errorf("proteins = %d, want 4", got)
	}
	if got := db.MustTable(TabDNA).NumRows(); got != 3 {
		t.Errorf("DNAs = %d, want 3", got)
	}
	if got := db.MustTable(TabUniEncodes).NumRows(); got != 5 {
		t.Errorf("uni_encodes rows = %d, want 5", got)
	}
	g, err := graph.Build(db, SchemaGraph())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumNodes() != 11 || g.NumEdges() != 11 {
		t.Errorf("graph = %d nodes/%d edges, want 11/11", g.NumNodes(), g.NumEdges())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(1)
	db1 := Generate(cfg)
	db2 := Generate(cfg)
	for _, name := range db1.TableNames() {
		t1, t2 := db1.MustTable(name), db2.MustTable(name)
		if t1.NumRows() != t2.NumRows() {
			t.Fatalf("table %s: %d vs %d rows", name, t1.NumRows(), t2.NumRows())
		}
		for i := int32(0); i < int32(t1.NumRows()); i++ {
			r1, r2 := t1.Row(i), t2.Row(i)
			for c := range r1 {
				if !r1[c].Equal(r2[c]) {
					t.Fatalf("table %s row %d col %d: %s vs %s", name, i, c, r1[c], r2[c])
				}
			}
		}
	}
}

func TestGenerateCountsAndIDs(t *testing.T) {
	cfg := DefaultConfig(1)
	db := Generate(cfg)
	if got := db.MustTable(TabProtein).NumRows(); got != cfg.Proteins {
		t.Errorf("proteins = %d, want %d", got, cfg.Proteins)
	}
	if got := db.MustTable(TabDNA).NumRows(); got != cfg.DNAs {
		t.Errorf("DNAs = %d, want %d", got, cfg.DNAs)
	}
	// Relationship tables are deduplicated, so counts are upper bounds
	// but must be positive and reference valid entities.
	enc := db.MustTable(TabEncodes)
	if enc.NumRows() == 0 || enc.NumRows() > cfg.Encodes+2*cfg.SelfRegulating+cfg.Triangles {
		t.Errorf("encodes rows = %d out of range", enc.NumRows())
	}
	prot := db.MustTable(TabProtein)
	dna := db.MustTable(TabDNA)
	enc.ScanPos(func(pos int32) bool {
		if p := enc.IntAt(pos, 1); !prot.HasPK(p) {
			t.Errorf("encodes row references unknown protein %d", p)
			return false
		}
		if d := enc.IntAt(pos, 2); !dna.HasPK(d) {
			t.Errorf("encodes row references unknown DNA %d", d)
			return false
		}
		return true
	})
	// The whole thing maps to a graph without errors (IDs unique).
	g, err := graph.Build(db, SchemaGraph())
	if err != nil {
		t.Fatalf("graph build: %v", err)
	}
	wantNodes := cfg.Proteins + cfg.DNAs + cfg.Unigenes + cfg.Interactions +
		cfg.Families + cfg.Pathways + cfg.Structures
	if g.NumNodes() != wantNodes {
		t.Errorf("nodes = %d, want %d", g.NumNodes(), wantNodes)
	}
}

func TestGenerateSelectivities(t *testing.T) {
	db := Generate(DefaultConfig(2))
	prot := db.MustTable(TabProtein)
	for _, c := range []struct {
		level string
		want  float64
	}{
		{"selective", 0.15},
		{"medium", 0.50},
		{"unselective", 0.85},
	} {
		p, err := SelectivityPred(prot.Schema, c.level)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		prot.ScanPos(func(pos int32) bool {
			if p.EvalAt(prot, pos) {
				n++
			}
			return true
		})
		got := float64(n) / float64(prot.NumRows())
		if math.Abs(got-c.want) > 0.06 {
			t.Errorf("%s selectivity = %.3f, want ~%.2f", c.level, got, c.want)
		}
		// The estimator agrees with the measurement.
		if est := p.Sel(prot); math.Abs(est-got) > 0.01 {
			t.Errorf("%s: estimated %.3f vs actual %.3f", c.level, est, got)
		}
	}
	if _, err := SelectivityPred(prot.Schema, "nope"); err == nil {
		t.Error("unknown level accepted")
	}
}

func TestGenerateDegreeCap(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MaxDegree = 10
	db := Generate(cfg)
	g, err := graph.Build(db, SchemaGraph())
	if err != nil {
		t.Fatal(err)
	}
	// Per-relationship degree is capped at MaxDegree (+ planted motifs);
	// total degree across 8 relationship sets stays bounded.
	pt, _ := g.NodeTypes.Lookup(Protein)
	maxDeg := 0
	for _, n := range g.NodesOfType(pt) {
		if d := g.Degree(n); d > maxDeg {
			maxDeg = d
		}
	}
	// A protein participates in 4 relationship sets (encodes,
	// uni_encodes, interaction, belongs, manifest = 5).
	if maxDeg > 5*cfg.MaxDegree+8 {
		t.Errorf("max protein degree = %d, exceeds cap", maxDeg)
	}
}

func TestGenerateZipfSkew(t *testing.T) {
	// Degree distribution should be skewed: the busiest decile of
	// unigenes carries disproportionately many uni_encodes edges.
	db := Generate(DefaultConfig(2))
	ue := db.MustTable(TabUniEncodes)
	deg := map[int64]int{}
	ue.ScanPos(func(pos int32) bool {
		deg[ue.IntAt(pos, 1)]++
		return true
	})
	var degs []int
	for _, d := range deg {
		degs = append(degs, d)
	}
	if len(degs) == 0 {
		t.Fatal("no uni_encodes edges")
	}
	maxd, sum := 0, 0
	for _, d := range degs {
		if d > maxd {
			maxd = d
		}
		sum += d
	}
	avg := float64(sum) / float64(len(degs))
	if float64(maxd) < 3*avg {
		t.Errorf("max degree %d vs avg %.1f: distribution not skewed", maxd, avg)
	}
}

func TestPlantedMotifs(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.SelfRegulating = 20
	db := Generate(cfg)
	g, err := graph.Build(db, SchemaGraph())
	if err != nil {
		t.Fatal(err)
	}
	// At least one Figure-16 motif must exist: proteins p1,p2 with a
	// common DNA (via encodes) and a common Interaction.
	enc := db.MustTable(TabEncodes)
	byDNA := map[int64][]int64{}
	enc.ScanPos(func(pos int32) bool {
		d := enc.IntAt(pos, 2)
		byDNA[d] = append(byDNA[d], enc.IntAt(pos, 1))
		return true
	})
	pin := db.MustTable(TabPInteract)
	byProt := map[int64]map[int64]bool{}
	pin.ScanPos(func(pos int32) bool {
		p := pin.IntAt(pos, 1)
		if byProt[p] == nil {
			byProt[p] = map[int64]bool{}
		}
		byProt[p][pin.IntAt(pos, 2)] = true
		return true
	})
	found := false
	for _, prots := range byDNA {
		for i := 0; i < len(prots) && !found; i++ {
			for j := i + 1; j < len(prots) && !found; j++ {
				for inter := range byProt[prots[i]] {
					if byProt[prots[j]][inter] {
						found = true
						break
					}
				}
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Error("no Figure-16 motif found despite planting 20")
	}
	_ = g
}
