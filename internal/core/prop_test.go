package core_test

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/graph"
)

// randomGraph builds a small random database.
func randomGraph(seed int64) (*graph.Graph, *graph.SchemaGraph, error) {
	cfg := biozon.GenConfig{
		Seed:     seed,
		Proteins: 40, DNAs: 50, Unigenes: 25, Interactions: 20,
		Families: 10, Pathways: 5, Structures: 10,
		Encodes: 60, UniEncodes: 70, UniContains: 65,
		PInteract: 50, DInteract: 30, Belongs: 40, Manifest: 20, PathElements: 10,
		Skew: 1.3, MaxDegree: 12, SelfRegulating: 2, Triangles: 3,
	}
	sg := biozon.SchemaGraph()
	g, err := graph.Build(biozon.Generate(cfg), sg)
	return g, sg, err
}

// randomEnv computes Protein-DNA topologies for a small random
// database.
func randomEnv(seed int64) (*core.Result, *graph.Graph, error) {
	g, sg, err := randomGraph(seed)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Compute(context.Background(), g, sg, [][2]string{{biozon.Protein, biozon.DNA}}, core.DefaultOptions())
	return res, g, err
}

// TestPropPruningLossless: for every pruning threshold, the pruned
// representation (LeftTops + per-pruned-topology path condition minus
// exceptions) reconstructs the AllTops relation exactly. This is the
// correctness contract of Section 4.2.2.
func TestPropPruningLossless(t *testing.T) {
	check := func(seedRaw uint8, thrRaw uint8) bool {
		res, _, err := randomEnv(int64(seedRaw))
		if err != nil {
			t.Fatalf("env: %v", err)
		}
		pd := res.Pair(biozon.Protein, biozon.DNA)
		thr := int(thrRaw % 8)
		pr := res.Prune(thr)
		pp := pr.Pair(biozon.Protein, biozon.DNA)

		type pairTop struct {
			a, b graph.NodeID
			tid  core.TopologyID
		}
		want := map[pairTop]bool{}
		for _, e := range pd.Entries {
			want[pairTop{e.A, e.B, e.TID}] = true
		}
		got := map[pairTop]bool{}
		for _, e := range pp.Left {
			got[pairTop{e.A, e.B, e.TID}] = true
		}
		// Reconstruct each pruned topology: every pair whose class set
		// contains the pruned signature and that is not excepted.
		excp := map[pairTop]bool{}
		for _, e := range pp.Excp {
			excp[pairTop{e.A, e.B, e.TID}] = true
		}
		for _, tid := range pp.PrunedTIDs {
			sig := res.Reg.Info(tid).Sigs[0]
			for _, e := range pd.Entries {
				// Consider each related pair once.
				key := pairTop{e.A, e.B, tid}
				if got[key] || excp[key] {
					continue
				}
				if sigIn(sig, pd.ClassSet(e.A, e.B)) {
					got[key] = true
				}
			}
		}
		if len(got) != len(want) {
			t.Logf("seed=%d thr=%d: reconstructed %d entries, want %d", seedRaw, thr, len(got), len(want))
			return false
		}
		for k := range want {
			if !got[k] {
				t.Logf("seed=%d thr=%d: missing %v", seedRaw, thr, k)
				return false
			}
		}
		for k := range got {
			if !want[k] {
				t.Logf("seed=%d thr=%d: spurious %v", seedRaw, thr, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

func sigIn(s graph.PathSig, set []graph.PathSig) bool {
	for _, x := range set {
		if x == s {
			return true
		}
	}
	return false
}

// TestPropTopologyInvariants: every topology registered for the
// Protein-DNA pair contains at least one Protein and one DNA node, has
// as many class signatures as the pair computations used, and
// single-class pairs always produce exactly one (path-shaped, when the
// class is a path) topology.
func TestPropTopologyInvariants(t *testing.T) {
	check := func(seedRaw uint8) bool {
		res, _, err := randomEnv(int64(seedRaw))
		if err != nil {
			t.Fatalf("env: %v", err)
		}
		for _, info := range res.Reg.All() {
			hasP, hasD := false, false
			for _, l := range info.Graph.Labels {
				if l == biozon.Protein {
					hasP = true
				}
				if l == biozon.DNA {
					hasD = true
				}
			}
			if !hasP || !hasD {
				t.Logf("topology %d lacks endpoints: %s", info.ID, info.Canon)
				return false
			}
			if len(info.Sigs) == 0 {
				t.Logf("topology %d has no class signatures", info.ID)
				return false
			}
			if info.IsPath && len(info.Sigs) != 1 {
				t.Logf("path topology %d claims %d classes", info.ID, len(info.Sigs))
				return false
			}
		}
		pd := res.Pair(biozon.Protein, biozon.DNA)
		perPair := map[[2]graph.NodeID][]core.TopologyID{}
		for _, e := range pd.Entries {
			perPair[[2]graph.NodeID{e.A, e.B}] = append(perPair[[2]graph.NodeID{e.A, e.B}], e.TID)
		}
		for pair, tids := range perPair {
			classes := pd.ClassSet(pair[0], pair[1])
			if len(classes) == 1 && len(tids) != 1 {
				t.Logf("single-class pair %v has %d topologies", pair, len(tids))
				return false
			}
			// Every topology of the pair must union exactly
			// len(classes) signatures.
			for _, tid := range tids {
				if len(res.Reg.Info(tid).Sigs) != len(classes) {
					t.Logf("pair %v topology %d: %d sigs vs %d classes",
						pair, tid, len(res.Reg.Info(tid).Sigs), len(classes))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// TestPropFrequencyConsistency: freq(T) equals the number of distinct
// pairs related by T, and the sum of frequencies equals the number of
// AllTops entries.
func TestPropFrequencyConsistency(t *testing.T) {
	check := func(seedRaw uint8) bool {
		res, _, err := randomEnv(int64(seedRaw))
		if err != nil {
			t.Fatalf("env: %v", err)
		}
		pd := res.Pair(biozon.Protein, biozon.DNA)
		counts := map[core.TopologyID]int{}
		for _, e := range pd.Entries {
			counts[e.TID]++
		}
		total := 0
		for tid, f := range pd.Freq {
			if counts[tid] != f {
				t.Logf("freq(%d) = %d but %d entries", tid, f, counts[tid])
				return false
			}
			total += f
		}
		return total == len(pd.Entries)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// TestPropWitnessAgreesWithEntries: for a sample of recorded
// (pair, topology) entries, WitnessFor must find a realizing set of
// paths whose union has the right structure.
func TestPropWitnessAgreesWithEntries(t *testing.T) {
	res, g, err := randomEnv(11)
	if err != nil {
		t.Fatal(err)
	}
	pd := res.Pair(biozon.Protein, biozon.DNA)
	checked := 0
	for _, e := range pd.Entries {
		if checked >= 25 {
			break
		}
		checked++
		w, ok := core.WitnessFor(g, res.Reg, e.A, e.B, e.TID, res.Opts)
		if !ok {
			t.Errorf("no witness for recorded entry %+v", e)
			continue
		}
		if len(w.Paths) != len(res.Reg.Info(e.TID).Sigs) {
			t.Errorf("witness for %+v has %d paths, want %d",
				e, len(w.Paths), len(res.Reg.Info(e.TID).Sigs))
		}
		for _, p := range w.Paths {
			if p.Start() != e.A && p.End() != e.A && p.Start() != e.B && p.End() != e.B {
				t.Errorf("witness path does not touch the endpoints: %+v", p)
			}
		}
	}
	if checked == 0 {
		t.Skip("no entries to check")
	}
}

// TestPropDescribeStable: canonical structure renderings are parseable
// and deterministic across recomputation.
func TestPropDescribeStable(t *testing.T) {
	res1, _, err := randomEnv(5)
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := randomEnv(5)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Reg.Len() != res2.Reg.Len() {
		t.Fatalf("recomputation changed topology count: %d vs %d", res1.Reg.Len(), res2.Reg.Len())
	}
	for i := 0; i < res1.Reg.Len(); i++ {
		a := res1.Reg.Info(core.TopologyID(i))
		b := res2.Reg.Info(core.TopologyID(i))
		if a.Canon != b.Canon {
			t.Errorf("topology %d differs across recomputation", i)
		}
		if !strings.Contains(a.Describe(), ";") {
			t.Errorf("describe missing separator: %q", a.Describe())
		}
	}
}
