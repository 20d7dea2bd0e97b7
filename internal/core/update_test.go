package core_test

import (
	"context"
	"reflect"
	"testing"

	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/delta"
	"toposearch/internal/graph"
)

// fingerprint flattens everything observable about a computed pair so
// incremental and from-scratch results can be compared byte for byte:
// the registry's canonical forms in ID order, every Entries row, every
// frequency, and every pair's class-signature set.
func fingerprint(t *testing.T, res *core.Result, es1, es2 string) []string {
	t.Helper()
	var out []string
	for _, info := range res.Reg.All() {
		out = append(out, "reg|"+info.Canon)
	}
	pd := res.Pair(es1, es2)
	if pd == nil {
		return out
	}
	for _, e := range pd.Entries {
		out = append(out, "entry|"+string(rune(e.A))+"|"+string(rune(e.B))+"|"+string(rune(e.TID)))
	}
	ids, freqs := pd.FrequencyRank()
	for i, id := range ids {
		out = append(out, "freq|"+string(rune(id))+"|"+string(rune(freqs[i])))
	}
	seen := map[[2]graph.NodeID]bool{}
	for _, e := range pd.Entries {
		k := [2]graph.NodeID{e.A, e.B}
		if seen[k] {
			continue
		}
		seen[k] = true
		for _, sig := range pd.ClassSet(e.A, e.B) {
			out = append(out, "cls|"+string(rune(e.A))+"|"+string(rune(e.B))+"|"+string(sig))
		}
	}
	return out
}

// growthBatch stages a batch that exercises every update shape: new
// entities on both sides of the pair, edges that touch existing hubs,
// edges incident to the new entities, and a planted triangle (the
// pruning-exception structure).
func growthBatch(offset, n int) delta.Batch {
	var b delta.Batch
	for j := 0; j < n; j++ {
		i := offset + j
		p := int64(biozon.BaseProtein + 900000 + i)
		d := int64(biozon.BaseDNA + 900000 + i)
		u := int64(biozon.BaseUnigene + 900000 + i)
		b = append(b,
			delta.Entity(biozon.Protein, p, map[string]string{"desc": "novel enzyme kwsel50"}),
			delta.Entity(biozon.DNA, d, map[string]string{"type": "mRNA", "desc": "novel dna kwsel50"}),
			delta.Entity(biozon.Unigene, u, map[string]string{"desc": "novel cluster"}),
			// Triangle over the new entities plus links into the old graph.
			delta.Relationship(biozon.RelEncodes, p, d),
			delta.Relationship(biozon.RelUniEncodes, u, p),
			delta.Relationship(biozon.RelUniContains, u, d),
			delta.Relationship(biozon.RelEncodes, p, int64(biozon.BaseDNA+i%40)),
			delta.Relationship(biozon.RelUniEncodes, int64(biozon.BaseUnigene+i%20), int64(biozon.BaseProtein+i%30)),
		)
	}
	return b
}

// TestUpdateResultMatchesRebuild grows a synthetic database twice and
// checks that incremental maintenance — recomputing only the affected
// start-node frontier — produces a Result byte-identical to a full
// from-scratch Compute over the grown graph, at several parallelism
// levels and across chained updates.
func TestUpdateResultMatchesRebuild(t *testing.T) {
	ctx := context.Background()
	const es1, es2 = biozon.Protein, biozon.DNA
	pairs := [][2]string{{es1, es2}}
	cfg := biozon.DefaultConfig(1)
	cfg.Seed = 7

	for _, workers := range []int{1, 2, 4, 8} {
		opts := core.Options{MaxLen: 3, MaxCombinations: 4096, MaxPathsPerClass: 64, Parallelism: workers}
		db := biozon.Generate(cfg)
		sg := biozon.SchemaGraph()
		g, err := graph.Build(db, sg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Compute(ctx, g, sg, pairs, opts)
		if err != nil {
			t.Fatal(err)
		}
		ap := delta.NewApplier(db, sg)
		offset := 0
		for round, size := range []int{3, 8} {
			g2, applied, err := ap.Apply(g, growthBatch(offset, size))
			offset += size
			if err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, round, err)
			}
			if len(applied.Edges) == 0 {
				t.Fatalf("workers=%d round %d: batch applied no edges", workers, round)
			}
			affected := delta.AffectedStarts(g2, es1, opts.MaxLen, applied.Edges)
			if len(affected) == 0 {
				t.Fatalf("workers=%d round %d: no affected starts", workers, round)
			}
			inc, err := core.UpdateResult(ctx, g2, sg, res, es1, es2, affected, opts)
			if err != nil {
				t.Fatal(err)
			}
			full, err := core.Compute(ctx, g2, sg, pairs, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, want := fingerprint(t, inc, es1, es2), fingerprint(t, full, es1, es2)
			if !reflect.DeepEqual(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("workers=%d round %d: incremental diverges from rebuild at element %d/%d vs %d",
					workers, round, i, len(got), len(want))
			}
			// The frontier must be a strict subset of all starts, or the
			// incremental path saved nothing.
			if nstarts := len(g2.NodesOfType(mustType(t, g2, es1))); len(affected) >= nstarts {
				t.Fatalf("workers=%d round %d: affected frontier %d covers all %d starts",
					workers, round, len(affected), nstarts)
			}
			g, res = g2, inc // chain the next round onto the incremental result
		}
	}
}

func mustType(t *testing.T, g *graph.Graph, es string) graph.TypeID {
	t.Helper()
	id, ok := g.NodeTypes.Lookup(es)
	if !ok {
		t.Fatalf("no node type %s", es)
	}
	return id
}

// TestUpdateResultNoEdges checks the degenerate refresh: an empty
// affected frontier (entity-only growth) must reproduce the previous
// result exactly.
func TestUpdateResultNoEdges(t *testing.T) {
	ctx := context.Background()
	const es1, es2 = biozon.Protein, biozon.DNA
	db := biozon.Generate(biozon.DefaultConfig(1))
	sg := biozon.SchemaGraph()
	g, err := graph.Build(db, sg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxLen: 3, MaxCombinations: 4096, MaxPathsPerClass: 64, Parallelism: 2}
	res, err := core.Compute(ctx, g, sg, [][2]string{{es1, es2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.UpdateResult(ctx, g, sg, res, es1, es2, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, inc, es1, es2), fingerprint(t, res, es1, es2); !reflect.DeepEqual(got, want) {
		t.Fatal("empty update diverges from the original result")
	}
}
