// Golden equivalence suite for the live-update subsystem: applying a
// mutation batch to a running Searcher and refreshing incrementally
// must produce byte-identical precomputed tables AND byte-identical
// query results (items, counters, plan choices) to rebuilding the
// whole store from scratch over the grown database — at parallelism 1
// and 8. This is the correctness gate CI runs for incremental
// maintenance (go test -run LiveUpdate).
package toposearch

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"toposearch/internal/methods"
	"toposearch/internal/relstore"
)

// liveBatch stages growth that exercises every maintenance shape: new
// entities on both sides of the pair, a fresh pruning-exception
// triangle, links into existing hubs (shifting topology frequencies
// across the prune threshold), and an ambiguous-by-name "interaction"
// relationship resolved by its endpoints.
func liveBatch() []Update {
	var ups []Update
	for i := 0; i < 6; i++ {
		p := int64(1_900_000 + i)
		d := int64(2_900_000 + i)
		u := int64(3_900_000 + i)
		ups = append(ups,
			InsertEntity(Protein, p, map[string]string{"desc": fmt.Sprintf("novel enzyme %d kwsel50", i)}),
			InsertEntity(DNA, d, map[string]string{"type": "mRNA", "desc": fmt.Sprintf("novel dna %d kwsel50 kwsel85", i)}),
			InsertEntity(Unigene, u, map[string]string{"desc": fmt.Sprintf("novel cluster %d", i)}),
			InsertRelationship("encodes", p, d),
			InsertRelationship("uni_encodes", u, p),
			InsertRelationship("uni_contains", u, d),
			InsertRelationship("encodes", p, int64(2_000_000+i%40)),
			InsertRelationship("uni_encodes", int64(3_000_000+i%20), int64(1_000_000+i%30)),
		)
	}
	// Self-regulation motif touching an existing interaction hub, via
	// the name-ambiguous "interaction" relationship.
	ups = append(ups,
		InsertRelationship("interaction", 1_900_000, 4_000_003),
		InsertRelationship("interaction", 1_900_001, 4_000_003),
		InsertRelationship("interaction", 2_900_000, 4_000_003),
	)
	return ups
}

func dumpLiveTable(t *relstore.Table) string {
	var sb strings.Builder
	sb.WriteString(t.Schema.String())
	sb.WriteByte('\n')
	var r relstore.Row
	t.ScanPos(func(pos int32) bool {
		r = t.AppendRow(r[:0], pos)
		fmt.Fprintf(&sb, "%v\n", r)
		return true
	})
	return sb.String()
}

func liveConfig(workers int) SearcherConfig {
	return SearcherConfig{MaxLen: 3, PruneThreshold: 2, MaxCombinations: 4096, Parallelism: workers}
}

func TestLiveUpdateEquivalenceGolden(t *testing.T) {
	ctx := context.Background()
	batch := liveBatch()
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Live path: build, mutate, refresh incrementally.
			db1, err := Synthetic(1, 42)
			if err != nil {
				t.Fatal(err)
			}
			s1, err := db1.NewSearcherContext(ctx, Protein, DNA, liveConfig(workers))
			if err != nil {
				t.Fatal(err)
			}
			rowsBefore := s1.current().AllTops.NumRows()
			if err := db1.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			edges, err := s1.RefreshContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if edges == 0 {
				t.Fatal("Refresh absorbed no edges")
			}
			db1.Compact()
			if again, err := s1.Refresh(); err != nil || again != 0 {
				t.Fatalf("second Refresh = %d, %v; want 0, nil", again, err)
			}

			// Rebuild path: same final data, offline phase from scratch.
			db2, err := Synthetic(1, 42)
			if err != nil {
				t.Fatal(err)
			}
			if err := db2.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			db2.Compact()
			s2, err := db2.NewSearcherContext(ctx, Protein, DNA, liveConfig(workers))
			if err != nil {
				t.Fatal(err)
			}

			st1, st2 := s1.current(), s2.current()
			if st1.AllTops.NumRows() == rowsBefore {
				t.Fatal("batch did not change AllTops; the equivalence check would be vacuous")
			}
			for _, tb := range []struct {
				name string
				a, b *relstore.Table
			}{
				{"AllTops", st1.AllTops, st2.AllTops},
				{"LeftTops", st1.LeftTops, st2.LeftTops},
				{"ExcpTops", st1.ExcpTops, st2.ExcpTops},
				{"TopInfo", st1.TopInfo, st2.TopInfo},
			} {
				if got, want := dumpLiveTable(tb.a), dumpLiveTable(tb.b); got != want {
					t.Errorf("%s diverges between incremental refresh and rebuild (%d vs %d rows)",
						tb.name, tb.a.NumRows(), tb.b.NumRows())
				}
			}
			if got, want := fmt.Sprint(st1.PrunedTIDs), fmt.Sprint(st2.PrunedTIDs); got != want {
				t.Errorf("pruned TIDs diverge: %s vs %s", got, want)
			}

			// Query results — items, physical counters and plan choices —
			// must match on every method.
			p1, err := relstore.Contains(st1.T1.Schema, "desc", "kwsel50")
			if err != nil {
				t.Fatal(err)
			}
			p2, err := relstore.Eq(st1.T2.Schema, "type", relstore.StrVal("mRNA"))
			if err != nil {
				t.Fatal(err)
			}
			for _, method := range methods.AllMethods() {
				q := methods.Query{Pred1: p1, Pred2: p2, K: 10, Ranking: RankDomain, Parallelism: workers}
				r1, err := st1.Run(method, q)
				if err != nil {
					t.Fatalf("%s on refreshed store: %v", method, err)
				}
				r2, err := st2.Run(method, q)
				if err != nil {
					t.Fatalf("%s on rebuilt store: %v", method, err)
				}
				if !reflect.DeepEqual(r1.Items, r2.Items) {
					t.Errorf("%s: items diverge: %v vs %v", method, r1.Items, r2.Items)
				}
				if r1.Counters != r2.Counters {
					t.Errorf("%s: counters diverge: %+v vs %+v", method, r1.Counters, r2.Counters)
				}
				if r1.Plan != r2.Plan {
					t.Errorf("%s: plan diverges: %s vs %s", method, r1.Plan, r2.Plan)
				}
			}

			// And the public Search surface agrees too.
			sq := SearchQuery{
				Cons1: []Constraint{{Column: "desc", Keyword: "kwsel50"}},
				Cons2: []Constraint{{Column: "type", Equals: "mRNA"}},
				K:     10,
			}
			out1, err := s1.SearchContext(ctx, sq)
			if err != nil {
				t.Fatal(err)
			}
			out2, err := s2.SearchContext(ctx, sq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out1, out2) {
				t.Errorf("public Search results diverge:\n%+v\nvs\n%+v", out1, out2)
			}
		})
	}
}

// TestLiveUpdateParallelEdgeReusesAllTops checks the diff-aware
// materializer on the cheapest edge batch: a parallel duplicate of an
// existing edge adds no path class to any pair, so the refresh carries
// the previous generation's AllTops table over as is.
func TestLiveUpdateParallelEdgeReusesAllTops(t *testing.T) {
	db, err := Synthetic(1, 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcher(Protein, DNA, SearcherConfig{MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, d := int64(1_950_001), int64(2_950_001)
	for _, ups := range [][]Update{
		{
			InsertEntity(Protein, p, map[string]string{"desc": "island protein"}),
			InsertEntity(DNA, d, map[string]string{"type": "gene", "desc": "island dna"}),
			InsertRelationship("encodes", p, d),
		},
		{InsertRelationship("encodes", p, d)},
	} {
		before := s.current()
		if err := db.ApplyBatch(ups); err != nil {
			t.Fatal(err)
		}
		if n, err := s.Refresh(); err != nil || n != 1 {
			t.Fatalf("Refresh = %d, %v; want 1 edge absorbed", n, err)
		}
		after := s.current()
		if after.Gen != before.Gen+1 {
			t.Fatalf("generation %d -> %d, want one step", before.Gen, after.Gen)
		}
		if reused := after.AllTops == before.AllTops; reused != (len(ups) == 1) {
			t.Errorf("batch of %d updates: AllTops reused = %v", len(ups), reused)
		}
	}
}

// TestLiveUpdateConcurrentSearch races searches against batch
// application and incremental refreshes: queries must keep succeeding
// on a consistent store generation throughout (run under -race in CI).
func TestLiveUpdateConcurrentSearch(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	ctx := context.Background()
	db, err := Synthetic(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcherContext(ctx, Protein, DNA, liveConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	sq := SearchQuery{
		Cons1: []Constraint{{Column: "desc", Keyword: "kwsel50"}},
		K:     5,
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.SearchContext(ctx, sq)
				if err != nil {
					t.Errorf("search during live update: %v", err)
					return
				}
				if len(res.Topologies) == 0 {
					t.Error("search returned no topologies during live update")
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		p := int64(1_950_000 + i)
		d := int64(2_950_000 + i)
		ups := []Update{
			InsertEntity(Protein, p, map[string]string{"desc": fmt.Sprintf("live protein %d kwsel50", i)}),
			InsertEntity(DNA, d, map[string]string{"type": "mRNA", "desc": "live dna kwsel50"}),
			InsertRelationship("encodes", p, d),
			InsertRelationship("encodes", p, int64(2_000_000+i)),
		}
		if err := db.ApplyBatch(ups); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RefreshContext(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	db.Compact()

	// Final state matches a from-scratch rebuild of the searcher.
	s2, err := db.NewSearcherContext(ctx, Protein, DNA, liveConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dumpLiveTable(s.current().AllTops), dumpLiveTable(s2.current().AllTops); got != want {
		t.Error("AllTops after concurrent live updates diverges from rebuild")
	}
}

// TestLiveUpdateValidation checks batch atomicity: a batch with any
// invalid mutation must leave the database untouched.
func TestLiveUpdateValidation(t *testing.T) {
	db, err := Synthetic(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	ents, rels := db.NumEntities(), db.NumRelationships()
	cases := []struct {
		name string
		ups  []Update
	}{
		{"duplicate entity", []Update{InsertEntity(Protein, 1_000_000, nil)}},
		{"unknown entity set", []Update{InsertEntity("Genome", 99, nil)}},
		{"unknown attribute", []Update{InsertEntity(Protein, 1_990_000, map[string]string{"nope": "x"})}},
		{"key column via attrs", []Update{InsertEntity(Protein, 1_990_000, map[string]string{"ID": "7"})}},
		{"dangling endpoint", []Update{InsertRelationship("encodes", 1_000_000, 987_654_321)}},
		{"wrong endpoints", []Update{InsertRelationship("encodes", 1_000_000, 3_000_000)}},
		{"unknown relationship", []Update{InsertRelationship("regulates", 1_000_000, 2_000_000)}},
		{"valid then invalid", []Update{
			InsertEntity(Protein, 1_990_001, map[string]string{"desc": "ok"}),
			InsertRelationship("encodes", 1_990_001, 777),
		}},
	}
	for _, c := range cases {
		if err := db.ApplyBatch(c.ups); err == nil {
			t.Errorf("%s: ApplyBatch succeeded, want error", c.name)
		}
		if db.NumEntities() != ents || db.NumRelationships() != rels {
			t.Fatalf("%s: failed batch mutated the database", c.name)
		}
	}
	// Entities staged earlier in a batch are visible to later mutations.
	if err := db.ApplyBatch([]Update{
		InsertEntity(Protein, 1_990_002, map[string]string{"desc": "staged"}),
		InsertEntity(DNA, 2_990_002, map[string]string{"type": "EST", "desc": "staged"}),
		InsertRelationship("encodes", 1_990_002, 2_990_002),
	}); err != nil {
		t.Fatalf("intra-batch reference failed: %v", err)
	}
	if db.NumEntities() != ents+2 || db.NumRelationships() != rels+1 {
		t.Fatal("intra-batch apply has wrong cardinalities")
	}
}
