package toposearch_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"toposearch"
)

// TestCacheFootprintConcurrentSearchRefreshHammer races
// entity-partitioned work against live batch application, incremental
// refreshes and compactions (run under -race in CI): scan methods cut
// the driving entity scan into one window per query worker, and the
// result cache keys every entry's dependency footprint by the weighted
// entity buckets the refresh invalidates through. Every query must keep
// succeeding on one consistent store generation, and afterwards the
// cached, windowed searcher must answer exactly as a fresh sequential
// searcher with the cache off.
func TestCacheFootprintConcurrentSearchRefreshHammer(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	db.SetAutoCompact(0.25)
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048,
		Parallelism: 4, CacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	queries := []toposearch.SearchQuery{
		{K: 5, Method: "fast-top-k", Cons1: []toposearch.Constraint{{Column: "desc", Keyword: "kwsel50"}}},
		{Method: "full-top"},
		{K: 8, Method: "full-top-k", Cons2: []toposearch.Constraint{{Column: "type", Equals: "mRNA"}}},
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := queries[w%len(queries)]
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.SearchContext(ctx, q)
				if err != nil {
					t.Errorf("windowed search during live update: %v", err)
					return
				}
				if len(res.Topologies) == 0 {
					t.Error("windowed search returned no topologies during live update")
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		p := int64(1_970_000 + i)
		d := int64(2_970_000 + i)
		ups := []toposearch.Update{
			toposearch.InsertEntity(toposearch.Protein, p, map[string]string{"desc": fmt.Sprintf("hammer protein %d kwsel50", i)}),
			toposearch.InsertEntity(toposearch.DNA, d, map[string]string{"type": "mRNA", "desc": "hammer dna kwsel50"}),
			toposearch.InsertRelationship("encodes", p, d),
			toposearch.InsertRelationship("encodes", p, int64(2_000_000+i)),
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

	fresh, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, Parallelism: 1, CacheBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, q := range queries {
		want, err := fresh.SearchContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.SearchContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(want.Topologies) != fmt.Sprint(got.Topologies) {
			t.Fatalf("%s diverges from a fresh sequential build after the hammer:\n got %v\nwant %v", q.Method, got.Topologies, want.Topologies)
		}
	}
}
