// Randomized cache-equivalence harness: a cached searcher and an
// uncached one over the same live database must return byte-identical
// topologies under any interleaving of Search, ApplyBatch and Refresh —
// including results served from carried-forward entries after a
// frontier-scoped invalidation pass. CI runs it via -run CacheEquiv
// and races the hammer variant under -race.
package toposearch_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"toposearch"
	"toposearch/internal/methods"
)

// cacheQueryPool is a deterministic query mix spanning unconstrained,
// keyword- and equality-constrained queries, top-k and full results,
// and explicit method overrides. Every entry resolves to a
// deterministic result, so cached and uncached searchers can be
// compared after each call.
func cacheQueryPool() []toposearch.SearchQuery {
	kw := func(k string) []toposearch.Constraint {
		return []toposearch.Constraint{{Column: "desc", Keyword: k}}
	}
	return []toposearch.SearchQuery{
		{},
		{K: 5},
		{K: 3, Ranking: toposearch.RankFreq},
		{K: 10, Method: "full-top-k-et", Cons1: kw("kwsel15")},
		{K: 5, Cons1: kw("kwsel50"), Cons2: []toposearch.Constraint{{Column: "type", Equals: "mRNA"}}},
		{Method: "fast-top", Cons1: kw("kwsel85")},
		{K: 8, Ranking: toposearch.RankRare, Cons1: kw("kwsel15")},
	}
}

func mustSearch(t *testing.T, s *toposearch.Searcher, q toposearch.SearchQuery) *toposearch.SearchResult {
	t.Helper()
	res, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCacheEquivalenceRandomized(t *testing.T) {
	seeds := []int64{5, 77}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db, err := toposearch.Synthetic(1, seed)
			if err != nil {
				t.Fatal(err)
			}
			base := toposearch.SearcherConfig{
				MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, Parallelism: 2,
			}
			cachedCfg := base // default-on 64 MiB cache
			uncachedCfg := base
			uncachedCfg.CacheBytes = -1
			// A deliberately tiny cache joins the comparison so the
			// capacity-eviction path is exercised by the same oracle.
			tinyCfg := base
			tinyCfg.CacheBytes = 16 << 10
			cached, err := db.NewSearcher(toposearch.Protein, toposearch.DNA, cachedCfg)
			if err != nil {
				t.Fatal(err)
			}
			uncached, err := db.NewSearcher(toposearch.Protein, toposearch.DNA, uncachedCfg)
			if err != nil {
				t.Fatal(err)
			}
			tiny, err := db.NewSearcher(toposearch.Protein, toposearch.DNA, tinyCfg)
			if err != nil {
				t.Fatal(err)
			}
			pool := cacheQueryPool()
			var lastPair [2]int64
			nextID := int64(0)
			for op := 0; op < 24; op++ {
				switch rng.Intn(4) {
				case 0, 1:
					q := pool[rng.Intn(len(pool))]
					want := mustSearch(t, uncached, q)
					// Twice on the cached searchers: first call may miss,
					// the second must hit the freshly stored entry.
					for rep := 0; rep < 2; rep++ {
						for name, s := range map[string]*toposearch.Searcher{"cached": cached, "tiny": tiny} {
							got := mustSearch(t, s, q)
							if fmt.Sprint(got.Topologies) != fmt.Sprint(want.Topologies) {
								t.Fatalf("op %d rep %d: %s searcher diverges for %+v:\n got %v\nwant %v",
									op, rep, name, q, got.Topologies, want.Topologies)
							}
						}
					}
				case 2:
					i := nextID
					nextID++
					var ups []toposearch.Update
					switch rng.Intn(3) {
					case 0: // generic growth: new pair wired into existing hubs
						p, d := 1_900_000+i, 2_900_000+i
						ups = []toposearch.Update{
							toposearch.InsertEntity(toposearch.Protein, p, map[string]string{"desc": fmt.Sprintf("growth protein %d kwsel50", i)}),
							toposearch.InsertEntity(toposearch.DNA, d, map[string]string{"type": "mRNA", "desc": "growth dna kwsel85"}),
							toposearch.InsertRelationship("encodes", p, d),
							toposearch.InsertRelationship("encodes", p, 2_000_000+i%40),
						}
						lastPair = [2]int64{p, d}
					case 1: // entity-only batch (shallow refresh path)
						ups = []toposearch.Update{
							toposearch.InsertEntity(toposearch.Protein, 1_920_000+i, map[string]string{"desc": "isolated protein"}),
						}
					case 2: // redundant parallel edge: zero frequency drift
						if lastPair == ([2]int64{}) {
							p, d := 1_900_000+i, 2_900_000+i
							ups = []toposearch.Update{
								toposearch.InsertEntity(toposearch.Protein, p, map[string]string{"desc": "island protein"}),
								toposearch.InsertEntity(toposearch.DNA, d, map[string]string{"type": "gene", "desc": "island dna"}),
								toposearch.InsertRelationship("encodes", p, d),
							}
							lastPair = [2]int64{p, d}
						} else {
							ups = []toposearch.Update{
								toposearch.InsertRelationship("encodes", lastPair[0], lastPair[1]),
							}
						}
					}
					if err := db.ApplyBatch(ups); err != nil {
						t.Fatal(err)
					}
				case 3:
					for _, s := range []*toposearch.Searcher{cached, uncached, tiny} {
						if _, err := s.Refresh(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			// Quiesce and sweep the whole pool one last time: every entry
			// still resident (carried forward or not) must agree with the
			// uncached oracle.
			for _, s := range []*toposearch.Searcher{cached, uncached, tiny} {
				if _, err := s.Refresh(); err != nil {
					t.Fatal(err)
				}
			}
			for qi, q := range pool {
				want := mustSearch(t, uncached, q)
				for name, s := range map[string]*toposearch.Searcher{"cached": cached, "tiny": tiny} {
					got := mustSearch(t, s, q)
					if fmt.Sprint(got.Topologies) != fmt.Sprint(want.Topologies) {
						t.Fatalf("final sweep q%d: %s searcher diverges:\n got %v\nwant %v",
							qi, name, got.Topologies, want.Topologies)
					}
				}
			}
			if st := cached.CacheStats(); st.Hits == 0 {
				t.Errorf("cached searcher never hit: %+v", st)
			}
			// The exact counters pin which entries each refresh carried
			// forward: a change to the footprint partition that keeps
			// every answer right but moves a bucket boundary fails here.
			got := cached.CacheStats()
			got.Evictions, got.Flushes, got.SkippedStale = 0, 0, 0
			if want := wantCachedStats[seed]; got != want {
				t.Errorf("cached searcher counters %+v, want %+v", got, want)
			}
		})
	}
}

// wantCachedStats is TestCacheEquivalenceRandomized's cached searcher's
// final CacheStats per seed (evictions, flushes and stale skips aside).
var wantCachedStats = map[int64]methods.CacheStats{
	5:  {Hits: 24, Misses: 11, Invalidated: 3, CarriedForward: 0, Entries: 7, Bytes: 81466},
	77: {Hits: 21, Misses: 18, Invalidated: 9, CarriedForward: 1, Entries: 7, Bytes: 82187},
}

// TestCacheCarriedForward pins the frontier-scoped invalidation
// behavior: a query whose footprint is disjoint from an update's dirty
// start set must keep its cache entry across Refresh (served as a hit
// in the new generation), while the whole pipeline stays byte-identical
// to an uncached searcher.
func TestCacheCarriedForward(t *testing.T) {
	db, err := toposearch.Synthetic(1, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := toposearch.SearcherConfig{MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, Parallelism: 2}
	cached, err := db.NewSearcher(toposearch.Protein, toposearch.DNA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uncfg := cfg
	uncfg.CacheBytes = -1
	uncached, err := db.NewSearcher(toposearch.Protein, toposearch.DNA, uncfg)
	if err != nil {
		t.Fatal(err)
	}
	q := toposearch.SearchQuery{K: 5, Cons1: []toposearch.Constraint{{Column: "desc", Keyword: "kwsel15"}}}
	check := func(stage string, wantHit bool) {
		t.Helper()
		want := mustSearch(t, uncached, q)
		got := mustSearch(t, cached, q)
		if fmt.Sprint(got.Topologies) != fmt.Sprint(want.Topologies) {
			t.Fatalf("%s: cached diverges:\n got %v\nwant %v", stage, got.Topologies, want.Topologies)
		}
		if got.CacheHit != wantHit {
			t.Fatalf("%s: CacheHit = %v, want %v (stats %+v)", stage, got.CacheHit, wantHit, cached.CacheStats())
		}
	}
	check("cold", false)
	check("warm", true)

	// An isolated island pair: the only affected start is the new
	// protein, whose desc does not match the query's keyword, and the
	// parallel second edge below drifts no topology frequency.
	p, d := int64(1_950_001), int64(2_950_001)
	if err := db.ApplyBatch([]toposearch.Update{
		toposearch.InsertEntity(toposearch.Protein, p, map[string]string{"desc": "island protein"}),
		toposearch.InsertEntity(toposearch.DNA, d, map[string]string{"type": "gene", "desc": "island dna"}),
		toposearch.InsertRelationship("encodes", p, d),
	}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*toposearch.Searcher{cached, uncached} {
		if _, err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	// The island's new encodes pair drifted the direct-encodes
	// topology's frequency, so the kwsel15 entry was (correctly)
	// invalidated: repopulate it in this generation.
	check("after island", false)
	check("after island warm", true)

	// A parallel duplicate of the island edge: same path class, so no
	// pair's class set and no topology frequency changes — the refresh
	// must reuse every table and carry the entry forward.
	if err := db.ApplyBatch([]toposearch.Update{
		toposearch.InsertRelationship("encodes", p, d),
	}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*toposearch.Searcher{cached, uncached} {
		if _, err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	diff := cached.LastRefreshDiff()
	if diff == nil || !diff.TidStable {
		t.Fatalf("parallel-edge refresh: diff = %+v, want stable registry", diff)
	}
	if len(diff.ChangedTIDs) != 0 {
		t.Fatalf("parallel-edge refresh drifted frequencies: %v", diff.ChangedTIDs)
	}
	if !diff.AllTops.Reused() {
		t.Errorf("parallel-edge refresh: AllTops %v, want reused", diff.AllTops)
	}
	check("carried", true)
	st := cached.CacheStats()
	if got := [4]int64{st.Hits, st.Misses, st.Invalidated, st.CarriedForward}; got != [4]int64{3, 2, 1, 1} {
		t.Errorf("hits/misses/invalidated/carried = %v, want [3 2 1 1] (stats %+v)", got, st)
	}
}

// TestCacheConcurrentSearchRefreshHammer races cached searches against
// live batch application, refreshes (generation advances retagging and
// invalidating entries) and capacity evictions from a deliberately tiny
// cache — run under -race in CI.
func TestCacheConcurrentSearchRefreshHammer(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	db.SetAutoCompact(0.25)
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, Parallelism: 4,
		CacheBytes: 32 << 10, // tiny: forces eviction churn under load
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := cacheQueryPool()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := pool[w%len(pool)]
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.SearchContext(ctx, q)
				if err != nil {
					t.Errorf("cached search during live update: %v", err)
					return
				}
				if len(res.Topologies) == 0 {
					t.Error("cached search returned no topologies during live update")
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

	// Quiesced: cached answers must equal a cache-bypassing baseline.
	fresh, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, Parallelism: 4, CacheBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range pool {
		want, err := fresh.SearchContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.SearchContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Topologies) != fmt.Sprint(want.Topologies) {
			t.Fatalf("q%d diverges after hammer:\n got %v\nwant %v", qi, got.Topologies, want.Topologies)
		}
	}
}
