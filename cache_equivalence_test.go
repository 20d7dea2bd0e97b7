// Randomized cache-equivalence harness: a cached searcher and an
// uncached one over the same live database must return byte-identical
// topologies under any interleaving of Search, ApplyBatch and Refresh.
// CI runs it via -run CacheEquiv and races the hammer variant under
// -race.
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
			// still resident must agree with the uncached oracle.
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
			// The exact counters pin which entries each refresh dropped:
			// a change to the invalidation rule that keeps every answer
			// right but drops more or fewer entries fails here.
			got := cached.CacheStats()
			got.Evictions, got.SkippedStale = 0, 0
			if want := wantCachedStats[seed]; got != want {
				t.Errorf("cached searcher counters %+v, want %+v", got, want)
			}
		})
	}
}

// wantCachedStats is TestCacheEquivalenceRandomized's cached searcher's
// final CacheStats per seed (evictions and stale skips aside).
var wantCachedStats = map[int64]methods.CacheStats{
	5:  {Hits: 24, Misses: 11, Invalidated: 3, Entries: 7, Bytes: 81466},
	77: {Hits: 20, Misses: 19, Invalidated: 10, Entries: 7, Bytes: 82187},
}

// TestCacheRefreshDropsEntries pins the invalidation rule: a Refresh
// that absorbs only entities keeps every entry, and one that absorbs
// relationships drops every entry — even when, as for a parallel
// duplicate edge, no topology frequency moved — while the whole
// pipeline stays byte-identical to an uncached searcher.
func TestCacheRefreshDropsEntries(t *testing.T) {
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
	applyAndRefresh := func(ups []toposearch.Update) {
		t.Helper()
		if err := db.ApplyBatch(ups); err != nil {
			t.Fatal(err)
		}
		for _, s := range []*toposearch.Searcher{cached, uncached} {
			if _, err := s.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("cold", false)
	check("warm", true)

	// An entity with no relationship relates to nothing: the shallow
	// refresh keeps the generation and the entry.
	applyAndRefresh([]toposearch.Update{
		toposearch.InsertEntity(toposearch.Protein, 1_950_000, map[string]string{"desc": "isolated protein kwsel15"}),
	})
	check("after entity-only batch", true)

	// An isolated island pair: it drifts the direct-encodes topology's
	// frequency, which every result surfaces.
	p, d := int64(1_950_001), int64(2_950_001)
	applyAndRefresh([]toposearch.Update{
		toposearch.InsertEntity(toposearch.Protein, p, map[string]string{"desc": "island protein"}),
		toposearch.InsertEntity(toposearch.DNA, d, map[string]string{"type": "gene", "desc": "island dna"}),
		toposearch.InsertRelationship("encodes", p, d),
	})
	check("after island", false)
	check("after island warm", true)

	// A parallel duplicate of the island edge changes no topology
	// frequency, but the refresh still absorbed an edge: the entry is
	// dropped all the same.
	applyAndRefresh([]toposearch.Update{toposearch.InsertRelationship("encodes", p, d)})
	check("after parallel edge", false)
	st := cached.CacheStats()
	if got := [3]int64{st.Hits, st.Misses, st.Invalidated}; got != [3]int64{3, 3, 2} {
		t.Errorf("hits/misses/invalidated = %v, want [3 3 2] (stats %+v)", got, st)
	}
}

// TestCacheConcurrentSearchRefreshHammer races cached searches against
// live batch application, refreshes (generation advances emptying the
// cache) and capacity evictions from a deliberately tiny cache — run
// under -race in CI.
func TestCacheConcurrentSearchRefreshHammer(t *testing.T) {
	hammerSearchRefresh(t, 32<<10, cacheQueryPool())
}

// TestCacheFootprintConcurrentSearchRefreshHammer runs the same race
// with a cache roomy enough that no entry is evicted, so entries leave
// it only when a refresh that absorbs edges drops them, possibly while
// readers are still filling them.
func TestCacheFootprintConcurrentSearchRefreshHammer(t *testing.T) {
	hammerSearchRefresh(t, 1<<20, []toposearch.SearchQuery{
		{K: 5, Method: "fast-top-k", Cons1: []toposearch.Constraint{{Column: "desc", Keyword: "kwsel50"}}},
		{Method: "full-top"},
		{K: 8, Method: "full-top-k", Cons2: []toposearch.Constraint{{Column: "type", Equals: "mRNA"}}},
	})
}

// hammerSearchRefresh runs six searchers, each repeating one query of
// pool, against four ApplyBatch + Refresh rounds with auto-compaction
// on. Scan methods cut the driving entity scan into one window per
// query worker. Every query must keep succeeding on one consistent
// store generation, and afterwards the cached, windowed searcher must
// answer exactly as a fresh sequential searcher with the cache off.
func hammerSearchRefresh(t *testing.T, cacheBytes int64, pool []toposearch.SearchQuery) {
	t.Helper()
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	db.SetAutoCompact(0.25)
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, Parallelism: 4, CacheBytes: cacheBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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

	fresh, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, Parallelism: 1, CacheBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
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
			t.Fatalf("q%d (%s) diverges from a fresh sequential build after the hammer:\n got %v\nwant %v", qi, q.Method, got.Topologies, want.Topologies)
		}
	}
}
