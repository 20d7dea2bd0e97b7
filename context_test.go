package toposearch_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"toposearch"
)

// TestNewSearcherContextCancelled asserts the offline phase aborts
// promptly with the context's error when the context is already
// cancelled — the table-stakes property for serving: a caller that
// gives up must not leave a topology computation running.
func TestNewSearcherContextCancelled(t *testing.T) {
	db, err := toposearch.Synthetic(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA,
		toposearch.DefaultSearcherConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("NewSearcherContext on cancelled ctx: got %v, want context.Canceled", err)
	}
}

// TestSearchContextCancelled asserts a cancelled context aborts query
// execution across representative methods, including the SQL strawman
// whose start-node loop has its own cancellation checks.
func TestSearchContextCancelled(t *testing.T) {
	s := figure3Searcher(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, method := range []string{"", "sql", "full-top-k-et"} {
		q := paperSearch()
		q.Method = method
		if method == "full-top-k-et" {
			q.K, q.Ranking = 3, toposearch.RankDomain
		}
		if _, err := s.SearchContext(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("SearchContext(method=%q) on cancelled ctx: got %v, want context.Canceled", method, err)
		}
	}
}

// TestSearchContextBackground asserts the context-aware entry points
// agree with the plain ones when the context never fires.
func TestSearchContextBackground(t *testing.T) {
	s := figure3Searcher(t)
	plain, err := s.Search(paperSearch())
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := s.SearchContext(context.Background(), paperSearch())
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Topologies) != len(withCtx.Topologies) {
		t.Fatalf("SearchContext returned %d topologies, Search returned %d",
			len(withCtx.Topologies), len(plain.Topologies))
	}
}

// TestSearcherParallelismSetting asserts the public Parallelism knob
// produces the same precomputed tables as the sequential default.
func TestSearcherParallelismSetting(t *testing.T) {
	db, err := toposearch.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	build := func(par int) *toposearch.Searcher {
		cfg := toposearch.DefaultSearcherConfig()
		cfg.PruneThreshold = 0
		cfg.Parallelism = par
		s, err := db.NewSearcher(toposearch.Protein, toposearch.DNA, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	seq, par := build(1), build(8)
	if seq.TopologyCount() != par.TopologyCount() {
		t.Fatalf("TopologyCount: sequential %d vs parallel %d", seq.TopologyCount(), par.TopologyCount())
	}
	if seq.PrunedCount() != par.PrunedCount() {
		t.Fatalf("PrunedCount: sequential %d vs parallel %d", seq.PrunedCount(), par.PrunedCount())
	}
	ids1, fr1 := seq.FrequencyRank()
	ids2, fr2 := par.FrequencyRank()
	for i := range ids1 {
		if ids1[i] != ids2[i] || fr1[i] != fr2[i] {
			t.Fatalf("FrequencyRank diverged at %d: (%d,%d) vs (%d,%d)",
				i, ids1[i], fr1[i], ids2[i], fr2[i])
		}
	}
}

// TestDeadlineQueryBypassesCache pins the direct execution path a
// deadline-bounded query takes on a cache-on searcher: a deadline that
// never fires returns the plain answer, reports neither Partial nor
// CacheHit, leaves the cache and the Partials counter untouched, and
// the plain query that follows still misses.
func TestDeadlineQueryBypassesCache(t *testing.T) {
	db, err := toposearch.Synthetic(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcher(toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	kw := []toposearch.Constraint{{Column: "desc", Keyword: "kwsel50"}}
	for _, q := range []toposearch.SearchQuery{
		{K: 5, Cons1: kw},
		{K: 3, Method: "fast-top-k-et", Ranking: toposearch.RankRare},
		{Method: "full-top", Cons1: kw},
	} {
		var bounded []*toposearch.SearchResult
		before, partials := s.CacheStats(), s.Stats().Partials
		for _, partialOK := range []bool{false, true} {
			bq := q
			bq.Deadline, bq.PartialOK = 10*time.Second, partialOK
			res, err := s.Search(bq)
			if err != nil {
				t.Fatal(err)
			}
			if res.Partial || res.CacheHit {
				t.Errorf("%s k=%d partialOK=%v: Partial %v CacheHit %v, want both false",
					q.Method, q.K, partialOK, res.Partial, res.CacheHit)
			}
			bounded = append(bounded, res)
		}
		if after := s.CacheStats(); after.Misses != before.Misses || after.Entries != before.Entries {
			t.Errorf("%s k=%d: bounded queries moved the cache: misses %d -> %d, entries %d -> %d",
				q.Method, q.K, before.Misses, after.Misses, before.Entries, after.Entries)
		}
		if got := s.Stats().Partials; got != partials {
			t.Errorf("%s k=%d: Partials %d -> %d", q.Method, q.K, partials, got)
		}
		plain, err := s.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if plain.CacheHit {
			t.Errorf("%s k=%d: plain query after the bounded ones hit the cache", q.Method, q.K)
		}
		for _, res := range bounded {
			if !reflect.DeepEqual(res.Topologies, plain.Topologies) {
				t.Errorf("%s k=%d: bounded answer %v, plain %v", q.Method, q.K, res.Topologies, plain.Topologies)
			}
		}
	}
}

// TestPartialETPrefix pins the deadline contract of the ET drain: with
// PartialOK, a deadline cut returns the witnesses emitted so far, which
// are a prefix of the unbounded answer, and a run that beat its
// deadline returns the unbounded answer itself. Deadlines sweep
// 50µs–5ms so the cut lands before, inside and after the drain. The
// ranking is Rare: a pruned topology is more frequent than every
// LeftTops one, so under Rare it never outranks them and Fast-Top-k-ET's
// pruned merge admits nothing — its answer is exactly its ET stream.
func TestPartialETPrefix(t *testing.T) {
	// Scale 3, constrained to the single protein whose desc carries the
	// token "6": witnesses are sparse, so the drain walks 0.3–2ms of
	// groups before k of them appear.
	db, err := toposearch.Synthetic(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcher(toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, CacheBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const runs = 20
	partials, cutInside := 0, 0
	for _, method := range []string{"fast-top-k-et", "full-top-k-et"} {
		for _, k := range []int{3, 10} {
			q := toposearch.SearchQuery{K: k, Method: method, Ranking: toposearch.RankRare,
				Cons1: []toposearch.Constraint{{Column: "desc", Keyword: "6"}}}
			// A deadline already past when the method is dispatched is a
			// cut before the first witness: an empty partial answer, not
			// an error.
			expired := q
			expired.Deadline, expired.PartialOK = time.Nanosecond, true
			res, err := s.Search(expired)
			if err != nil {
				t.Fatalf("%s k=%d expired deadline: %v, want an empty partial answer", method, k, err)
			}
			if !res.Partial || len(res.Topologies) != 0 {
				t.Fatalf("%s k=%d expired deadline: partial %v with %d topologies, want an empty partial answer",
					method, k, res.Partial, len(res.Topologies))
			}
			full, err := s.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Topologies) != k {
				t.Fatalf("%s k=%d: unbounded answer has %d topologies, want k", method, k, len(full.Topologies))
			}
			for i := 0; i < runs; i++ {
				// Geometric sweep from 50µs to 5ms.
				d := time.Duration(50e3 * math.Pow(100, float64(i)/(runs-1)))
				bq := q
				bq.Deadline, bq.PartialOK = d, true
				res, err := s.Search(bq)
				if err != nil {
					t.Fatalf("%s k=%d deadline %v: %v", method, k, d, err)
				}
				got, want := res.Topologies, full.Topologies
				if !res.Partial {
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s k=%d deadline %v: complete result %v, want %v", method, k, d, got, want)
					}
					continue
				}
				partials++
				if len(got) > 0 && len(got) < len(want) {
					cutInside++
				}
				if len(got) > len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want[:len(got)])) {
					t.Fatalf("%s k=%d deadline %v: partial result %v is not a prefix of %v", method, k, d, got, want)
				}
			}
		}
	}
	if partials == 0 {
		t.Fatal("no deadline in the sweep cut a query: the property was never exercised")
	}
	t.Logf("%d of %d runs partial, %d cut inside the drain", partials, 4*runs, cutInside)
}
