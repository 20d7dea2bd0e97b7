// Randomized cross-method equivalence harness: seeded random databases
// and query mixes, every evaluation method, at several query
// parallelism settings. The one-worker sequential run is the
// specification: items, counter totals and plan choices must be
// byte-identical to it at every setting — this is the gate that lets
// any execution strategy ship without golden files for every workload
// shape (CI runs it via -run ParallelismEquivalence).
package toposearch_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"toposearch"
	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/methods"
	"toposearch/internal/ranking"
	"toposearch/internal/relstore"
)

// randomQueries derives a deterministic query mix from the seed:
// random predicate selectivities on both sides (including none and an
// equality), random k, ranking and DGJ variant.
func randomQueries(t *testing.T, rng *rand.Rand, st *methods.Store, n int) []methods.Query {
	t.Helper()
	mkPred := func(tab *relstore.Table) relstore.Pred {
		switch rng.Intn(5) {
		case 0:
			return nil
		case 1:
			p, err := relstore.Eq(tab.Schema, "type", relstore.StrVal("mRNA"))
			if err != nil {
				// Not every entity table has a type column; fall through
				// to a keyword predicate.
				break
			}
			return p
		}
		p, err := biozon.SelectivityPred(tab.Schema, []string{"selective", "medium", "unselective"}[rng.Intn(3)])
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ks := []int{1, 3, 10, 40}
	rks := ranking.Names()
	qs := make([]methods.Query, n)
	for i := range qs {
		qs[i] = methods.Query{
			Pred1:   mkPred(st.T1),
			Pred2:   mkPred(st.T2),
			K:       ks[rng.Intn(len(ks))],
			Ranking: rks[rng.Intn(len(rks))],
			UseHDGJ: rng.Intn(2) == 1,
		}
	}
	return qs
}

func TestParallelismEquivalenceRandomized(t *testing.T) {
	seeds := []int64{3, 1234}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := biozon.DefaultConfig(1)
			cfg.Seed = seed
			// Third-size database: the gate runs every method 3 times
			// per query, and the SQL strawman's from-scratch
			// per-candidate enumeration has to stay tractable even for
			// unselective predicate draws.
			for _, n := range []*int{
				&cfg.Proteins, &cfg.DNAs, &cfg.Unigenes, &cfg.Interactions,
				&cfg.Families, &cfg.Pathways, &cfg.Structures,
				&cfg.Encodes, &cfg.UniEncodes, &cfg.UniContains,
				&cfg.PInteract, &cfg.DInteract,
				&cfg.Belongs, &cfg.Manifest, &cfg.PathElements,
				&cfg.SelfRegulating, &cfg.Triangles,
			} {
				*n = (*n + 2) / 3
			}
			db := biozon.Generate(cfg)
			st, err := methods.BuildStore(context.Background(), db, biozon.SchemaGraph(),
				biozon.Protein, biozon.DNA, methods.StoreConfig{
					Opts:           core.DefaultOptions(),
					PruneThreshold: 2 + rng.Intn(5),
					Scores:         ranking.Schemes(),
				})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range randomQueries(t, rng, st, 4) {
				for _, m := range methods.AllMethods() {
					mq := q
					if m == methods.MethodSQL || m == methods.MethodFullTop || m == methods.MethodFastTop {
						mq.K, mq.Ranking = 0, ""
					}
					base := mq
					base.Parallelism = 1
					want, err := st.Run(m, base)
					if err != nil {
						t.Fatalf("q%d %s baseline: %v", qi, m, err)
					}
					for _, par := range []int{4, 8} {
						run := mq
						run.Parallelism = par
						got, err := st.Run(m, run)
						if err != nil {
							t.Fatalf("q%d %s p=%d: %v", qi, m, par, err)
						}
						tag := fmt.Sprintf("q%d %s hdgj=%v k=%d p=%d", qi, m, mq.UseHDGJ, mq.K, par)
						if gi, wi := itemsString(got.Items), itemsString(want.Items); gi != wi {
							t.Errorf("%s: items %s diverge from baseline %s", tag, gi, wi)
						}
						if got.Counters != want.Counters {
							t.Errorf("%s: counters %+v diverge from baseline %+v", tag, got.Counters, want.Counters)
						}
						if got.Plan != want.Plan {
							t.Errorf("%s: plan %v diverges from baseline %v", tag, got.Plan, want.Plan)
						}
					}
				}
			}
		})
	}
}

// TestParallelismConcurrentSearchRefreshHammer races parallel searches — scan
// windows, ET drains and pruned-topology merges on 4 query workers —
// against live batch application, incremental refreshes and
// compactions (run under -race in CI): every query must keep
// succeeding on one consistent store generation.
func TestParallelismConcurrentSearchRefreshHammer(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	db.SetAutoCompact(0.25)
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := []toposearch.SearchQuery{
		{K: 5, Method: "fast-top-k-et", Cons1: []toposearch.Constraint{{Column: "desc", Keyword: "kwsel50"}}},
		{K: 3, Method: "full-top-k-et"},
		{K: 8, Method: "fast-top-k-opt", Cons2: []toposearch.Constraint{{Column: "type", Equals: "mRNA"}}},
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
		p := int64(1_960_000 + i)
		d := int64(2_960_000 + i)
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

	// The hammered searcher still answers identically to a freshly
	// built one.
	fresh, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, Parallelism: 1,
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
			t.Fatalf("%s diverges from a fresh build after the hammer:\n got %v\nwant %v", q.Method, got.Topologies, want.Topologies)
		}
	}
}
