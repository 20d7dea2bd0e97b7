package methods_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/methods"
	"toposearch/internal/ranking"
	"toposearch/internal/relstore"
)

// generatedStore builds a store on the synthetic Zipfian database with
// enough pruning for the parallel pruned-check path to be exercised.
func generatedStore(t *testing.T, threshold int) *methods.Store {
	t.Helper()
	db := biozon.Generate(biozon.DefaultConfig(1))
	s, err := methods.BuildStore(context.Background(), db, biozon.SchemaGraph(),
		biozon.Protein, biozon.DNA, methods.StoreConfig{
			Opts:           core.DefaultOptions(),
			PruneThreshold: threshold,
			Scores:         ranking.Schemes(),
		})
	if err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
	return s
}

// TestOnlineParallelDeterminism asserts the parallel online path's core
// contract: every method returns byte-identical items AND identical
// merged counter totals at Parallelism 1 and 8.
func TestOnlineParallelDeterminism(t *testing.T) {
	s := generatedStore(t, 2)
	if len(s.PrunedTIDs) == 0 {
		t.Fatal("threshold 2 pruned nothing; the parallel pruned-check path is untested")
	}
	p1, err := biozon.SelectivityPred(s.T1.Schema, "medium")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := relstore.Eq(s.T2.Schema, "type", relstore.StrVal("mRNA"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range methods.AllMethods() {
		q := methods.Query{Pred1: p1, Pred2: p2, K: 10, Ranking: ranking.Domain}
		if m == methods.MethodSQL || m == methods.MethodFullTop || m == methods.MethodFastTop {
			q.K, q.Ranking = 0, ""
		}
		q.Parallelism = 1
		seq, err := s.Run(m, q)
		if err != nil {
			t.Fatalf("%s sequential: %v", m, err)
		}
		q.Parallelism = 8
		par, err := s.Run(m, q)
		if err != nil {
			t.Fatalf("%s parallel: %v", m, err)
		}
		if !reflect.DeepEqual(seq.Items, par.Items) {
			t.Errorf("%s: items differ at parallelism 8: %v vs %v", m, par.Items, seq.Items)
		}
		if seq.Counters != par.Counters {
			t.Errorf("%s: counters differ at parallelism 8: %+v vs %+v", m, par.Counters, seq.Counters)
		}
		if seq.Plan != par.Plan {
			t.Errorf("%s: plan differs at parallelism 8: %v vs %v", m, par.Plan, seq.Plan)
		}
	}
}

// TestConcurrentQueriesSharedStore hammers one Store from many
// goroutines running a mix of methods, selectivities and worker counts
// simultaneously — the data-race check for the shared index maps,
// statistics, and registry (run under -race in CI). Every result must
// match the reference computed sequentially up front.
func TestConcurrentQueriesSharedStore(t *testing.T) {
	s := generatedStore(t, 2)
	ms := methods.AllMethods()
	sels := []string{"selective", "unselective"}

	type job struct {
		m   string
		q   methods.Query
		ref methods.QueryResult
	}
	var jobs []job
	for _, m := range ms {
		if m == methods.MethodSQL {
			// The strawman re-derives topologies from scratch; one
			// selective instance keeps the test fast while still
			// exercising its parallel candidate loop concurrently.
			continue
		}
		for _, sel := range sels {
			p1, err := biozon.SelectivityPred(s.T1.Schema, sel)
			if err != nil {
				t.Fatal(err)
			}
			q := methods.Query{Pred1: p1, Pred2: relstore.True{}, K: 5, Ranking: ranking.Freq}
			if m == methods.MethodFullTop || m == methods.MethodFastTop {
				q.K, q.Ranking = 0, ""
			}
			ref, err := s.Run(m, q)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", m, sel, err)
			}
			jobs = append(jobs, job{m: m, q: q, ref: ref})
		}
	}
	p1, err := biozon.SelectivityPred(s.T1.Schema, "selective")
	if err != nil {
		t.Fatal(err)
	}
	sqlQ := methods.Query{Pred1: p1, Pred2: relstore.True{}}
	sqlRef, err := s.Run(methods.MethodSQL, sqlQ)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, job{m: methods.MethodSQL, q: sqlQ, ref: sqlRef})

	var wg sync.WaitGroup
	errc := make(chan error, 2*len(jobs))
	for round := 0; round < 2; round++ {
		for i := range jobs {
			wg.Add(1)
			go func(round int, j job) {
				defer wg.Done()
				q := j.q
				q.Parallelism = 4 * (round + 1) // mix worker counts across rounds
				res, err := s.Run(j.m, q)
				if err != nil {
					errc <- fmt.Errorf("%s: %w", j.m, err)
					return
				}
				if !reflect.DeepEqual(res.Items, j.ref.Items) {
					errc <- fmt.Errorf("%s: concurrent run returned %v, want %v", j.m, res.Items, j.ref.Items)
				}
			}(round, jobs[i])
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentStoreBuildsSharedDB builds stores for several pairs
// concurrently against one database and graph — the paper.NewEnv
// pattern — and checks each store still answers correctly.
func TestConcurrentStoreBuildsSharedDB(t *testing.T) {
	db := biozon.Generate(biozon.DefaultConfig(1))
	sg := biozon.SchemaGraph()
	pairs := [][2]string{
		{biozon.Protein, biozon.DNA},
		{biozon.Protein, biozon.Interaction},
		{biozon.Protein, biozon.Unigene},
		{biozon.DNA, biozon.Unigene},
	}
	stores := make([]*methods.Store, len(pairs))
	errs := make([]error, len(pairs))
	var wg sync.WaitGroup
	for i, pair := range pairs {
		wg.Add(1)
		go func(i int, pair [2]string) {
			defer wg.Done()
			stores[i], errs[i] = methods.BuildStore(context.Background(), db, sg, pair[0], pair[1],
				methods.StoreConfig{
					Opts:           core.DefaultOptions(),
					PruneThreshold: 4,
					Scores:         ranking.Schemes(),
				})
		}(i, pair)
	}
	wg.Wait()
	for i, pair := range pairs {
		if errs[i] != nil {
			t.Fatalf("building %v: %v", pair, errs[i])
		}
		res, err := stores[i].FastTop(methods.Query{})
		if err != nil {
			t.Fatalf("%v FastTop: %v", pair, err)
		}
		full, err := stores[i].FullTop(methods.Query{})
		if err != nil {
			t.Fatalf("%v FullTop: %v", pair, err)
		}
		if !reflect.DeepEqual(res.TIDs(), full.TIDs()) {
			t.Errorf("%v: FastTop %v != FullTop %v", pair, res.TIDs(), full.TIDs())
		}
	}
}

// TestMergePrunedParallelMatchesSequential pins the parallelized SQL4
// cut-off merge: Fast-Top-k(-ET) with workers runs the pruned
// existence checks eagerly in parallel, yet items and counter
// totals stay byte-identical to the sequential merge — in the
// underfull regime (large k: every pruned topology needs its check)
// and the overfull-with-admissions regime (small k: the bar rises as
// checks admit candidates, shrinking the executed set).
func TestMergePrunedParallelMatchesSequential(t *testing.T) {
	// Threshold 1 prunes aggressively so the merge has many candidates.
	s := generatedStore(t, 1)
	if len(s.PrunedTIDs) < 2 {
		t.Fatalf("store pruned only %d topologies; test needs candidates", len(s.PrunedTIDs))
	}
	med, err := biozon.SelectivityPred(s.T1.Schema, "medium")
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{methods.MethodFastTopK, methods.MethodFastTopKET} {
		for _, k := range []int{1, 2, 1000} {
			q := methods.Query{Pred1: med, K: k, Ranking: ranking.Domain, Parallelism: 1}
			want, err := s.Run(method, q)
			if err != nil {
				t.Fatalf("%s seq: %v", method, err)
			}
			for _, par := range []int{2, 8} {
				qq := q
				qq.Parallelism = par
				got, err := s.Run(method, qq)
				if err != nil {
					t.Fatalf("%s par=%d: %v", method, par, err)
				}
				tag := fmt.Sprintf("%s/k=%d/par=%d", method, k, par)
				if !reflect.DeepEqual(got.Items, want.Items) {
					t.Errorf("%s: items %v, want %v", tag, got.Items, want.Items)
				}
				if got.Counters != want.Counters {
					t.Errorf("%s: counters %+v, want %+v", tag, got.Counters, want.Counters)
				}
				if w := got.Wasted; w.RowsScanned < 0 || w.IndexProbes < 0 {
					t.Errorf("%s: negative wasted work %+v", tag, w)
				}
			}
		}
	}
}
