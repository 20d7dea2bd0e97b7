package core_test

import (
	"context"
	"reflect"
	"testing"

	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/graph"
)

// TestUnionMemoExact asserts that the shape memo changes the work done
// and nothing else: with every lookup forced to miss, so that each
// union runs the canonicalizer as it did before the memo existed,
// Compute renders the same registry (canonical forms, class
// signatures, representative graphs, IDs), Entries and Freq, at every
// parallelism level, on the synthetic database and on random ones.
func TestUnionMemoExact(t *testing.T) {
	type env struct {
		name  string
		g     *graph.Graph
		sg    *graph.SchemaGraph
		pairs [][2]string
	}
	g, sg := syntheticGraph(t, 1)
	envs := []env{{"synthetic", g, sg, [][2]string{
		{biozon.Protein, biozon.DNA},
		{biozon.DNA, biozon.Unigene},
		{biozon.Protein, biozon.Protein},
	}}}
	for seed := int64(0); seed < 4; seed++ {
		g, sg, err := randomGraph(seed)
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, env{"random", g, sg, [][2]string{{biozon.Protein, biozon.DNA}, {biozon.Protein, biozon.Protein}}})
	}
	for _, e := range envs {
		for _, par := range []int{1, 2, 8} {
			opts := core.DefaultOptions()
			opts.Parallelism = par
			compute := func(memoOff bool) *core.Result {
				core.SetMemoOff(memoOff)
				defer core.SetMemoOff(false)
				res, err := core.Compute(context.Background(), e.g, e.sg, e.pairs, opts)
				if err != nil {
					t.Fatalf("%s, parallelism %d: %v", e.name, par, err)
				}
				return res
			}
			with, without := compute(false), compute(true)
			if calls, misses := without.CanonStats(); misses != calls || calls == 0 {
				t.Fatalf("%s, parallelism %d: memo off, yet %d of %d lookups missed", e.name, par, misses, calls)
			}
			if calls, misses := with.CanonStats(); misses == 0 || misses >= calls {
				t.Fatalf("%s, parallelism %d: memo on, yet %d of %d lookups missed", e.name, par, misses, calls)
			}
			a, b := with.Reg.All(), without.Reg.All()
			if len(a) != len(b) {
				t.Fatalf("%s, parallelism %d: %d topologies with the memo, %d without", e.name, par, len(a), len(b))
			}
			for i := range a {
				if !reflect.DeepEqual(a[i], b[i]) {
					t.Fatalf("%s, parallelism %d: topology %d differs:\nwith    %+v\nwithout %+v", e.name, par, i, *a[i], *b[i])
				}
			}
			for _, pr := range e.pairs {
				pa, pb := with.Pair(pr[0], pr[1]), without.Pair(pr[0], pr[1])
				if !reflect.DeepEqual(pa.Entries, pb.Entries) {
					t.Fatalf("%s, parallelism %d: %v Entries differ", e.name, par, pr)
				}
				if !reflect.DeepEqual(pa.Freq, pb.Freq) {
					t.Fatalf("%s, parallelism %d: %v Freq differs", e.name, par, pr)
				}
			}
		}
	}
}

// TestCanonicalizerRunsPerShape guards the offline phase's speed
// without a stopwatch: on the scale-1 synthetic build the canonicalizer
// may run a small constant number of times per worker and registered
// topology, not once per union.
func TestCanonicalizerRunsPerShape(t *testing.T) {
	g, sg := syntheticGraph(t, 1)
	for _, par := range []int{1, 2, 8} {
		opts := core.DefaultOptions()
		opts.Parallelism = par
		res, err := core.Compute(context.Background(), g, sg, sg.EntityPairs(), opts)
		if err != nil {
			t.Fatal(err)
		}
		calls, misses := res.CanonStats()
		if limit := 2 * par * res.Reg.Len(); misses > limit {
			t.Errorf("parallelism %d: canonicalizer ran %d times for %d unions and %d topologies, limit %d",
				par, misses, calls, res.Reg.Len(), limit)
		}
		if calls < 100*res.Reg.Len() {
			t.Errorf("parallelism %d: only %d unions for %d topologies; the guard is vacuous", par, calls, res.Reg.Len())
		}
	}
}
