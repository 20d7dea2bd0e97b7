package toposearch_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/methods"
	"toposearch/internal/optimizer"
	"toposearch/internal/ranking"
)

// TestOptContractRandomized pins the Opt methods to the contract of
// Section 5.4: each answer is exactly the answer of one of the two
// plans the method is named after — X-k when the optimizer picks the
// regular plan, X-k-ET with the IDGJ middle join when it picks early
// termination — items and counters byte-identical. The HDGJ worst
// plan is never chosen, whatever the query's UseHDGJ says.
func TestOptContractRandomized(t *testing.T) {
	opts := []struct{ opt, regular, et string }{
		{methods.MethodFullTopOpt, methods.MethodFullTopK, methods.MethodFullTopKET},
		{methods.MethodFastTopOpt, methods.MethodFastTopK, methods.MethodFastTopKET},
	}
	for _, seed := range []int64{3, 1234} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := biozon.DefaultConfig(1)
			cfg.Seed = seed
			st, err := methods.BuildStore(context.Background(), biozon.Generate(cfg), biozon.SchemaGraph(),
				biozon.Protein, biozon.DNA, methods.StoreConfig{
					Opts:           core.DefaultOptions(),
					PruneThreshold: 2 + rng.Intn(5),
					Scores:         ranking.Schemes(),
				})
			if err != nil {
				t.Fatal(err)
			}
			plans := map[optimizer.PlanKind]int{}
			for qi, q := range randomQueries(t, rng, st, 12) {
				for _, o := range opts {
					for _, par := range []int{1, 4} {
						q.Parallelism = par
						got, err := st.Run(o.opt, q)
						if err != nil {
							t.Fatalf("q%d %s p=%d: %v", qi, o.opt, par, err)
						}
						named := q
						named.UseHDGJ = false
						var m string
						switch got.Plan {
						case optimizer.PlanRegular:
							m = o.regular
						case optimizer.PlanETIndex:
							m = o.et
						default:
							t.Fatalf("q%d %s p=%d: plan %v, want regular or et-idgj", qi, o.opt, par, got.Plan)
						}
						plans[got.Plan]++
						want, err := st.Run(m, named)
						if err != nil {
							t.Fatalf("q%d %s p=%d: %v", qi, m, par, err)
						}
						tag := fmt.Sprintf("q%d %s (plan %v) p=%d", qi, o.opt, got.Plan, par)
						if gi, wi := itemsString(got.Items), itemsString(want.Items); gi != wi {
							t.Errorf("%s: items %s diverge from %s %s", tag, gi, m, wi)
						}
						if got.Counters != want.Counters {
							t.Errorf("%s: counters %+v diverge from %s %+v", tag, got.Counters, m, want.Counters)
						}
					}
				}
			}
			t.Logf("plans chosen: %v", plans)
		})
	}
}
