package paper

import (
	"context"
	"fmt"
	"io"

	"toposearch/internal/core"
	"toposearch/internal/methods"
	"toposearch/internal/ranking"
)

// Table3Result reproduces the paper's Table 3: the space overhead and
// Fast-Top-k-Opt query performance when the path-length bound grows to
// l = 4. The paper observes comparable query times and space, but notes
// that weak relationships make the l=4 precomputation dramatically more
// expensive and dilute topology quality (Section 6.2.3); setting
// UseWeakRules applies the Appendix B pruning it proposes.
type Table3Result struct {
	Space      methods.SpaceReport
	PrecompSec float64
	Cells      []Table2Cell
}

// Table3Options configures the l=4 experiment.
type Table3Options struct {
	K    int
	Reps int
	// UseWeakRules prunes weak schema paths (Appendix B) before
	// computing topologies.
	UseWeakRules bool
	// MaxPathsPerClass caps per-class representatives; weak
	// relationships can have thousands of instance paths per class
	// ("up to 5000 instances relating the end points").
	MaxPathsPerClass int
}

// Table3 builds an l=4 store for the Protein-Interaction pair on the
// environment's database and measures Fast-Top-k-Opt across the
// selectivity grid and rankings. The context cancels the (expensive)
// l=4 precomputation.
func Table3(ctx context.Context, env *Env, opts Table3Options) (*Table3Result, error) {
	if opts.K == 0 {
		opts.K = 10
	}
	if opts.Reps == 0 {
		opts.Reps = 3
	}
	if opts.MaxPathsPerClass == 0 {
		opts.MaxPathsPerClass = 32
	}
	copts := core.Options{
		MaxLen:           4,
		MaxCombinations:  2048,
		MaxPathsPerClass: opts.MaxPathsPerClass,
		Parallelism:      env.Setup.Parallelism,
	}
	if opts.UseWeakRules {
		copts.Weak = core.DefaultWeakRules()
	}
	var st *methods.Store
	precomp, err := Measure(1, func() error {
		var berr error
		st, berr = methods.BuildStoreFromGraph(ctx, env.DB, env.G, env.SG,
			PairPI[0], PairPI[1], methods.StoreConfig{
				Opts:           copts,
				PruneThreshold: env.Setup.PruneThreshold,
				Scores:         ranking.Schemes(),
			})
		return berr
	})
	if err != nil {
		return nil, err
	}
	res := &Table3Result{Space: st.Space(), PrecompSec: precomp}
	for _, sel1 := range SelLevels {
		p1, err := PredFor(st.T1, sel1)
		if err != nil {
			return nil, err
		}
		for _, sel2 := range SelLevels {
			p2, err := PredFor(st.T2, sel2)
			if err != nil {
				return nil, err
			}
			for _, rk := range ranking.Names() {
				q := methods.Query{Pred1: p1, Pred2: p2, K: opts.K, Ranking: rk}
				var qres methods.QueryResult
				sec, err := Measure(opts.Reps, func() error {
					var runErr error
					qres, runErr = st.FastTopKOpt(q)
					return runErr
				})
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, Table2Cell{
					Method: methods.MethodFastTopOpt, Sel1: sel1, Sel2: sel2,
					Ranking: rk, Seconds: sec, Results: len(qres.Items),
					Work:     qres.Counters.Work(),
					PlanKind: qres.Plan.String(),
				})
			}
		}
	}
	// The l=4 tables are transient: drop them so the environment's l=3
	// stores remain authoritative.
	for _, kind := range []string{"AllTops", "LeftTops", "ExcpTops", "TopInfo"} {
		env.DB.DropTable(core.TableName(kind, PairPI[0], PairPI[1]))
	}
	// Rebuild the l=3 tables for subsequent experiments.
	st3, err := methods.BuildStoreFromGraph(ctx, env.DB, env.G, env.SG, PairPI[0], PairPI[1],
		methods.StoreConfig{
			Opts: core.Options{
				MaxLen:           env.Setup.L,
				MaxCombinations:  4096,
				MaxPathsPerClass: env.Setup.MaxPathsPerClass,
				Parallelism:      env.Setup.Parallelism,
			},
			PruneThreshold: env.Setup.PruneThreshold,
			Scores:         ranking.Schemes(),
		})
	if err != nil {
		return nil, err
	}
	env.Stores[PairPI] = st3
	return res, nil
}

// PrintTable3 renders the result in the paper's layout.
func PrintTable3(w io.Writer, r *Table3Result) {
	fmt.Fprintf(w, "precomputation: %.2fs\n", r.PrecompSec)
	fmt.Fprintf(w, "space: AllTops %s, LeftTops %s, ExcpTops %s (ratio %.1f%%)\n",
		byteSize(r.Space.AllTopsBytes), byteSize(r.Space.LeftTopsBytes),
		byteSize(r.Space.ExcpBytes), 100*r.Space.Ratio)
	PrintTable2(w, r.Cells)
}
