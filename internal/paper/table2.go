package paper

import (
	"fmt"
	"io"
	"sort"

	"toposearch/internal/methods"
	"toposearch/internal/ranking"
)

// Table2Cell is one measurement of the paper's Table 2: one method, one
// (protein, interaction) selectivity combination, one ranking.
type Table2Cell struct {
	Method   string
	Sel1     string // selectivity of the Protein predicate
	Sel2     string // selectivity of the Interaction predicate
	Ranking  string
	Seconds  float64
	Results  int
	Work     int64 // probes + rows scanned, for cost-model validation
	PlanKind string
}

// Table2Options controls the grid run.
type Table2Options struct {
	K          int
	Reps       int
	IncludeSQL bool
}

// Table2 reproduces the paper's Table 2 on the Protein-Interaction
// pair: every method, every selectivity combination, every ranking.
// Methods whose answer does not depend on the ranking (SQL, Full-Top,
// Fast-Top) are measured once per selectivity combination and their
// numbers replicated across rankings, as in the paper.
func Table2(env *Env, opts Table2Options) ([]Table2Cell, error) {
	if opts.K == 0 {
		opts.K = 10
	}
	if opts.Reps == 0 {
		opts.Reps = 3
	}
	st := env.Store(PairPI)
	var cells []Table2Cell
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
			for _, m := range methods.AllMethods() {
				if m == methods.MethodSQL && !opts.IncludeSQL {
					continue
				}
				rankIndependent := m == methods.MethodSQL ||
					m == methods.MethodFullTop || m == methods.MethodFastTop
				rks := ranking.Names()
				if rankIndependent {
					rks = rks[:1]
				}
				var base *Table2Cell
				for _, rk := range rks {
					q := methods.Query{Pred1: p1, Pred2: p2, K: opts.K, Ranking: rk}
					if rankIndependent {
						q.K = 0
						q.Ranking = ""
					}
					var res methods.QueryResult
					sec, err := Measure(opts.Reps, func() error {
						var runErr error
						res, runErr = st.Run(m, q)
						return runErr
					})
					if err != nil {
						return nil, fmt.Errorf("table2 %s %s/%s/%s: %w", m, sel1, sel2, rk, err)
					}
					cell := Table2Cell{
						Method: m, Sel1: sel1, Sel2: sel2, Ranking: rk,
						Seconds: sec, Results: len(res.Items),
						Work:     res.Counters.Work(),
						PlanKind: res.Plan.String(),
					}
					cells = append(cells, cell)
					base = &cell
				}
				if rankIndependent && base != nil {
					for _, rk := range ranking.Names()[1:] {
						dup := *base
						dup.Ranking = rk
						cells = append(cells, dup)
					}
				}
			}
		}
	}
	return cells, nil
}

// PrintTable2 renders the grid in the paper's layout: one block per
// protein selectivity, methods as rows, (interaction selectivity x
// ranking) as columns.
func PrintTable2(w io.Writer, cells []Table2Cell) {
	type key struct{ m, s1, s2, rk string }
	idx := map[key]Table2Cell{}
	var mset []string
	seen := map[string]bool{}
	for _, c := range cells {
		idx[key{c.Method, c.Sel1, c.Sel2, c.Ranking}] = c
		if !seen[c.Method] {
			seen[c.Method] = true
			mset = append(mset, c.Method)
		}
	}
	order := map[string]int{}
	for i, m := range methods.AllMethods() {
		order[m] = i
	}
	sort.Slice(mset, func(i, j int) bool { return order[mset[i]] < order[mset[j]] })

	for _, s1 := range SelLevels {
		fmt.Fprintf(w, "\nprotein=%s\n", s1)
		fmt.Fprintf(w, "%-16s", "interaction:")
		for _, s2 := range SelLevels {
			for _, rk := range ranking.Names() {
				fmt.Fprintf(w, " %11s", s2[:3]+"/"+rk)
			}
		}
		fmt.Fprintln(w)
		for _, m := range mset {
			fmt.Fprintf(w, "%-16s", m)
			for _, s2 := range SelLevels {
				for _, rk := range ranking.Names() {
					if c, ok := idx[key{m, s1, s2, rk}]; ok {
						fmt.Fprintf(w, " %11.4f", c.Seconds)
					} else {
						fmt.Fprintf(w, " %11s", "-")
					}
				}
			}
			fmt.Fprintln(w)
		}
	}
}
