package paper

import (
	"fmt"
	"io"

	"toposearch/internal/core"
	"toposearch/internal/methods"
	"toposearch/internal/ranking"
)

// VaryKCell is one measurement of the Section 6.2.4 vary-k experiment.
type VaryKCell struct {
	K       int
	Ranking string
	Seconds float64
	Results int
}

// VaryK measures Fast-Top-k-Opt on the Protein-Interaction pair with a
// medium-selectivity query for growing k. The paper reports "a slight
// degradation in performance with increasing k".
func VaryK(env *Env, ks []int, reps int) ([]VaryKCell, error) {
	if len(ks) == 0 {
		ks = []int{1, 10, 50, 100}
	}
	st := env.Store(PairPI)
	p1, err := PredFor(st.T1, "medium")
	if err != nil {
		return nil, err
	}
	p2, err := PredFor(st.T2, "medium")
	if err != nil {
		return nil, err
	}
	var out []VaryKCell
	for _, k := range ks {
		for _, rk := range ranking.Names() {
			q := methods.Query{Pred1: p1, Pred2: p2, K: k, Ranking: rk}
			var res methods.QueryResult
			sec, err := Measure(reps, func() error {
				var runErr error
				res, runErr = st.FastTopKOpt(q)
				return runErr
			})
			if err != nil {
				return nil, err
			}
			out = append(out, VaryKCell{K: k, Ranking: rk, Seconds: sec, Results: len(res.Items)})
		}
	}
	return out, nil
}

// PrintVaryK renders the vary-k measurements.
func PrintVaryK(w io.Writer, cells []VaryKCell) {
	fmt.Fprintf(w, "%-6s %-8s %10s %8s\n", "k", "ranking", "seconds", "results")
	for _, c := range cells {
		fmt.Fprintf(w, "%-6d %-8s %10.4f %8d\n", c.K, c.Ranking, c.Seconds, c.Results)
	}
}

// InstanceCell measures retrieving the instances of one topology
// (Section 6.2.4: "1-50 seconds depending on the frequency of the
// topology").
type InstanceCell struct {
	TID       core.TopologyID
	Freq      int
	Pairs     int
	Seconds   float64
	Witnessed bool
}

// InstanceRetrieval measures, for a spread of topology frequencies on
// the Protein-DNA pair, the cost of listing the topology's instance
// pairs and materializing a witness subgraph for the first pair.
func InstanceRetrieval(env *Env, topologies int) ([]InstanceCell, error) {
	st := env.Store(PairPD)
	pd := st.Res.Pair(PairPD[0], PairPD[1])
	ids, freqs := pd.FrequencyRank()
	if len(ids) == 0 {
		return nil, fmt.Errorf("paper: no topologies for PD")
	}
	// Sample across the frequency range: take evenly spaced ranks.
	var picks []int
	if topologies >= len(ids) {
		for i := range ids {
			picks = append(picks, i)
		}
	} else {
		for i := 0; i < topologies; i++ {
			picks = append(picks, i*(len(ids)-1)/max1(topologies-1))
		}
	}
	var out []InstanceCell
	for _, rank := range picks {
		tid := ids[rank]
		var n int
		var witnessed bool
		sec, err := Measure(1, func() error {
			inst := st.Res.Instances(PairPD[0], PairPD[1], tid)
			n = len(inst)
			if n > 0 {
				_, witnessed = core.WitnessFor(env.G, st.Res.Reg,
					inst[0][0], inst[0][1], tid, st.Cfg.Opts)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, InstanceCell{
			TID: tid, Freq: freqs[rank], Pairs: n, Seconds: sec, Witnessed: witnessed,
		})
	}
	return out, nil
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// PrintInstanceRetrieval renders the measurements.
func PrintInstanceRetrieval(w io.Writer, cells []InstanceCell) {
	fmt.Fprintf(w, "%-6s %-8s %-8s %10s %10s\n", "TID", "freq", "pairs", "seconds", "witnessed")
	for _, c := range cells {
		fmt.Fprintf(w, "%-6d %-8d %-8d %10.5f %10v\n", c.TID, c.Freq, c.Pairs, c.Seconds, c.Witnessed)
	}
}
