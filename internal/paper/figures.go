package paper

import (
	"fmt"
	"io"
	"math"

	"toposearch/internal/core"
)

// Fig11Series is one curve of Figure 11: topology frequencies by rank
// for an entity-set pair.
type Fig11Series struct {
	Pair  [2]string
	Freqs []int // descending
	// Slope is the fitted log-log slope; Zipfian data gives a
	// roughly straight line with negative slope.
	Slope float64
	// R2 is the goodness of fit of the log-log regression.
	R2 float64
}

// Fig11 reproduces Figure 11: the distribution of topology frequency
// for the PD, DU, PI and PU entity-set pairs, with a log-log linear
// fit quantifying how Zipfian each distribution is.
func Fig11(env *Env) []Fig11Series {
	var out []Fig11Series
	for _, pair := range [][2]string{PairPD, PairDU, PairPI, PairPU} {
		pd := env.Store(pair).Res.Pair(pair[0], pair[1])
		_, freqs := pd.FrequencyRank()
		slope, r2 := loglogFit(freqs)
		out = append(out, Fig11Series{Pair: pair, Freqs: freqs, Slope: slope, R2: r2})
	}
	return out
}

// loglogFit regresses log(freq) on log(rank).
func loglogFit(freqs []int) (slope, r2 float64) {
	var xs, ys []float64
	for i, f := range freqs {
		if f <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(i+1)))
		ys = append(ys, math.Log(float64(f)))
	}
	n := float64(len(xs))
	if n < 2 {
		return 0, 0
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	slope = (n*sxy - sx*sy) / den
	// R^2 from the correlation coefficient.
	denY := n*syy - sy*sy
	if denY <= 0 {
		return slope, 1
	}
	r := (n*sxy - sx*sy) / math.Sqrt(den*denY)
	return slope, r * r
}

// PrintFig11 renders the frequency curves as rank/frequency pairs.
func PrintFig11(w io.Writer, series []Fig11Series) {
	for _, s := range series {
		fmt.Fprintf(w, "pair %s-%s: %d topologies, log-log slope %.2f (R2 %.2f)\n",
			s.Pair[0], s.Pair[1], len(s.Freqs), s.Slope, s.R2)
		for i, f := range s.Freqs {
			if i >= 10 {
				fmt.Fprintf(w, "  ... (%d more)\n", len(s.Freqs)-10)
				break
			}
			fmt.Fprintf(w, "  rank %2d  freq %d\n", i+1, f)
		}
	}
}

// Fig12Row is one row of Figure 12: a frequent Protein-DNA topology
// with its structure details.
type Fig12Row struct {
	Rank      int
	TID       core.TopologyID
	Freq      int
	Nodes     int
	Edges     int
	Classes   int
	IsPath    bool
	Structure string
}

// Fig12 reproduces Figure 12: the details of the top-N most frequent
// topologies relating Proteins and DNAs. The paper's observation — the
// frequent topologies have simple, mostly path-shaped structure — is
// what justifies the pruning strategy.
func Fig12(env *Env, topN int) []Fig12Row {
	st := env.Store(PairPD)
	pd := st.Res.Pair(PairPD[0], PairPD[1])
	ids, freqs := pd.FrequencyRank()
	var out []Fig12Row
	for i, tid := range ids {
		if i >= topN {
			break
		}
		info := st.Res.Reg.Info(tid)
		out = append(out, Fig12Row{
			Rank: i + 1, TID: tid, Freq: freqs[i],
			Nodes: info.NumNodes, Edges: info.NumEdges,
			Classes: len(info.Sigs), IsPath: info.IsPath,
			Structure: info.Describe(),
		})
	}
	return out
}

// PrintFig12 renders the rows.
func PrintFig12(w io.Writer, rows []Fig12Row) {
	fmt.Fprintf(w, "%-4s %-6s %-6s %-6s %-6s %-7s %s\n",
		"rank", "freq", "nodes", "edges", "classes", "path", "structure")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4d %-6d %-6d %-6d %-6d %-7v %s\n",
			r.Rank, r.Freq, r.Nodes, r.Edges, r.Classes, r.IsPath, r.Structure)
	}
}
