package paper

import (
	"fmt"
	"io"

	"toposearch/internal/methods"
)

// Table1 reproduces the paper's Table 1: the space requirements of the
// Full-Top strategy (the AllTops table) against the Fast-Top strategy
// (LeftTops + ExcpTops) for five entity-set pairs, and the ratio. The
// Zipfian frequency distribution makes the ratio small: pruning the few
// most frequent topologies removes most rows.
func Table1(env *Env) []methods.SpaceReport {
	var out []methods.SpaceReport
	for _, pair := range Table1Pairs() {
		out = append(out, env.Store(pair).Space())
	}
	return out
}

// PrintTable1 renders the reports in the paper's layout.
func PrintTable1(w io.Writer, reports []methods.SpaceReport) {
	fmt.Fprintf(w, "%-28s %12s %12s %12s %8s\n",
		"Object pair", "AllTops", "LeftTops", "ExcpTops", "Ratio")
	for _, r := range reports {
		fmt.Fprintf(w, "%-28s %12s %12s %12s %7.1f%%\n",
			r.ES1+" "+r.ES2,
			byteSize(r.AllTopsBytes), byteSize(r.LeftTopsBytes), byteSize(r.ExcpBytes),
			100*r.Ratio)
	}
}

func byteSize(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
