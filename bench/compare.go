package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// valuesOf collects one metric's per-run values for one workload.
func (f *resultFile) valuesOf(workload, name string) []float64 {
	var out []float64
	for _, set := range f.Runs {
		for _, r := range set {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// spread is the run-to-run noise of a metric as the acceptance driver
// computes it: the interquartile distance as a share of the median.
// Below four values the quartiles are the extremes (or beyond them), so
// no spread is reported.
func spread(values []float64) (float64, bool) {
	if len(values) < 4 {
		return 0, false
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0, false
	}
	return (q3 - q1) / q2, true
}

// compareFiles prints, per workload x end-to-end metric, how much worse
// b's median is than a's against the metric's bound. A pair whose own
// run-to-run spread exceeds the bound is `unresolved`: the runs cannot
// tell a change of that size from noise, so it is not called unchanged.
// Any regression or unresolved pair makes the comparison fail.
func compareFiles(sp *spec, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	if a.Env.Scale != b.Env.Scale || a.Env.Seconds != b.Env.Seconds || a.Env.DataSeed != b.Env.DataSeed {
		return fmt.Errorf("bench: %s and %s were run with different scale, seconds or data seed; not comparable", pathA, pathB)
	}
	fmt.Printf("a: %s  commit %s  %d run(s)\nb: %s  commit %s  %d run(s)\n",
		pathA, a.Env.Commit, len(a.Runs), pathB, b.Env.Commit, len(b.Runs))
	fmt.Printf("%-14s %-22s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "worse by", "bound", "spread", "verdict")
	bad := 0
	for _, w := range sp.Workloads {
		for _, g := range sp.EndToEnd {
			va, vb := a.valuesOf(w.Name, g.Name), b.valuesOf(w.Name, g.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-14s %-22s missing from one side\n", w.Name, g.Name)
				bad++
				continue
			}
			ma, mb := medianOf(va), medianOf(vb)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if g.Better == "higher" {
					worse = -worse
				}
			}
			sa, oka := spread(va)
			sb, okb := spread(vb)
			noise, spreadText := 0.0, "n/a"
			if oka && okb {
				noise = max(sa, sb)
				spreadText = fmt.Sprintf("%.1f%%", 100*noise)
			}
			verdict := "ok"
			switch {
			case noise > g.Bound:
				verdict = "unresolved"
				bad++
			case worse > g.Bound:
				verdict = "REGRESSION"
				bad++
			}
			fmt.Printf("%-14s %-22s %14.6f %14.6f %+8.1f%% %7.0f%% %8s  %s\n",
				w.Name, g.Name, ma, mb, 100*worse, 100*g.Bound, spreadText, verdict)
		}
	}
	if bad > 0 {
		return errors.New("bench: comparison found regressions, unresolved pairs or missing metrics")
	}
	return nil
}
