package methods_test

import (
	"fmt"
	"reflect"
	"testing"

	"toposearch/internal/biozon"
	"toposearch/internal/methods"
	"toposearch/internal/ranking"
	"toposearch/internal/relstore"
)

// TestETMatchesAcrossWorkerCounts pins that an ET query's answer does
// not depend on how many query workers split its work: for both ET methods, both DGJ
// variants and several k values, with Fast-Top-k-ET's pruned-topology
// checks fanned out over 2, 3 or 8 query workers, and with or without
// the PartialOK guard stack, items AND useful-work counters are
// byte-identical to the one-worker run.
func TestETMatchesAcrossWorkerCounts(t *testing.T) {
	s := generatedStore(t, 2)
	sel, err := biozon.SelectivityPred(s.T1.Schema, "selective")
	if err != nil {
		t.Fatal(err)
	}
	med, err := biozon.SelectivityPred(s.T2.Schema, "medium")
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{methods.MethodFullTopKET, methods.MethodFastTopKET} {
		for _, hdgj := range []bool{false, true} {
			for _, k := range []int{1, 5, 100, 0} {
				q := methods.Query{Pred1: sel, Pred2: med, K: k,
					Ranking: ranking.Domain, UseHDGJ: hdgj, Parallelism: 1}
				want, err := s.Run(method, q)
				if err != nil {
					t.Fatalf("%s single: %v", method, err)
				}
				if len(want.Items) == 0 {
					t.Fatalf("%s k=%d: empty baseline; the comparison would be vacuous", method, k)
				}
				for _, par := range []int{2, 3, 8} {
					for _, partialOK := range []bool{false, true} {
						qq := q
						qq.Parallelism = par
						qq.PartialOK = partialOK
						got, err := s.Run(method, qq)
						if err != nil {
							t.Fatalf("%s par=%d partialOK=%v: %v", method, par, partialOK, err)
						}
						tag := fmt.Sprintf("%s/hdgj=%v/k=%d/par=%d/partialOK=%v", method, hdgj, k, par, partialOK)
						if !reflect.DeepEqual(got.Items, want.Items) {
							t.Errorf("%s: items %v, want %v", tag, got.Items, want.Items)
						}
						if got.Counters != want.Counters {
							t.Errorf("%s: counters %+v, want %+v", tag, got.Counters, want.Counters)
						}
						if got.Partial {
							t.Errorf("%s: reported partial without a deadline", tag)
						}
						if w := got.Wasted; w.RowsScanned < 0 || w.IndexProbes < 0 || w.TuplesOut < 0 || w.Comparisons < 0 {
							t.Errorf("%s: negative wasted work %+v", tag, w)
						}
					}
				}
			}
		}
	}
}

// TestScanMethodsMatchAcrossWorkerCounts pins the scan-method half:
// Full-Top/Fast-Top/Full-Top-k/Fast-Top-k cut the driving entity scan
// into one contiguous window per query worker, and at 2, 3 and 8
// windows return byte-identical items and counter totals to the
// single-window run.
func TestScanMethodsMatchAcrossWorkerCounts(t *testing.T) {
	s := generatedStore(t, 2)
	med, err := biozon.SelectivityPred(s.T1.Schema, "medium")
	if err != nil {
		t.Fatal(err)
	}
	mrna, err := relstore.Eq(s.T2.Schema, "type", relstore.StrVal("mRNA"))
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{methods.MethodFullTop, methods.MethodFastTop,
		methods.MethodFullTopK, methods.MethodFastTopK} {
		q := methods.Query{Pred1: med, Pred2: mrna, Parallelism: 1}
		if method == methods.MethodFullTopK || method == methods.MethodFastTopK {
			q.K = 5
			q.Ranking = ranking.Domain
		}
		want, err := s.Run(method, q)
		if err != nil {
			t.Fatalf("%s single: %v", method, err)
		}
		if len(want.Items) == 0 {
			t.Fatalf("%s: empty baseline; the comparison would be vacuous", method)
		}
		for _, par := range []int{2, 3, 8} {
			qq := q
			qq.Parallelism = par
			got, err := s.Run(method, qq)
			if err != nil {
				t.Fatalf("%s par=%d: %v", method, par, err)
			}
			tag := fmt.Sprintf("%s/par=%d", method, par)
			if !reflect.DeepEqual(got.Items, want.Items) {
				t.Errorf("%s: items %v, want %v", tag, got.Items, want.Items)
			}
			if got.Counters != want.Counters {
				t.Errorf("%s: counters %+v, want %+v", tag, got.Counters, want.Counters)
			}
		}
	}
}
