// Golden equivalence suite for the columnar storage engine: the items,
// counter totals, plan choices and table cardinalities below were
// captured by running the identical workload on the row-store layout
// (commit 60289cd, rows as []Value slices) and must stay byte-identical
// on the columnar engine at every parallelism setting. The two Opt rows
// were re-captured when the Opt methods stopped choosing the HDGJ worst
// plan: they now match the ET rows, with the same items.
package toposearch_test

import (
	"context"
	"fmt"
	"testing"

	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/engine"
	"toposearch/internal/methods"
	"toposearch/internal/ranking"
	"toposearch/internal/relstore"
)

func itemsString(items []methods.Item) string {
	s := ""
	for _, it := range items {
		s += fmt.Sprintf("%d:%d ", it.TID, it.Score)
	}
	return s
}

func TestEquivalenceGoldenSeedQueries(t *testing.T) {
	db := biozon.Generate(biozon.DefaultConfig(1))
	s, err := methods.BuildStore(context.Background(), db, biozon.SchemaGraph(),
		biozon.Protein, biozon.DNA, methods.StoreConfig{
			Opts:           core.DefaultOptions(),
			PruneThreshold: 2,
			Scores:         ranking.Schemes(),
		})
	if err != nil {
		t.Fatal(err)
	}
	// Offline artifacts match the row-store build exactly.
	if got := fmt.Sprintf("%d/%d/%d/%d", s.AllTops.NumRows(), s.LeftTops.NumRows(),
		s.ExcpTops.NumRows(), s.TopInfo.NumRows()); got != "7795/958/1736/85" {
		t.Fatalf("table cardinalities = %s, want row-store 7795/958/1736/85", got)
	}
	if got := fmt.Sprint(s.PrunedTIDs); got != "[0 13 8 3 11 14 5 2 12 1]" {
		t.Fatalf("pruned TIDs = %s diverge from row-store seed", got)
	}

	p1, err := biozon.SelectivityPred(s.T1.Schema, "medium")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := relstore.Eq(s.T2.Schema, "type", relstore.StrVal("mRNA"))
	if err != nil {
		t.Fatal(err)
	}

	const allTIDs = "0:0 1:0 2:0 3:0 4:0 5:0 6:0 7:0 8:0 9:0 10:0 11:0 12:0 13:0 " +
		"14:0 15:0 16:0 17:0 18:0 19:0 20:0 21:0 22:0 23:0 26:0 29:0 33:0 34:0 " +
		"37:0 42:0 44:0 58:0 59:0 68:0 69:0 73:0 81:0 82:0 "
	const top10 = "26:142 73:125 4:86 22:86 34:86 37:86 21:85 33:85 58:85 59:85 "
	golden := []struct {
		method   string
		items    string
		counters engine.Counters
		plan     string
	}{
		{methods.MethodSQL, allTIDs, engine.Counters{RowsScanned: 300, IndexProbes: 1169978}, "regular"},
		{methods.MethodFullTop, allTIDs, engine.Counters{RowsScanned: 300, IndexProbes: 3731, TuplesOut: 38}, "regular"},
		{methods.MethodFastTop, allTIDs, engine.Counters{RowsScanned: 17882, IndexProbes: 849, TuplesOut: 28}, "regular"},
		{methods.MethodFullTopK, top10, engine.Counters{RowsScanned: 300, IndexProbes: 3731, TuplesOut: 38}, "regular"},
		{methods.MethodFastTopK, top10, engine.Counters{RowsScanned: 300, IndexProbes: 536, TuplesOut: 28}, "regular"},
		{methods.MethodFullTopKET, top10, engine.Counters{RowsScanned: 34, IndexProbes: 187, TuplesOut: 10}, "regular"},
		{methods.MethodFastTopKET, top10, engine.Counters{RowsScanned: 34, IndexProbes: 187, TuplesOut: 10}, "regular"},
		{methods.MethodFullTopOpt, top10, engine.Counters{RowsScanned: 34, IndexProbes: 187, TuplesOut: 10}, "et-idgj"},
		{methods.MethodFastTopOpt, top10, engine.Counters{RowsScanned: 34, IndexProbes: 187, TuplesOut: 10}, "et-idgj"},
	}
	for _, g := range golden {
		for _, workers := range []int{1, 8} {
			q := methods.Query{Pred1: p1, Pred2: p2, K: 10, Ranking: ranking.Domain, Parallelism: workers}
			if g.method == methods.MethodSQL || g.method == methods.MethodFullTop || g.method == methods.MethodFastTop {
				q.K, q.Ranking = 0, ""
			}
			res, err := s.Run(g.method, q)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", g.method, workers, err)
			}
			if got := itemsString(res.Items); got != g.items {
				t.Errorf("%s/workers=%d: items %v diverge from row-store golden %v", g.method, workers, got, g.items)
			}
			if res.Counters != g.counters {
				t.Errorf("%s/workers=%d: counters %+v diverge from row-store golden %+v", g.method, workers, res.Counters, g.counters)
			}
			if fmt.Sprint(res.Plan) != g.plan {
				t.Errorf("%s/workers=%d: plan %v diverges from row-store golden %s", g.method, workers, res.Plan, g.plan)
			}
		}
	}
}
