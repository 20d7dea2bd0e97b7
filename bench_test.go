// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design decisions described in
// README.md. The full paper-layout tables are printed by cmd/benchtab;
// these testing.B benchmarks measure the same code paths one cell at a
// time so regressions are visible in -bench output.
package toposearch_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"toposearch"
	"toposearch/internal/biozon"
	"toposearch/internal/canon"
	"toposearch/internal/core"
	"toposearch/internal/methods"
	"toposearch/internal/optimizer"
	"toposearch/internal/paper"
	"toposearch/internal/ranking"
)

var (
	benchOnce sync.Once
	benchEnv  *paper.Env
	benchErr  error
)

// env lazily builds the shared benchmark environment (scale 1 keeps
// every sub-benchmark in the millisecond range; cmd/benchtab runs the
// same experiments at larger scales).
func env(b *testing.B) *paper.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = paper.NewEnv(context.Background(), paper.Setup{
			Scale: 1, Seed: 42, PruneThreshold: 3, L: 3, MaxPathsPerClass: 64,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkPrecompute measures the offline Topology Computation module
// (Section 4.1): building AllTops for the Protein-DNA pair.
func BenchmarkPrecompute(b *testing.B) {
	e := env(b)
	opts := core.Options{MaxLen: 3, MaxCombinations: 4096, MaxPathsPerClass: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compute(context.Background(), e.G, e.SG, [][2]string{paper.PairPD}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputeParallel measures the offline Topology Computation
// module across worker counts: the same AllTops computation for every
// Table 1 entity-set pair, spread over 1, 2, 4 and 8 workers. The
// workers=1 case is the sequential baseline; cmd/benchtab exposes the
// same knob as -workers so the offline-phase speedup can be reported
// at larger scales.
func BenchmarkComputeParallel(b *testing.B) {
	e := env(b)
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := core.Options{
				MaxLen: 3, MaxCombinations: 4096, MaxPathsPerClass: 64,
				Parallelism: w,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(context.Background(), e.G, e.SG,
					paper.Table1Pairs(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8SchemaEnumeration regenerates Figure 8: all possible
// 2-topologies relating Proteins and DNAs, enumerated from the schema.
func BenchmarkFig8SchemaEnumeration(b *testing.B) {
	sg := biozon.SchemaGraph()
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		res, err := core.EnumerateSchemaTopologies(sg, biozon.Protein, biozon.DNA,
			core.SchemaEnumOptions{MaxLen: 2})
		if err != nil {
			b.Fatal(err)
		}
		n = len(res.Canons)
	}
	b.ReportMetric(float64(n), "topologies")
}

// BenchmarkFig11FrequencyDistribution regenerates Figure 11: the
// topology frequency distributions and their Zipf fit for the four
// entity-set pairs the paper plots.
func BenchmarkFig11FrequencyDistribution(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	var slope float64
	for i := 0; i < b.N; i++ {
		series := paper.Fig11(e)
		slope = series[0].Slope
	}
	b.ReportMetric(slope, "loglog-slope-PD")
}

// BenchmarkFig12TopTopologies regenerates Figure 12: the details of the
// ten most frequent Protein-DNA topologies.
func BenchmarkFig12TopTopologies(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	var paths int
	for i := 0; i < b.N; i++ {
		rows := paper.Fig12(e, 10)
		paths = 0
		for _, r := range rows {
			if r.IsPath {
				paths++
			}
		}
	}
	b.ReportMetric(float64(paths), "path-shaped-of-top10")
}

// BenchmarkTable1Space measures the Topology Pruning module
// (Section 4.2): deriving LeftTops and ExcpTops from AllTops for every
// Table 1 entity-set pair, reporting the achieved space ratio.
func BenchmarkTable1Space(b *testing.B) {
	e := env(b)
	for _, pair := range paper.Table1Pairs() {
		pair := pair
		b.Run(pair[0]+"_"+pair[1], func(b *testing.B) {
			st := e.Store(pair)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st.Res.Prune(e.Setup.PruneThreshold)
			}
			r := st.Space()
			b.ReportMetric(100*r.Ratio, "space-%")
		})
	}
}

// BenchmarkTable2Methods measures each of the nine evaluation methods
// on the Protein-Interaction pair across the protein predicate
// selectivities (interaction predicate fixed at medium, ranking fixed
// at domain, k=10) — one cell per sub-benchmark of the paper's Table 2.
func BenchmarkTable2Methods(b *testing.B) {
	e := env(b)
	st := e.Store(paper.PairPI)
	p2, err := paper.PredFor(st.T2, "medium")
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range methods.AllMethods() {
		for _, sel := range paper.SelLevels {
			m, sel := m, sel
			b.Run(fmt.Sprintf("%s/protein=%s", m, sel), func(b *testing.B) {
				p1, err := paper.PredFor(st.T1, sel)
				if err != nil {
					b.Fatal(err)
				}
				q := methods.Query{Pred1: p1, Pred2: p2, K: 10, Ranking: ranking.Domain}
				if m == methods.MethodSQL || m == methods.MethodFullTop || m == methods.MethodFastTop {
					q.K, q.Ranking = 0, ""
				}
				b.ReportAllocs()
				var res methods.QueryResult
				for i := 0; i < b.N; i++ {
					var runErr error
					res, runErr = st.Run(m, q)
					if runErr != nil {
						b.Fatal(runErr)
					}
				}
				b.ReportMetric(float64(len(res.Items)), "results")
			})
		}
	}
}

// BenchmarkFastTop measures the parallel online Fast-Top path across
// query worker counts: the windowed LeftTops join plus one existence
// check per pruned topology, the checks spread over the same pool.
// The selective protein predicate makes the pruned checks drain their
// plans (few witnesses), which is the regime the parallel pool speeds
// up; results are byte-identical at every worker count.
func BenchmarkFastTop(b *testing.B) {
	e := env(b)
	st := e.Store(paper.PairPI)
	p1, err := paper.PredFor(st.T1, "selective")
	if err != nil {
		b.Fatal(err)
	}
	p2, err := paper.PredFor(st.T2, "medium")
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			q := methods.Query{Pred1: p1, Pred2: p2, Parallelism: w}
			b.ReportAllocs()
			var res methods.QueryResult
			for i := 0; i < b.N; i++ {
				var runErr error
				res, runErr = st.FastTop(q)
				if runErr != nil {
					b.Fatal(runErr)
				}
			}
			b.ReportMetric(float64(len(res.Items)), "results")
		})
	}
}

// BenchmarkETTop measures the early-termination method (Fast-Top-k-ET)
// across worker counts. Its DGJ stack is sequential by design (early
// termination is a serial decision), so only the pruned-topology merge
// uses the workers.
func BenchmarkETTop(b *testing.B) {
	e := env(b)
	st := e.Store(paper.PairPI)
	p1, err := paper.PredFor(st.T1, "medium")
	if err != nil {
		b.Fatal(err)
	}
	p2, err := paper.PredFor(st.T2, "medium")
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 8} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			q := methods.Query{Pred1: p1, Pred2: p2, K: 10,
				Ranking: ranking.Domain, Parallelism: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.FastTopKET(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSQLMethod measures the Section 3.1 strawman across worker
// counts: the per-candidate-topology queries are independent, so the
// slowest method in Table 2 is also the most parallelizable one.
func BenchmarkSQLMethod(b *testing.B) {
	e := env(b)
	st := e.Store(paper.PairPI)
	p1, err := paper.PredFor(st.T1, "selective")
	if err != nil {
		b.Fatal(err)
	}
	p2, err := paper.PredFor(st.T2, "medium")
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			q := methods.Query{Pred1: p1, Pred2: p2, Parallelism: w}
			b.ReportAllocs()
			var res methods.QueryResult
			for i := 0; i < b.N; i++ {
				var runErr error
				res, runErr = st.SQLMethod(q)
				if runErr != nil {
					b.Fatal(runErr)
				}
			}
			b.ReportMetric(float64(len(res.Items)), "results")
		})
	}
}

var (
	l4Once sync.Once
	l4St   *methods.Store
	l4Err  error
)

// l4Store builds (once) an l=4 Protein-Interaction store on a fresh
// copy of the benchmark database, with the Appendix B
// weak-relationship rules applied as the paper proposes.
func l4Store(b *testing.B) *methods.Store {
	b.Helper()
	l4Once.Do(func() {
		cfg := biozon.DefaultConfig(1)
		db := biozon.Generate(cfg)
		l4St, l4Err = methods.BuildStore(context.Background(), db, biozon.SchemaGraph(),
			biozon.Protein, biozon.Interaction, methods.StoreConfig{
				Opts: core.Options{
					MaxLen:           4,
					MaxCombinations:  2048,
					MaxPathsPerClass: 32,
					Weak:             core.DefaultWeakRules(),
				},
				PruneThreshold: 3,
				Scores:         ranking.Schemes(),
			})
	})
	if l4Err != nil {
		b.Fatal(l4Err)
	}
	return l4St
}

// BenchmarkTable3PathLen4 measures Fast-Top-k-Opt on an l=4 store
// across protein selectivities — the paper's Table 3.
func BenchmarkTable3PathLen4(b *testing.B) {
	st := l4Store(b)
	p2, err := paper.PredFor(st.T2, "medium")
	if err != nil {
		b.Fatal(err)
	}
	for _, sel := range paper.SelLevels {
		sel := sel
		b.Run("protein="+sel, func(b *testing.B) {
			p1, err := paper.PredFor(st.T1, sel)
			if err != nil {
				b.Fatal(err)
			}
			q := methods.Query{Pred1: p1, Pred2: p2, K: 10, Ranking: ranking.Domain}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.FastTopKOpt(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*st.Space().Ratio, "space-%")
		})
	}
}

// BenchmarkVaryK measures Fast-Top-k-Opt for growing k (Section 6.2.4).
func BenchmarkVaryK(b *testing.B) {
	e := env(b)
	st := e.Store(paper.PairPI)
	p1, _ := paper.PredFor(st.T1, "medium")
	p2, _ := paper.PredFor(st.T2, "medium")
	for _, k := range []int{1, 10, 50, 100} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			q := methods.Query{Pred1: p1, Pred2: p2, K: k, Ranking: ranking.Domain}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.FastTopKOpt(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstanceRetrieval measures materializing the instances and a
// witness subgraph for a frequent vs a rare topology (Section 6.2.4:
// "1-50 seconds depending on the frequency of the topology").
func BenchmarkInstanceRetrieval(b *testing.B) {
	e := env(b)
	st := e.Store(paper.PairPD)
	pd := st.Res.Pair("Protein", "DNA")
	ids, freqs := pd.FrequencyRank()
	if len(ids) < 2 {
		b.Skip("not enough topologies")
	}
	cases := []struct {
		name string
		idx  int
	}{
		{"frequent", 0},
		{"rare", len(ids) - 1},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			tid := ids[c.idx]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inst := st.Res.Instances("Protein", "DNA", tid)
				if len(inst) > 0 {
					core.WitnessFor(e.G, st.Res.Reg, inst[0][0], inst[0][1], tid, st.Cfg.Opts)
				}
			}
			b.ReportMetric(float64(freqs[c.idx]), "freq")
		})
	}
}

// BenchmarkAblationNoPruning isolates the pruning benefit: Fast-Top
// with the real threshold vs a store whose threshold is effectively
// infinite (degenerating to Full-Top's table sizes).
func BenchmarkAblationNoPruning(b *testing.B) {
	e := env(b)
	st := e.Store(paper.PairPI)
	p1, _ := paper.PredFor(st.T1, "medium")
	p2, _ := paper.PredFor(st.T2, "medium")
	q := methods.Query{Pred1: p1, Pred2: p2}
	b.Run("pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st.FastTop(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unpruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st.FullTop(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationHDGJvsIDGJ compares the two DGJ implementations
// head-to-head on the same ET query (the paper only reports best/worst
// plans for one cell).
func BenchmarkAblationHDGJvsIDGJ(b *testing.B) {
	e := env(b)
	st := e.Store(paper.PairPI)
	p1, _ := paper.PredFor(st.T1, "unselective")
	p2, _ := paper.PredFor(st.T2, "unselective")
	for _, hdgj := range []bool{false, true} {
		hdgj := hdgj
		name := "idgj"
		if hdgj {
			name = "hdgj"
		}
		b.Run(name, func(b *testing.B) {
			q := methods.Query{Pred1: p1, Pred2: p2, K: 10,
				Ranking: ranking.Rare, UseHDGJ: hdgj}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.FullTopKET(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCostModel measures the optimizer's cost model
// itself: the Theorem 1 dynamic program over a realistic group profile.
func BenchmarkAblationCostModel(b *testing.B) {
	cards := make([]float64, 800)
	for i := range cards {
		cards[i] = float64(1 + i%40)
	}
	stack := optimizer.StackStats{
		Cards: cards,
		Joins: []optimizer.JoinStats{
			{N: 20000, I: optimizer.DefaultProbeCostET, Rho: 0.5, S: 1.0 / 20000},
			{N: 20000, I: optimizer.DefaultProbeCostET, Rho: 0.5, S: 1.0 / 20000},
		},
	}
	b.ReportAllocs()
	var cost float64
	for i := 0; i < b.N; i++ {
		cost = stack.ETCost(10)
	}
	b.ReportMetric(cost, "predicted-cost")
}

// BenchmarkCanonScaling measures the canonicalizer across topology
// sizes, the core of topology identity.
func BenchmarkCanonScaling(b *testing.B) {
	for _, n := range []int{4, 8, 12, 16} {
		n := n
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			g := &canon.Graph{}
			labels := []string{"Protein", "DNA", "Unigene", "Interaction"}
			for i := 0; i < n; i++ {
				g.Labels = append(g.Labels, labels[i%len(labels)])
			}
			for i := 0; i < n; i++ {
				g.Edges = append(g.Edges, canon.Edge{U: i, V: (i + 1) % n, Label: "e"})
				if i%3 == 0 && i+2 < n {
					g.Edges = append(g.Edges, canon.Edge{U: i, V: i + 2, Label: "f"})
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				canon.Canonical(g)
			}
		})
	}
}

// coldGridKeys returns the first n keys of the serve-cold grid walked at
// seed 42, the keys offline-build's search panel starts with (the grid
// of bench/workloads.go: {token subset on cons1} x {token subset on
// cons2} x {DNA type} x k x ranking x method). Every key is distinct.
func coldGridKeys(n int) []toposearch.SearchQuery {
	tokens := []string{"kwsel15", "kwsel50", "kwsel85", "enzyme"}
	types := []string{"", "mRNA", "genomic", "EST"}
	rankings := []string{toposearch.RankFreq, toposearch.RankRare, toposearch.RankDomain}
	allK := []string{"full-top", "fast-top"}
	topK := []string{"full-top", "fast-top", "full-top-k", "fast-top-k",
		"full-top-k-et", "fast-top-k-et", "full-top-k-opt", "fast-top-k-opt"}
	const perCell = 2 + 20*3*8
	const size = 16 * 16 * 4 * perCell
	subset := func(mask int) []toposearch.Constraint {
		var cs []toposearch.Constraint
		for b, tok := range tokens {
			if mask&(1<<b) != 0 {
				cs = append(cs, toposearch.Constraint{Column: "desc", Keyword: tok})
			}
		}
		return cs
	}
	keys := make([]toposearch.SearchQuery, n)
	for i, g := range rand.New(rand.NewSource(42)).Perm(size)[:n] {
		cell, r := g/perCell, g%perCell
		q := toposearch.SearchQuery{Cons1: subset(cell & 15), Cons2: subset((cell >> 4) & 15)}
		if typ := types[cell>>8]; typ != "" {
			q.Cons2 = append(q.Cons2, toposearch.Constraint{Column: "type", Equals: typ})
		}
		if r < 2 {
			q.Method = allK[r]
		} else {
			r -= 2
			q.K, q.Ranking, q.Method = 1+r/24, rankings[(r%24)/8], topK[r%8]
		}
		keys[i] = q
	}
	return keys
}

// BenchmarkColdMiss replays a fixed 200-key slice of the serve-cold grid
// on the benchmark's database (scale 4, seed 42) through a cache-off
// Searcher, one sub-benchmark per method: an op is one result-cache
// miss, cycling through that method's keys, so time and allocations
// per miss are per method and repeatable.
func BenchmarkColdMiss(b *testing.B) {
	db, err := toposearch.Synthetic(4, 42)
	if err != nil {
		b.Fatal(err)
	}
	cfg := toposearch.DefaultSearcherConfig()
	cfg.CacheBytes = -1
	s, err := db.NewSearcher(toposearch.Protein, toposearch.DNA, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	byMethod := map[string][]toposearch.SearchQuery{}
	var order []string
	for _, q := range coldGridKeys(200) {
		if byMethod[q.Method] == nil {
			order = append(order, q.Method)
		}
		byMethod[q.Method] = append(byMethod[q.Method], q)
	}
	sort.Strings(order)
	for _, m := range order {
		keys := byMethod[m]
		b.Run(m, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Search(keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
