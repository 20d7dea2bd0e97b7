// Command topsearch runs a topology search over a generated
// Biozon-like database from the command line.
//
// Usage:
//
//	topsearch [flags]
//
//	-es1/-es2        entity sets (default Protein / DNA)
//	-kw1/-kw2        keyword constraint on the desc column of each side
//	-eq2             equality constraint col=value on entity set 2
//	-k               top-k (0 = all results)
//	-rank            ranking: freq | rare | domain
//	-method          evaluation method (default fast-top-k-opt / fast-top)
//	-scale/-seed     synthetic database size and seed
//	-figure3         use the paper's Figure 3 example database
//	-l               path-length bound
//	-prune           pruning threshold (-1 disables)
//	-explain         print the optimizer's plan choice
//	-instances       print up to N instance pairs per topology
//	-workers         worker count for precomputation and queries (0 = all cores)
//	-apply           replay a JSONL mutation batch, then Refresh incrementally
//	-repeat          run the query N times, timing each (shows result-cache hits)
//	-cachebytes      result-cache memory bound (0 = 64 MiB default, negative disables)
//	-metrics-addr    serve /metrics, /statsz and /debug/pprof on this address
//	-trace           record a per-query trace and print the span tree
//	-trace-json      like -trace, but print the span tree as JSON
//	-stats           print a metrics snapshot (cache, admission, refresh) after the run
//
// The -apply file carries one mutation per line:
//
//	{"entity": "Protein", "id": 1900001, "attrs": {"desc": "novel enzyme"}}
//	{"rel": "encodes", "a": 1900001, "b": 2000005}
//
// The batch is applied after the offline phase, the searcher refreshes
// incrementally (recomputing only the affected start-node frontier),
// and the query then runs against the updated topology tables —
// demonstrating live updates without a from-scratch rebuild.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"toposearch"
	"toposearch/internal/serve"
)

// readBatch parses a JSONL mutation file into staged updates (the
// format is shared with toposerve's POST /v1/apply, see serve.ParseBatch).
func readBatch(path string) ([]toposearch.Update, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return serve.ParseBatch(f, path)
}

func main() {
	var (
		es1     = flag.String("es1", toposearch.Protein, "first entity set")
		es2     = flag.String("es2", toposearch.DNA, "second entity set")
		kw1     = flag.String("kw1", "", "keyword constraint on entity set 1 desc")
		kw2     = flag.String("kw2", "", "keyword constraint on entity set 2 desc")
		eq2     = flag.String("eq2", "", "equality constraint col=value on entity set 2")
		k       = flag.Int("k", 10, "top-k (0 = all)")
		rank    = flag.String("rank", toposearch.RankDomain, "ranking: freq|rare|domain")
		method  = flag.String("method", "", "evaluation method override")
		scale   = flag.Int("scale", 2, "synthetic database scale")
		seed    = flag.Int64("seed", 42, "generator seed")
		figure3 = flag.Bool("figure3", false, "use the paper's Figure 3 database")
		l       = flag.Int("l", 3, "path length bound")
		prune   = flag.Int("prune", 8, "pruning threshold (-1 disables)")
		explain = flag.Bool("explain", false, "print the optimizer plan")
		instN   = flag.Int("instances", 2, "instance pairs to print per topology")
		weak    = flag.Bool("weak-pruning", false, "apply Appendix B weak-relationship rules")
		workers = flag.Int("workers", 0, "worker count for the offline precomputation and online queries (0 = all cores)")
		apply   = flag.String("apply", "", "JSONL mutation batch to apply and Refresh before querying")
		repeat  = flag.Int("repeat", 1, "run the query this many times, timing each (repeats hit the result cache)")
		cacheB  = flag.Int64("cachebytes", 0, "result-cache memory bound in bytes (0 = 64 MiB default, negative disables)")
		metrics = flag.String("metrics-addr", "", "serve /metrics, /statsz and /debug/pprof on this address (e.g. :9090) and enable telemetry recording")
		traceF  = flag.Bool("trace", false, "record a per-query trace and print the span tree")
		traceJ  = flag.Bool("trace-json", false, "record a per-query trace and print the span tree as JSON")
		statsF  = flag.Bool("stats", false, "enable telemetry recording and print a metrics snapshot (cache, admission, refresh) after the run")
	)
	flag.Parse()

	if *metrics != "" {
		srv, bound, err := toposearch.ServeMetrics(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics (pprof at /debug/pprof/, JSON at /statsz)\n", bound)
	}
	if *statsF {
		toposearch.SetMetricsEnabled(true)
	}

	// Ctrl-C aborts the offline computation and any running query with
	// a context error instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var db *toposearch.DB
	var err error
	if *figure3 {
		db, err = toposearch.Figure3()
	} else {
		db, err = toposearch.Synthetic(*scale, *seed)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d entities, %d relationships (entity sets: %s)\n",
		db.NumEntities(), db.NumRelationships(), strings.Join(db.EntitySets(), ", "))

	cfg := toposearch.SearcherConfig{
		MaxLen:          *l,
		PruneThreshold:  *prune,
		MaxCombinations: 4096,
		WeakPruning:     *weak,
		Parallelism:     *workers,
		CacheBytes:      *cacheB,
	}
	s, err := db.NewSearcherContext(ctx, *es1, *es2, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("precomputed %d topologies for %s-%s (%d pruned)\n\n",
		s.TopologyCount(), *es1, *es2, s.PrunedCount())

	if *apply != "" {
		ups, err := readBatch(*apply)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if err := db.ApplyBatch(ups); err != nil {
			log.Fatal(err)
		}
		applySec := time.Since(start)
		start = time.Now()
		edges, err := s.RefreshContext(ctx)
		if err != nil {
			log.Fatal(err)
		}
		refreshSec := time.Since(start)
		db.Compact()
		fmt.Printf("applied %d mutations in %v; incremental refresh of %d new relationships in %v\n",
			len(ups), applySec.Round(time.Microsecond), edges, refreshSec.Round(time.Microsecond))
		fmt.Printf("database now: %d entities, %d relationships; %d topologies (%d pruned)\n\n",
			db.NumEntities(), db.NumRelationships(), s.TopologyCount(), s.PrunedCount())
	}

	q := toposearch.SearchQuery{K: *k, Ranking: *rank, Method: *method, Trace: *traceF || *traceJ}
	if *kw1 != "" {
		q.Cons1 = append(q.Cons1, toposearch.Constraint{Column: "desc", Keyword: *kw1})
	}
	if *kw2 != "" {
		q.Cons2 = append(q.Cons2, toposearch.Constraint{Column: "desc", Keyword: *kw2})
	}
	if *eq2 != "" {
		col, val, ok := strings.Cut(*eq2, "=")
		if !ok {
			fmt.Fprintln(os.Stderr, "-eq2 must be col=value")
			os.Exit(2)
		}
		q.Cons2 = append(q.Cons2, toposearch.Constraint{Column: col, Equals: val})
	}

	if *explain {
		plan, err := s.Explain(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(plan)
	}

	// -repeat re-runs the identical query: the first run pays the full
	// method execution, repeats answer from the generation-tagged result
	// cache (byte-identical, see SearchResult.CacheHit).
	if *repeat < 1 {
		*repeat = 1
	}
	var res *toposearch.SearchResult
	for i := 0; i < *repeat; i++ {
		start := time.Now()
		res, err = s.SearchContext(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		if *repeat > 1 {
			outcome := "miss"
			if res.CacheHit {
				outcome = "hit"
			}
			fmt.Printf("run %d: %v (cache %s)\n", i+1, time.Since(start), outcome)
		}
	}
	if *repeat > 1 {
		cs := s.CacheStats()
		fmt.Printf("cache: %d hits / %d misses, %d evicted, %d invalidated, %d entries (%d bytes) resident\n\n",
			cs.Hits, cs.Misses, cs.Evictions, cs.Invalidated, cs.Entries, cs.Bytes)
	}
	fmt.Printf("%d topologies (method %s", len(res.Topologies), res.Method)
	if res.Plan != "" {
		fmt.Printf(", plan %s", res.Plan)
	}
	fmt.Println("):")
	for i, tp := range res.Topologies {
		fmt.Printf("\n#%d topology %d  score=%d freq=%d  %d nodes / %d edges / %d class(es)\n",
			i+1, tp.ID, tp.Score, tp.Frequency, tp.Nodes, tp.Edges, tp.Classes)
		fmt.Printf("   %s\n", tp.Structure)
		for _, pair := range s.Instances(tp.ID, *instN) {
			fmt.Printf("   instance %d-%d\n", pair[0], pair[1])
			if lines, ok := s.Witness(pair[0], pair[1], tp.ID); ok {
				for _, ln := range lines {
					fmt.Printf("     %s\n", ln)
				}
			}
		}
	}

	if *traceF && res.Trace != nil {
		fmt.Println("\ntrace:")
		res.Trace.Render(os.Stdout)
	}
	if *traceJ && res.Trace != nil {
		out, err := json.MarshalIndent(res.Trace, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n", out)
	}
	if *statsF {
		printStats(s)
	}
}

// statsFamilies selects the metric families -stats prints: the result
// cache, admission control, refresh/apply and delta-size counters.
var statsFamilies = []string{
	"toposearch_cache_",
	"toposearch_searcher_",
	"toposearch_refresh_",
	"toposearch_apply_",
	"toposearch_delta_bytes",
	"toposearch_query_duration_seconds_count",
}

// printStats prints the searcher's own counters plus a filtered view of
// the engine metric registry (the same samples GET /metrics serves).
func printStats(s *toposearch.Searcher) {
	st := s.Stats()
	cs := s.CacheStats()
	fmt.Println("\nstats:")
	fmt.Printf("  admission: %d admitted, %d rejected, %d degraded; %d partials, %d panics contained\n",
		st.Admitted, st.Rejected, st.Degraded, st.Partials, st.PanicsContained)
	fmt.Printf("  cache: %d hits / %d misses, %d evicted, %d invalidated; %d entries (%d bytes) resident\n",
		cs.Hits, cs.Misses, cs.Evictions, cs.Invalidated, cs.Entries, cs.Bytes)
	var buf strings.Builder
	if err := toposearch.WriteMetricsText(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  metrics:")
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, fam := range statsFamilies {
			if strings.HasPrefix(line, fam) {
				fmt.Printf("    %s\n", line)
				break
			}
		}
	}
}
