// Command benchtab regenerates the paper's evaluation tables and
// figures on a synthetic Biozon-like database and prints them in the
// paper's layout.
//
// Usage:
//
//	benchtab -exp table1|table2|table3|fig8|fig11|fig12|varyk|instances|all [flags]
//
// The system's performance is measured by the benchmark in bench/, not
// here.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/paper"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run")
		scale   = flag.Int("scale", 2, "synthetic database scale")
		seed    = flag.Int64("seed", 42, "generator seed")
		k       = flag.Int("k", 10, "top-k for the query experiments")
		reps    = flag.Int("reps", 3, "timing repetitions (fastest wins)")
		thr     = flag.Int("prune", 6, "pruning threshold")
		sql     = flag.Bool("sql", true, "include the SQL strawman in table2")
		workers = flag.Int("workers", 0, "worker count for the offline precomputation and online queries (0 = all cores)")
	)
	flag.Parse()

	// Ctrl-C aborts the (long) offline precomputation cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	need := func(name string) bool { return *exp == "all" || *exp == name }

	// Figure 8 needs no database.
	if need("fig8") {
		fmt.Println("== Figure 8: all possible 2-topologies relating Protein and DNA ==")
		res, err := core.EnumerateSchemaTopologies(biozon.SchemaGraph(),
			biozon.Protein, biozon.DNA, core.SchemaEnumOptions{MaxLen: 2})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d possible 2-topologies (from %d glued unions):\n", len(res.Canons), res.Unions)
		for i, c := range res.Canons {
			fmt.Printf("  %2d. %s\n", i+1, c)
		}
		fmt.Println("\nl=3 blow-up (the paper counts 88453 over ten schema paths):")
		start := time.Now()
		res3, err := core.EnumerateSchemaTopologies(biozon.SchemaGraph(),
			biozon.Protein, biozon.DNA,
			core.SchemaEnumOptions{MaxLen: 3, MaxResults: 100000, MaxUnions: 3000000})
		if err != nil {
			log.Fatal(err)
		}
		trunc := ""
		if res3.Truncated {
			trunc = "+ (truncated)"
		}
		fmt.Printf("  %d%s distinct 3-topologies from %d unions in %v\n",
			len(res3.Canons), trunc, res3.Unions, time.Since(start).Round(time.Millisecond))
		fmt.Println()
		if *exp != "all" {
			return
		}
	}

	fmt.Printf("building environment (scale %d, seed %d, prune %d)...\n", *scale, *seed, *thr)
	start := time.Now()
	env, err := paper.NewEnv(ctx, paper.Setup{
		Scale: *scale, Seed: *seed, PruneThreshold: *thr, L: 3, MaxPathsPerClass: 64,
		Parallelism: *workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("environment ready in %v: %d entities, %d relationships\n\n",
		time.Since(start).Round(time.Millisecond), env.G.NumNodes(), env.G.NumEdges())

	if need("table1") {
		fmt.Println("== Table 1: space requirements (Full-Top vs Fast-Top) ==")
		paper.PrintTable1(os.Stdout, paper.Table1(env))
		fmt.Println()
	}
	if need("fig11") {
		fmt.Println("== Figure 11: distribution of topology frequency ==")
		paper.PrintFig11(os.Stdout, paper.Fig11(env))
		fmt.Println()
	}
	if need("fig12") {
		fmt.Println("== Figure 12: top-10 most frequent Protein-DNA 3-topologies ==")
		paper.PrintFig12(os.Stdout, paper.Fig12(env, 10))
		fmt.Println()
	}
	if need("table2") {
		fmt.Println("== Table 2: query time (seconds) of all methods ==")
		cells, err := paper.Table2(env, paper.Table2Options{
			K: *k, Reps: *reps, IncludeSQL: *sql,
		})
		if err != nil {
			log.Fatal(err)
		}
		paper.PrintTable2(os.Stdout, cells)
		fmt.Println()
	}
	if need("table3") {
		fmt.Println("== Table 3: l=4 space overhead and Fast-Top-k-Opt time ==")
		res, err := paper.Table3(ctx, env, paper.Table3Options{K: *k, Reps: *reps})
		if err != nil {
			log.Fatal(err)
		}
		paper.PrintTable3(os.Stdout, res)
		fmt.Println()
	}
	if need("varyk") {
		fmt.Println("== Section 6.2.4: varying k (Fast-Top-k-Opt) ==")
		cells, err := paper.VaryK(env, []int{1, 10, 50, 100}, *reps)
		if err != nil {
			log.Fatal(err)
		}
		paper.PrintVaryK(os.Stdout, cells)
		fmt.Println()
	}
	if need("instances") {
		fmt.Println("== Section 6.2.4: instance retrieval cost by topology frequency ==")
		cells, err := paper.InstanceRetrieval(env, 8)
		if err != nil {
			log.Fatal(err)
		}
		paper.PrintInstanceRetrieval(os.Stdout, cells)
		fmt.Println()
	}
}
