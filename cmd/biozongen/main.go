// Command biozongen generates a synthetic Biozon-like database and
// prints its table and degree statistics, for inspecting the workload
// the benchmarks run on.
package main

import (
	"flag"
	"fmt"
	"sort"

	"toposearch/internal/biozon"
	"toposearch/internal/graph"
)

func main() {
	var (
		scale = flag.Int("scale", 2, "size multiplier")
		seed  = flag.Int64("seed", 42, "generator seed")
	)
	flag.Parse()

	cfg := biozon.DefaultConfig(*scale)
	cfg.Seed = *seed
	db := biozon.Generate(cfg)

	fmt.Printf("synthetic Biozon database (scale %d, seed %d)\n\n", *scale, *seed)
	fmt.Printf("%-24s %10s %12s\n", "table", "rows", "approx size")
	var total int64
	names := db.TableNames()
	sort.Strings(names)
	for _, name := range names {
		t := db.MustTable(name)
		b := t.ApproxBytes()
		total += b
		fmt.Printf("%-24s %10d %11.1fKB\n", name, t.NumRows(), float64(b)/1024)
	}
	fmt.Printf("%-24s %10s %11.1fKB\n", "total", "", float64(total)/1024)

	g, err := graph.Build(db, biozon.SchemaGraph())
	if err != nil {
		fmt.Println("graph build failed:", err)
		return
	}
	fmt.Printf("\ngraph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// Degree skew per entity set.
	fmt.Printf("\n%-14s %8s %8s %8s\n", "entity set", "count", "avgdeg", "maxdeg")
	for _, es := range []string{biozon.Protein, biozon.DNA, biozon.Unigene,
		biozon.Interaction, biozon.Family, biozon.Pathway, biozon.Structure} {
		tid, ok := g.NodeTypes.Lookup(es)
		if !ok {
			continue
		}
		nodes := g.NodesOfType(tid)
		sum, maxd := 0, 0
		for _, n := range nodes {
			d := g.Degree(n)
			sum += d
			if d > maxd {
				maxd = d
			}
		}
		avg := 0.0
		if len(nodes) > 0 {
			avg = float64(sum) / float64(len(nodes))
		}
		fmt.Printf("%-14s %8d %8.2f %8d\n", es, len(nodes), avg, maxd)
	}

	// Keyword selectivities on Protein.
	prot := db.MustTable(biozon.TabProtein)
	fmt.Printf("\nProtein.desc keyword selectivities:\n")
	for _, level := range []string{"selective", "medium", "unselective"} {
		p, err := biozon.SelectivityPred(prot.Schema, level)
		if err != nil {
			continue
		}
		n := 0
		prot.ScanPos(func(pos int32) bool {
			if p.EvalAt(prot, pos) {
				n++
			}
			return true
		})
		fmt.Printf("  %-12s %6.1f%%\n", level, 100*float64(n)/float64(prot.NumRows()))
	}
}
