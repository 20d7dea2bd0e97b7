package core

import (
	"cmp"
	"runtime"
	"slices"

	"toposearch/internal/graph"
)

// Options controls topology computation.
type Options struct {
	// MaxLen is the path-length bound l (the paper uses 3 and 4).
	MaxLen int
	// MaxCombinations bounds how many representative combinations the
	// Definition 2 enumeration inspects per entity pair. The paper hits
	// the same combinatorial blow-up for weak relationships with
	// thousands of instance paths per class (Section 6.2.3); the cap
	// keeps precomputation bounded while canonical-form deduplication
	// keeps the result set exact in all non-pathological cases.
	MaxCombinations int
	// MaxPathsPerClass bounds the representatives considered per
	// equivalence class (0 = unlimited).
	MaxPathsPerClass int
	// Weak optionally filters out weak-relationship schema paths before
	// computation (Appendix B).
	Weak *WeakRules
	// Parallelism is the worker count of the offline computation: start
	// nodes are spread across this many workers (0 = GOMAXPROCS,
	// 1 = sequential). Results are byte-identical at every setting.
	Parallelism int
}

// DefaultOptions returns the options used across the reproduction:
// l = 3, as in most of the paper's experiments.
func DefaultOptions() Options {
	return Options{MaxLen: 3, MaxCombinations: 4096, MaxPathsPerClass: 64}
}

func (o Options) withDefaults() Options {
	if o.MaxLen == 0 {
		o.MaxLen = 3
	}
	if o.MaxCombinations == 0 {
		o.MaxCombinations = 4096
	}
	return o
}

// EffectiveMaxLen resolves the path-length bound (0 = the default).
// Incremental maintenance derives the affected-frontier BFS radius
// from it, so every caller must resolve the default the same way the
// computation itself does.
func (o Options) EffectiveMaxLen() int { return o.withDefaults().MaxLen }

// Workers resolves the effective worker count of the Parallelism
// setting (0 = GOMAXPROCS). The online evaluation methods use the same
// resolution for their query-time worker pools.
func (o Options) Workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// PathClasses computes l-PathEC(a,b) (Definition 1): the simple paths
// of length <= maxLen between a and b, grouped into equivalence classes
// by their type signature. Classes are returned with deterministically
// ordered members.
func PathClasses(g *graph.Graph, a, b graph.NodeID, maxLen int) map[graph.PathSig][]graph.Path {
	classes := make(map[graph.PathSig][]graph.Path)
	g.SimplePaths(a, b, maxLen, func(p graph.Path) bool {
		sig := g.Signature(p)
		classes[sig] = append(classes[sig], p.Clone())
		return true
	})
	for _, paths := range classes {
		slices.SortFunc(paths, comparePaths)
	}
	return classes
}

// comparePaths orders paths by length, then node sequence, then edge
// sequence.
func comparePaths(p, q graph.Path) int {
	if c := cmp.Compare(len(p.Nodes), len(q.Nodes)); c != 0 {
		return c
	}
	if c := slices.Compare(p.Nodes, q.Nodes); c != 0 {
		return c
	}
	return slices.Compare(p.Edges, q.Edges)
}

// classReps lists a pair's classes in signature order with the
// representatives the Definition 2 enumeration draws from each.
func classReps(classes map[graph.PathSig][]graph.Path, opts Options) ([]graph.PathSig, [][]graph.Path) {
	sigs := make([]graph.PathSig, 0, len(classes))
	for s := range classes {
		sigs = append(sigs, s)
	}
	slices.Sort(sigs)
	reps := make([][]graph.Path, len(sigs))
	for i, s := range sigs {
		reps[i] = classes[s]
		if opts.MaxPathsPerClass > 0 && len(reps[i]) > opts.MaxPathsPerClass {
			reps[i] = reps[i][:opts.MaxPathsPerClass]
		}
	}
	return sigs, reps
}

// TopologiesFromClasses computes l-Top(a,b) (Definition 2) given the
// pair's path equivalence classes: every way of choosing one
// representative path per class, unioned into a graph, reduced to its
// equivalence class. Results are registered in reg and returned as a
// sorted, duplicate-free ID list.
func TopologiesFromClasses(g *graph.Graph, reg *Registry,
	classes map[graph.PathSig][]graph.Path, opts Options) []TopologyID {
	opts = opts.withDefaults()
	sigs, reps := classReps(classes, opts)
	out := newUnions(g).topologies(reg, reps, sigs, opts, nil)
	slices.Sort(out)
	return out
}

// TopologiesOf computes l-Top(a,b) directly from the data graph.
func TopologiesOf(g *graph.Graph, reg *Registry, a, b graph.NodeID, opts Options) []TopologyID {
	opts = opts.withDefaults()
	return TopologiesFromClasses(g, reg, PathClasses(g, a, b, opts.MaxLen), opts)
}
