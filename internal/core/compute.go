package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"toposearch/internal/fault"
	"toposearch/internal/graph"
)

// faultStart fires per claimed start node inside the worker pool,
// exercising worker-level failure and panic containment (chaos
// harness).
var faultStart = fault.Register("core.start")

// Entry is one row of the (All|Left)Tops tables: entity pair (A, B)
// related by topology TID.
type Entry struct {
	A, B graph.NodeID
	TID  TopologyID
}

type pairKey struct{ a, b graph.NodeID }

// PairData holds the computed topology information for one entity-set
// pair: the AllTops rows, per-topology frequencies, and the per-pair
// path-class signatures (kept so the Pruning module can derive the
// exception table).
type PairData struct {
	ES1, ES2 string
	Entries  []Entry
	Freq     map[TopologyID]int

	classSets map[pairKey][]graph.PathSig
	// cellTops records each cell's topology IDs in within-cell
	// discovery order (the order a sequential run would register them).
	// UpdateResult replays unaffected cells from it, so an incremental
	// refresh renumbers topologies exactly as a from-scratch rebuild
	// over the grown database would.
	cellTops map[pairKey][]TopologyID
}

// ClassSet returns the path-equivalence-class signatures relating the
// entity pair (empty when unrelated).
func (pd *PairData) ClassSet(a, b graph.NodeID) []graph.PathSig {
	return pd.classSets[pairKey{a, b}]
}

// NumPairs returns how many entity pairs are related by at least one
// topology.
func (pd *PairData) NumPairs() int { return len(pd.classSets) }

// FrequencyRank returns topology IDs sorted by descending frequency
// (ties by ID), with their frequencies — the data behind Figures 11
// and 12.
func (pd *PairData) FrequencyRank() ([]TopologyID, []int) {
	ids := make([]TopologyID, 0, len(pd.Freq))
	for id := range pd.Freq {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if pd.Freq[ids[i]] != pd.Freq[ids[j]] {
			return pd.Freq[ids[i]] > pd.Freq[ids[j]]
		}
		return ids[i] < ids[j]
	})
	freqs := make([]int, len(ids))
	for i, id := range ids {
		freqs[i] = pd.Freq[id]
	}
	return ids, freqs
}

// Result is the output of the Topology Computation module: the global
// topology registry plus per-entity-set-pair AllTops data.
type Result struct {
	Reg   *Registry
	Opts  Options
	Pairs map[[2]string]*PairData

	canon canonStats
}

// canonStats counts the unions whose canonical form a computation
// looked up (calls) and those for which it ran the canonicalizer
// (misses); the rest were answered by the workers' shape memos.
type canonStats struct{ calls, misses int }

// CanonStats reports how many unions the computation reduced to a
// canonical form and for how many of them it ran the canonicalizer —
// for an incremental update, those of the recomputed frontier only.
func (res *Result) CanonStats() (calls, misses int) {
	return res.canon.calls, res.canon.misses
}

// Pair returns the data for an entity-set pair, or nil.
func (res *Result) Pair(es1, es2 string) *PairData {
	return res.Pairs[[2]string{es1, es2}]
}

// TopsOf returns l-Top(a,b) as recorded for the entity-set pair.
func (res *Result) TopsOf(es1, es2 string, a, b graph.NodeID) []TopologyID {
	pd := res.Pair(es1, es2)
	if pd == nil {
		return nil
	}
	// Entries are ordered by (A, B), and by TID within a pair.
	i, _ := slices.BinarySearchFunc(pd.Entries, pairKey{a, b}, func(e Entry, k pairKey) int {
		return cmp.Or(cmp.Compare(e.A, k.a), cmp.Compare(e.B, k.b))
	})
	var out []TopologyID
	for ; i < len(pd.Entries) && pd.Entries[i].A == a && pd.Entries[i].B == b; i++ {
		out = append(out, pd.Entries[i].TID)
	}
	return out
}

// Compute runs the Topology Computation module (Section 4.1) for the
// given entity-set pairs: it enumerates schema paths of length <=
// opts.MaxLen between each pair, materializes every conforming instance
// path, groups paths by entity pair and equivalence class, and derives
// each pair's l-topologies per Definition 2. Weak schema paths are
// dropped when opts.Weak is set.
//
// Start nodes are spread across opts.Parallelism workers; the output —
// Entries order, Freq, class sets and registry ID assignment — is
// byte-identical at every parallelism level. Cancellation is checked at
// start-node granularity: when ctx is cancelled, Compute returns
// ctx.Err() promptly without waiting for the remaining start nodes.
func Compute(ctx context.Context, g *graph.Graph, sg *graph.SchemaGraph, pairs [][2]string, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{Reg: NewRegistry(), Opts: opts, Pairs: make(map[[2]string]*PairData)}
	for _, pr := range pairs {
		pd, err := computePair(ctx, g, sg, res, pr[0], pr[1], opts)
		if err != nil {
			return nil, err
		}
		res.Pairs[pr] = pd
	}
	return res, nil
}

// startOutput is the per-start-node work unit result: for each end
// node b (ascending), the topology IDs in the producing worker's local
// registry (in within-cell discovery order) and the pair's class
// signatures.
type startOutput struct {
	reg   *Registry // the worker-local registry the tids refer to
	cells []cellOutput
}

type cellOutput struct {
	b    graph.NodeID
	tids []TopologyID // local registry IDs, within-cell discovery order
	sigs []graph.PathSig
}

func computePair(ctx context.Context, g *graph.Graph, sg *graph.SchemaGraph, res *Result, es1, es2 string, opts Options) (*PairData, error) {
	schemaPaths, err := sg.EnumeratePaths(es1, es2, opts.MaxLen)
	if err != nil {
		return nil, fmt.Errorf("core: computing %s-%s: %w", es1, es2, err)
	}
	if opts.Weak != nil {
		kept := schemaPaths[:0]
		for _, sp := range schemaPaths {
			if !opts.Weak.IsWeak(sg, sp) {
				kept = append(kept, sp)
			}
		}
		schemaPaths = kept
	}
	pd := newPairData(es1, es2)
	selfPair := es1 == es2
	t1, ok := g.NodeTypes.Lookup(es1)
	if !ok {
		return pd, nil // entity set empty in this database
	}
	starts := slices.Sorted(slices.Values(g.NodesOfType(t1)))

	results, err := runStarts(ctx, g, sg, starts, schemaPaths, selfPair, opts, &res.canon)
	if err != nil {
		return nil, fmt.Errorf("core: computing %s-%s: %w", es1, es2, err)
	}

	// Phase 2: merge in ascending start-node order. Adopting each
	// cell's topologies in within-cell discovery order replays the
	// exact registration order of a sequential run (a canonical form's
	// first global appearance is always at a cell where its worker also
	// first saw it, so the cell-local order restricted to new forms is
	// the sequential registration order), and therefore global IDs —
	// and with them Entries and Freq — come out byte-identical for
	// every parallelism level.
	for i := range results {
		mergeStart(res.Reg, pd, starts[i], &results[i])
	}
	return pd, nil
}

func newPairData(es1, es2 string) *PairData {
	return &PairData{
		ES1:       es1,
		ES2:       es2,
		Freq:      make(map[TopologyID]int),
		classSets: make(map[pairKey][]graph.PathSig),
		cellTops:  make(map[pairKey][]TopologyID),
	}
}

// runStarts is phase 1 of the topology computation: fan the given
// start nodes out over a worker pool. Each worker interns topologies
// into its own local registry, so the hot path takes no locks; results
// land in the per-start slot, so no two goroutines share state beyond
// the atomic work counter. The incremental-update path reuses it over
// just the affected start-node frontier. The workers' canonicalization
// counts are added to stats.
//
// Workers are failure-contained: a panic in one worker is recovered
// into a *fault.PanicError, cancels the siblings, and surfaces as the
// pool's error — it never escapes to the caller's goroutine. When both
// a real failure and the resulting cancellation are observed, the real
// failure wins.
func runStarts(ctx context.Context, g *graph.Graph, sg *graph.SchemaGraph, starts []graph.NodeID,
	schemaPaths []graph.SchemaPath, selfPair bool, opts Options, stats *canonStats) ([]startOutput, error) {
	workers := opts.Workers()
	if workers > len(starts) {
		workers = len(starts)
	}
	if workers < 1 {
		workers = 1
	}
	// A path materialized along a schema path has that schema path's
	// signature, so classes are told apart per schema path, not per
	// instance path: sigs are the distinct signatures in ascending
	// order and classOf maps each schema path to its signature's index.
	spSigs := make([]graph.PathSig, len(schemaPaths))
	for i, sp := range schemaPaths {
		spSigs[i] = sp.TypeSignature(sg)
	}
	sigs := slices.Compact(slices.Sorted(slices.Values(spSigs)))
	classOf := make([]int, len(schemaPaths))
	for i, s := range spSigs {
		classOf[i], _ = slices.BinarySearch(sigs, s)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]startOutput, len(starts))
	var next atomic.Int64
	var failMu sync.Mutex
	var failErr error
	fail := func(err error) {
		failMu.Lock()
		// Prefer the first non-cancellation error: a worker observing
		// ctx.Canceled after a sibling panicked must not mask the panic.
		if failErr == nil || (errors.Is(failErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			failErr = err
		}
		failMu.Unlock()
		cancel()
	}
	pool := make([]*startWorker, workers)
	var wg sync.WaitGroup
	for i := range pool {
		w := &startWorker{reg: NewRegistry(), sc: g.NewScratch(), u: newUnions(g), sigs: sigs, classOf: classOf}
		pool[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					fail(fault.NewPanicError("core.start", v))
				}
			}()
			for {
				// Cancellation is checked before claiming each start
				// node (and, more finely, inside computeStart — one
				// l=4 start node can run for seconds). ctx.Err() is
				// sticky, so an abort inside the final unit is still
				// observed here before the worker exits.
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(starts) {
					return
				}
				if err := faultStart.Hit(); err != nil {
					fail(err)
					return
				}
				results[i] = w.computeStart(ctx, g, sg, starts[i], schemaPaths, selfPair, opts)
			}
		}()
	}
	wg.Wait()
	if failErr != nil {
		return nil, failErr
	}
	for _, w := range pool {
		stats.calls += w.u.calls
		stats.misses += w.u.misses
	}
	return results, nil
}

// mergeStart folds one start node's recomputed cells into the global
// registry and pair data: adopt in discovery order, record the cell's
// discovery-order IDs for future incremental updates, then emit the
// sorted Entries rows.
func mergeStart(reg *Registry, pd *PairData, a graph.NodeID, ro *startOutput) {
	for _, cell := range ro.cells {
		gids := make([]TopologyID, len(cell.tids))
		for j, lid := range cell.tids {
			gids[j] = reg.Adopt(ro.reg.Info(lid))
		}
		mergeCell(pd, a, cell.b, gids, cell.sigs)
	}
}

// mergeCell records one cell given its topology IDs in discovery
// order. It takes ownership of gids (both callers build a fresh slice
// per cell).
func mergeCell(pd *PairData, a, b graph.NodeID, gids []TopologyID, sigs []graph.PathSig) {
	key := pairKey{a, b}
	pd.cellTops[key] = gids
	sorted := gids
	if !slices.IsSorted(gids) {
		sorted = slices.Clone(gids)
		slices.Sort(sorted)
	}
	for _, tid := range sorted {
		pd.Entries = append(pd.Entries, Entry{A: a, B: b, TID: tid})
		pd.Freq[tid]++
	}
	pd.classSets[key] = sigs
}

// cancelCheckStride is how many materialized paths a work unit lets
// through between context checks inside the enumeration DFS.
const cancelCheckStride = 1024

// startWorker is one pool worker's state: the local registry its
// topology IDs refer to, and the buffers it reuses from start node to
// start node (the same reuse the online SQLMethod's per-worker state
// applies), so that a start node allocates only what its output keeps.
type startWorker struct {
	reg *Registry
	sc  *graph.Scratch
	u   *unions
	// sigs and classOf are shared by the pool, read-only (see runStarts).
	sigs    []graph.PathSig
	classOf []int

	found []foundPath
	// Backing arrays of the found paths. A path is cut out of them as
	// it is appended, capacity clipped; when one of them grows into a
	// new array the earlier paths keep pointing into the old one, whose
	// contents never change.
	nodes []graph.NodeID
	edges []int64
	types []graph.TypeID
	paths []graph.Path   // found paths in (end node, class, path) order
	reps  [][]graph.Path // the current cell's representatives per class
}

// foundPath is an instance path from the start node to end node b in
// class sigs[class].
type foundPath struct {
	b     graph.NodeID
	class int
	path  graph.Path
}

// computeStart processes one start node: materialize every conforming
// instance path from a, group by end node and equivalence class, and
// derive each (a, b) cell's topologies into the worker-local registry.
//
// Cancellation is additionally checked every cancelCheckStride
// materialized paths and before each (a, b) cell, so even a
// pathologically expensive start node (l=4 with weak relationships)
// aborts quickly. On abort the partial output is irrelevant: Compute
// discards everything and returns ctx.Err().
func (w *startWorker) computeStart(ctx context.Context, g *graph.Graph, sg *graph.SchemaGraph,
	a graph.NodeID, schemaPaths []graph.SchemaPath, selfPair bool, opts Options) startOutput {
	out := startOutput{reg: w.reg}
	w.found, w.nodes, w.edges, w.types = w.found[:0], w.nodes[:0], w.edges[:0], w.types[:0]
	npaths := 0
	for i, sp := range schemaPaths {
		g.PathsAlongScratch(w.sc, sg, sp, a, func(p graph.Path) bool {
			npaths++
			if npaths%cancelCheckStride == 0 && ctx.Err() != nil {
				return false
			}
			b := p.End()
			if selfPair && b <= a {
				return true // counted from the smaller endpoint
			}
			nn, ne := len(w.nodes), len(w.edges)
			w.nodes, w.edges, w.types = append(w.nodes, p.Nodes...), append(w.edges, p.Edges...), append(w.types, p.Types...)
			w.found = append(w.found, foundPath{b: b, class: w.classOf[i], path: graph.Path{
				Nodes: slices.Clip(w.nodes[nn:]), Edges: slices.Clip(w.edges[ne:]), Types: slices.Clip(w.types[ne:]),
			}})
			return true
		})
		if ctx.Err() != nil {
			return out
		}
	}
	slices.SortFunc(w.found, func(x, y foundPath) int {
		if c := cmp.Or(cmp.Compare(x.b, y.b), cmp.Compare(x.class, y.class)); c != 0 {
			return c
		}
		return comparePaths(x.path, y.path)
	})
	w.paths = w.paths[:0]
	for _, f := range w.found {
		w.paths = append(w.paths, f.path)
	}
	// The cells' class sets and topology IDs are cut out of two arrays
	// per start node the same way the paths are.
	var sigs []graph.PathSig
	var tids []TopologyID
	for lo, hi := 0, 0; lo < len(w.found); lo = hi {
		if ctx.Err() != nil {
			return out
		}
		b := w.found[lo].b
		nsigs, ntids := len(sigs), len(tids)
		w.reps = w.reps[:0]
		for hi < len(w.found) && w.found[hi].b == b {
			class, from := w.found[hi].class, hi
			for hi < len(w.found) && w.found[hi].b == b && w.found[hi].class == class {
				hi++
			}
			sigs = append(sigs, w.sigs[class])
			to := hi
			if opts.MaxPathsPerClass > 0 && to-from > opts.MaxPathsPerClass {
				to = from + opts.MaxPathsPerClass
			}
			w.reps = append(w.reps, w.paths[from:to])
		}
		cellSigs := slices.Clip(sigs[nsigs:])
		tids = w.u.topologies(w.reg, w.reps, cellSigs, opts, tids)
		out.cells = append(out.cells, cellOutput{b: b, tids: slices.Clip(tids[ntids:]), sigs: cellSigs})
	}
	return out
}
