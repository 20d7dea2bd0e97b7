package core

import (
	"context"
	"fmt"
	"slices"

	"toposearch/internal/graph"
)

// UpdateResult incrementally maintains a computed Result after the
// data graph grew: only the start nodes in the affected frontier (plus
// any brand-new start nodes in it) are recomputed — spread over the
// same worker pool as the offline phase — and their cells are merged
// with the untouched cells of the previous run into a fresh Result.
//
// The merge replays every cell, old and new, in the canonical order of
// a sequential from-scratch run — ascending start node, ascending end
// node, within-cell discovery order — adopting each topology's
// precomputed canonical form into a fresh registry. A topology's new
// ID is therefore assigned at its first appearance in exactly the
// order a full rebuild over the grown graph would assign it, so the
// returned Result (registry numbering, Entries, Freq, class sets) is
// byte-identical to Compute over the same graph, at any parallelism,
// while only paying path enumeration for the affected frontier.
//
// The previous Result is never mutated: queries holding it keep
// consistent state.
func UpdateResult(ctx context.Context, g *graph.Graph, sg *graph.SchemaGraph, old *Result,
	es1, es2 string, affected map[graph.NodeID]bool, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	oldPD := old.Pair(es1, es2)
	if oldPD == nil {
		return nil, fmt.Errorf("core: updating %s-%s: pair was never computed", es1, es2)
	}
	schemaPaths, err := sg.EnumeratePaths(es1, es2, opts.MaxLen)
	if err != nil {
		return nil, fmt.Errorf("core: updating %s-%s: %w", es1, es2, err)
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

	res := &Result{Reg: NewRegistry(), Opts: opts, Pairs: make(map[[2]string]*PairData)}
	pd := newPairData(es1, es2)
	res.Pairs[[2]string{es1, es2}] = pd

	selfPair := es1 == es2
	t1, ok := g.NodeTypes.Lookup(es1)
	if !ok {
		return res, nil // entity set empty in this database
	}
	starts := slices.Sorted(slices.Values(g.NodesOfType(t1)))

	// Phase 1: recompute only the affected frontier, in ascending order,
	// on the worker pool.
	var dirty []graph.NodeID
	for _, a := range starts {
		if affected[a] {
			dirty = append(dirty, a)
		}
	}
	recomputed, err := runStarts(ctx, g, sg, dirty, schemaPaths, selfPair, opts, &res.canon)
	if err != nil {
		return nil, fmt.Errorf("core: updating %s-%s: %w", es1, es2, err)
	}

	// Phase 2: replay all starts in ascending order, taking affected
	// ones from the recomputation and the rest from the previous run's
	// retained per-cell discovery orders.
	oldEntries := oldPD.Entries
	oi := 0 // cursor into oldEntries, which are (start asc, end asc) ordered
	di := 0 // cursor into dirty/recomputed
	for _, a := range starts {
		if affected[a] {
			// Skip this start's old entries; its cells are replaced.
			for oi < len(oldEntries) && oldEntries[oi].A == a {
				oi++
			}
			mergeStart(res.Reg, pd, a, &recomputed[di])
			di++
			continue
		}
		// Unaffected: replay the old cells. Their content is unchanged —
		// no path of length <= MaxLen from this start can reach a new
		// edge — so adopting the retained discovery order reproduces the
		// sequential registration order over the grown graph.
		for oi < len(oldEntries) && oldEntries[oi].A == a {
			b := oldEntries[oi].B
			for oi < len(oldEntries) && oldEntries[oi].A == a && oldEntries[oi].B == b {
				oi++
			}
			key := pairKey{a, b}
			oldIDs := oldPD.cellTops[key]
			gids := make([]TopologyID, len(oldIDs))
			for j, lid := range oldIDs {
				gids[j] = res.Reg.Adopt(old.Reg.Info(lid))
			}
			mergeCell(pd, a, b, gids, oldPD.classSets[key])
		}
	}
	if oi != len(oldEntries) {
		// Start nodes never disappear (the mutation model is insert-only),
		// so every old entry must have been consumed.
		return nil, fmt.Errorf("core: updating %s-%s: %d stale entries for start nodes missing from the graph",
			es1, es2, len(oldEntries)-oi)
	}
	return res, nil
}
