package core

import (
	"sort"

	"toposearch/internal/graph"
)

// Witness is one instance-level result: the representative paths whose
// union realizes a topology for a concrete entity pair (the
// "instance-level tuples of concrete examples" the paper reports under
// each topology).
type Witness struct {
	A, B  graph.NodeID
	TID   TopologyID
	Paths []graph.Path
}

// WitnessFor recomputes the path classes of (a, b) and searches for a
// combination of representatives whose union realizes topology tid. It
// returns the first witness in deterministic order, or ok=false when
// the pair is not related by tid.
func WitnessFor(g *graph.Graph, reg *Registry, a, b graph.NodeID, tid TopologyID, opts Options) (Witness, bool) {
	opts = opts.withDefaults()
	info := reg.Info(tid)
	if info == nil {
		return Witness{}, false
	}
	_, reps := classReps(PathClasses(g, a, b, opts.MaxLen), opts)
	u := newUnions(g)
	var found []graph.Path
	u.combinations(reps, opts.MaxCombinations, func(choice []graph.Path) bool {
		u.assemble(choice)
		if u.canonical() != info.Canon {
			return true
		}
		found = make([]graph.Path, len(choice))
		for j, p := range choice {
			found[j] = p.Clone()
		}
		return false
	})
	if found == nil {
		return Witness{}, false
	}
	return Witness{A: a, B: b, TID: tid, Paths: found}, true
}

// Instances returns every entity pair recorded as related by topology
// tid for the entity-set pair, in deterministic order. This is the
// lookup behind "for each topology we report all instance-level results
// that adhere to that topology".
func (res *Result) Instances(es1, es2 string, tid TopologyID) [][2]graph.NodeID {
	pd := res.Pair(es1, es2)
	if pd == nil {
		return nil
	}
	var out [][2]graph.NodeID
	for _, e := range pd.Entries {
		if e.TID == tid {
			out = append(out, [2]graph.NodeID{e.A, e.B})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
