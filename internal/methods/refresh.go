package methods

import (
	"context"

	"toposearch/internal/core"
	"toposearch/internal/fault"
	"toposearch/internal/graph"
	"toposearch/internal/obs"
)

// faultRefresh fires at the start of a refresh materialization (chaos
// harness). A refresh only ever builds a NEW store generation — the
// receiver is immutable — so failing here proves refresh atomicity:
// the caller keeps serving the old generation.
var faultRefresh = fault.Register("methods.refresh")

// RefreshDiff describes how a refresh produced its new store
// generation — which tables were carried over, spliced, or rebuilt,
// and the stability facts the table splice relies on.
type RefreshDiff struct {
	// TidStable reports that the topology registry survived the update
	// with every pre-existing topology keeping its ID (new topologies
	// may have been appended). It is the precondition for splicing any
	// table; when false the tables are fully rebuilt.
	TidStable bool
	// PrunedStable reports that both generations pruned exactly the
	// same topologies in the same order — the extra precondition for
	// splicing LeftTops and ExcpTops.
	PrunedStable bool
	// Per-table materialization outcomes.
	AllTops, LeftTops, ExcpTops, TopInfo core.TableDiff
}

// RefreshDiff derives a new Store generation for the same entity-set
// pair after the database absorbed inserts: the topology data is
// maintained incrementally — core.UpdateResult recomputes only the
// affected start-node frontier on the configured worker pool and
// renumbers the merged result exactly as a from-scratch rebuild would
// — then the pruning pass reruns over the merged data and the four
// precomputed tables are refreshed and their indexes and statistics
// warmed.
//
// Instead of rematerializing all four tables from scratch, each
// table's unchanged row runs are bulk-copied from the previous
// generation (or the whole table reused when nothing in it changed)
// and only rows belonging to the affected frontier — plus
// frequency-drifted TopInfo rows — are re-encoded. The table contents
// are byte-identical to a full rematerialization in every mode; the
// returned diff reports what each table actually did.
//
// The receiver is left untouched: queries running against it keep
// their consistent snapshot (its table pointers survive even though
// the catalog now names the new generation's tables). Callers swap the
// returned Store in once it is ready — the public Searcher.Refresh
// does this atomically.
//
// g must be the grown data graph and affected the start-node frontier
// derived from the inserts applied since this store was built (see
// delta.AffectedStarts). The result is byte-identical to
// BuildStoreFromGraph over g, at any parallelism, but only pays path
// enumeration for the frontier.
func (s *Store) RefreshDiff(ctx context.Context, g *graph.Graph, affected map[graph.NodeID]bool) (*Store, *RefreshDiff, error) {
	if err := faultRefresh.Hit(); err != nil {
		return nil, nil, err
	}
	res, err := core.UpdateResult(ctx, g, s.SG, s.Res, s.ES1, s.ES2, affected, s.opts())
	if err != nil {
		return nil, nil, err
	}
	pr := res.Prune(s.Cfg.PruneThreshold)
	d := &RefreshDiff{
		TidStable:    registryStable(s.Res.Reg, res.Reg),
		PrunedStable: pr.PrunedStable(s.Pr, s.ES1, s.ES2),
	}
	ns := &Store{
		DB: s.DB, G: g, SG: s.SG, Res: res, Pr: pr,
		ES1: s.ES1, ES2: s.ES2, T1: s.T1, T2: s.T2,
		Cfg:       s.Cfg,
		Gen:       s.Gen + 1,
		sigToPath: s.sigToPath, // schema paths are static; shared read-only
	}
	if err := ns.materializeDiff(s, affected, d); err != nil {
		return nil, nil, err
	}
	if obs.Enabled() {
		obsRefreshTables.With("AllTops", d.AllTops.Mode).Inc()
		obsRefreshTables.With("LeftTops", d.LeftTops.Mode).Inc()
		obsRefreshTables.With("ExcpTops", d.ExcpTops.Mode).Inc()
		obsRefreshTables.With("TopInfo", d.TopInfo.Mode).Inc()
	}
	if err := ns.warmIndexes(); err != nil {
		return nil, nil, err
	}
	return ns, d, nil
}

// materializeDiff fills ns's four tables from old's generation plus
// the recomputed data, splicing where the stability preconditions hold
// and falling back to full rebuilds where they don't, recording each
// table's outcome in d.
func (ns *Store) materializeDiff(old *Store, affected map[graph.NodeID]bool, d *RefreshDiff) error {
	if !d.TidStable {
		// Topology renumbering invalidates every row-level equality
		// argument: rebuild everything.
		if err := ns.materialize(); err != nil {
			return err
		}
		d.AllTops = core.TableDiff{Mode: "rebuilt", Rows: ns.AllTops.NumRows()}
		d.LeftTops = core.TableDiff{Mode: "rebuilt", Rows: ns.LeftTops.NumRows()}
		d.ExcpTops = core.TableDiff{Mode: "rebuilt", Rows: ns.ExcpTops.NumRows()}
		d.TopInfo = core.TableDiff{Mode: "rebuilt", Rows: ns.TopInfo.NumRows()}
		return nil
	}
	var err error
	if ns.AllTops, d.AllTops, err = ns.Res.MaterializeAllTopsDiff(ns.DB, ns.ES1, ns.ES2, old.Res, old.AllTops, affected); err != nil {
		return err
	}
	if ns.LeftTops, ns.ExcpTops, d.LeftTops, d.ExcpTops, err = ns.Pr.MaterializeDiff(ns.DB, ns.ES1, ns.ES2, old.Pr, old.LeftTops, old.ExcpTops, affected); err != nil {
		return err
	}
	if ns.TopInfo, d.TopInfo, err = ns.Res.MaterializeTopInfoDiff(ns.DB, ns.ES1, ns.ES2, ns.Cfg.Scores, old.Res, old.TopInfo); err != nil {
		return err
	}
	ns.PrunedTIDs = append([]core.TopologyID(nil), ns.Pr.Pair(ns.ES1, ns.ES2).PrunedTIDs...)
	return nil
}

// registryStable reports whether every topology of the old registry
// kept its ID and canonical form in the new one (the new registry may
// have grown beyond it).
func registryStable(old, new *core.Registry) bool {
	o, n := old.All(), new.All()
	if len(n) < len(o) {
		return false
	}
	for i, info := range o {
		if n[i].Canon != info.Canon {
			return false
		}
	}
	return true
}

// RefreshShallow returns a new Store generation that only swaps the
// data graph — for batches that inserted entities but no relationships,
// where the topology tables cannot have changed. The generation tag is
// deliberately kept: cached results stay valid because no-edge entities
// relate to nothing.
func (s *Store) RefreshShallow(g *graph.Graph) *Store {
	ns := *s
	ns.G = g
	return &ns
}
