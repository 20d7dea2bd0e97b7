// Package methods implements the nine query-evaluation strategies of
// the paper's experimental evaluation (Section 6.1): SQL, Full-Top,
// Fast-Top, Full-Top-k, Fast-Top-k, Full-Top-k-ET, Fast-Top-k-ET,
// Full-Top-k-Opt and Fast-Top-k-Opt. Each method answers the same
// 2-query — find the l-topologies relating two predicate-filtered
// entity sets — but with different mixes of precomputation, pruning,
// early termination, and cost-based plan choice.
package methods

import (
	"context"
	"fmt"

	"toposearch/internal/core"
	"toposearch/internal/graph"
	"toposearch/internal/relstore"
)

// StoreConfig controls the offline phase: topology computation options
// (including Opts.Parallelism, the offline worker count), the pruning
// threshold (Section 4.2.2), and the ranking score functions
// materialized into TopInfo.
type StoreConfig struct {
	Opts core.Options
	// PruneThreshold prunes topologies with frequency strictly greater
	// than this value (the paper used 2M on full Biozon; scale it to
	// the generated database).
	PruneThreshold int
	// Scores maps ranking names to score functions.
	Scores map[string]core.ScoreFunc
}

// Store bundles the precomputed artifacts for one entity-set pair: the
// base data, the data graph, the topology registry, and the
// materialized AllTops / LeftTops / ExcpTops / TopInfo tables
// (Figure 10's architecture).
//
// A built Store is safe for concurrent queries: BuildStore pre-creates
// every index and statistics object the nine evaluation methods touch,
// so the online phase never mutates shared table state, and each query
// accumulates work into its own counters.
type Store struct {
	DB  *relstore.DB
	G   *graph.Graph
	SG  *graph.SchemaGraph
	Res *core.Result
	Pr  *core.Pruned

	ES1, ES2 string
	T1, T2   *relstore.Table // entity tables

	AllTops  *relstore.Table
	LeftTops *relstore.Table
	ExcpTops *relstore.Table
	TopInfo  *relstore.Table

	PrunedTIDs []core.TopologyID
	Cfg        StoreConfig

	// Gen numbers the store generation within a refresh chain: 0 for a
	// from-scratch build, +1 per (non-shallow) Refresh. The result
	// cache tags entries with it so a cached answer can never be served
	// against a store it was not computed (or proven equal) for.
	Gen uint64

	sigToPath map[graph.PathSig]graph.SchemaPath
}

// BuildStore runs the offline phase for one entity-set pair: build the
// graph, compute AllTops, prune, and materialize all tables into db.
// The context cancels the long-running topology computation.
func BuildStore(ctx context.Context, db *relstore.DB, sg *graph.SchemaGraph, es1, es2 string, cfg StoreConfig) (*Store, error) {
	if es1 == es2 {
		return nil, fmt.Errorf("methods: self-pair queries (%s-%s) are not supported by the evaluation methods", es1, es2)
	}
	g, err := graph.Build(db, sg)
	if err != nil {
		return nil, err
	}
	return BuildStoreFromGraph(ctx, db, g, sg, es1, es2, cfg)
}

// BuildStoreFromGraph is BuildStore with a prebuilt data graph (so
// several stores can share one graph).
func BuildStoreFromGraph(ctx context.Context, db *relstore.DB, g *graph.Graph, sg *graph.SchemaGraph, es1, es2 string, cfg StoreConfig) (*Store, error) {
	if es1 == es2 {
		return nil, fmt.Errorf("methods: self-pair queries (%s-%s) are not supported", es1, es2)
	}
	res, err := core.Compute(ctx, g, sg, [][2]string{{es1, es2}}, cfg.Opts)
	if err != nil {
		return nil, err
	}
	pr := res.Prune(cfg.PruneThreshold)
	s := &Store{
		DB: db, G: g, SG: sg, Res: res, Pr: pr,
		ES1: es1, ES2: es2, Cfg: cfg,
		sigToPath: make(map[graph.PathSig]graph.SchemaPath),
	}
	for _, es := range sg.Entities {
		if es.Name == es1 {
			s.T1 = db.Table(es.Table)
		}
		if es.Name == es2 {
			s.T2 = db.Table(es.Table)
		}
	}
	if s.T1 == nil || s.T2 == nil {
		return nil, fmt.Errorf("methods: entity tables for %s/%s not found", es1, es2)
	}
	if err := s.materialize(); err != nil {
		return nil, err
	}
	paths, err := sg.EnumeratePaths(es1, es2, s.opts().MaxLen)
	if err != nil {
		return nil, err
	}
	for _, sp := range paths {
		s.sigToPath[sp.TypeSignature(sg)] = sp
	}
	if err := s.warmIndexes(); err != nil {
		return nil, err
	}
	return s, nil
}

// materialize (re)builds the store's four precomputed tables in the
// catalog from its Result and Pruned data. Rebuilding a store for the
// same pair replaces its tables in the catalog; a previous store
// generation keeps its own table pointers, so in-flight queries are
// undisturbed.
func (s *Store) materialize() error {
	var err error
	for _, kind := range []string{"AllTops", "LeftTops", "ExcpTops", "TopInfo"} {
		s.DB.DropTable(core.TableName(kind, s.ES1, s.ES2))
	}
	if s.AllTops, err = s.Res.MaterializeAllTops(s.DB, s.ES1, s.ES2); err != nil {
		return err
	}
	if s.LeftTops, s.ExcpTops, err = s.Pr.Materialize(s.DB, s.ES1, s.ES2); err != nil {
		return err
	}
	if s.TopInfo, err = s.Res.MaterializeTopInfo(s.DB, s.ES1, s.ES2, s.Cfg.Scores); err != nil {
		return err
	}
	s.PrunedTIDs = append([]core.TopologyID(nil), s.Pr.Pair(s.ES1, s.ES2).PrunedTIDs...)
	return nil
}

// warmIndexes pre-creates every index and statistics object the online
// plans read, so concurrent queries on one Store never race to build
// shared table state: the entity-table hash indexes the tops joins and
// DGJ stacks probe, the relationship-table indexes the SQL5 path chains
// probe, and the lazily-built per-table statistics behind selectivity
// estimation and the optimizer's group histogram. (The tops tables and
// TopInfo already get their indexes at materialization time.)
func (s *Store) warmIndexes() error {
	for _, t := range []*relstore.Table{s.T1, s.T2} {
		if _, err := t.CreateHashIndex("ID"); err != nil {
			return err
		}
	}
	for _, sp := range s.sigToPath {
		prevType := sp.Start
		for i, st := range sp.Steps {
			relTab, nearCol, _, err := s.relStepCols(prevType, st, i)
			if err != nil {
				return err
			}
			if _, err := relTab.CreateHashIndex(nearCol); err != nil {
				return err
			}
			prevType = st.Next
		}
	}
	for _, t := range []*relstore.Table{s.T1, s.T2, s.AllTops, s.LeftTops, s.ExcpTops, s.TopInfo} {
		t.Stats()
	}
	// The E1 hash index is the probe index of the tops joins.
	_, err := s.AllTops.CreateHashIndex("E1")
	return err
}

func (s *Store) opts() core.Options {
	o := s.Cfg.Opts
	if o.MaxLen == 0 {
		o.MaxLen = 3
	}
	if o.MaxCombinations == 0 {
		o.MaxCombinations = 4096
	}
	return o
}

// scoreOf looks up a topology's score under the ranking.
func (s *Store) scoreOf(tid core.TopologyID, rk string) (int64, error) {
	pos, ok := s.TopInfo.PKPos(int64(tid))
	if !ok {
		return 0, fmt.Errorf("methods: topology %d not in TopInfo", tid)
	}
	col, ok := s.TopInfo.Schema.ColIndex(core.ScoreColumn(rk))
	if !ok {
		return 0, fmt.Errorf("methods: no ranking %q in TopInfo", rk)
	}
	return s.TopInfo.IntAt(pos, col), nil
}

// schemaPathFor returns the schema path whose signature matches the
// pruned topology's path class.
func (s *Store) schemaPathFor(tid core.TopologyID) (graph.SchemaPath, error) {
	info := s.Res.Reg.Info(tid)
	if info == nil {
		return graph.SchemaPath{}, fmt.Errorf("methods: unknown topology %d", tid)
	}
	if len(info.Sigs) != 1 {
		return graph.SchemaPath{}, fmt.Errorf("methods: topology %d is not a single-class path topology", tid)
	}
	sp, ok := s.sigToPath[info.Sigs[0]]
	if !ok {
		return graph.SchemaPath{}, fmt.Errorf("methods: no schema path for signature %q", info.Sigs[0])
	}
	return sp, nil
}

// SpaceReport summarizes the storage footprint of the precomputed
// tables — the data behind the paper's Table 1.
type SpaceReport struct {
	ES1, ES2                  string
	AllTopsBytes              int64
	LeftTopsBytes, ExcpBytes  int64
	AllTopsRows, LeftTopsRows int
	ExcpRows                  int
	Ratio                     float64 // (LeftTops+ExcpTops)/AllTops
}

// Space computes the Table 1 row for this store.
func (s *Store) Space() SpaceReport {
	r := SpaceReport{
		ES1: s.ES1, ES2: s.ES2,
		AllTopsBytes:  s.AllTops.ApproxBytes(),
		LeftTopsBytes: s.LeftTops.ApproxBytes(),
		ExcpBytes:     s.ExcpTops.ApproxBytes(),
		AllTopsRows:   s.AllTops.NumRows(),
		LeftTopsRows:  s.LeftTops.NumRows(),
		ExcpRows:      s.ExcpTops.NumRows(),
	}
	if r.AllTopsBytes > 0 {
		r.Ratio = float64(r.LeftTopsBytes+r.ExcpBytes) / float64(r.AllTopsBytes)
	}
	return r
}
