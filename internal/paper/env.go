// Package paper drives the reproduction of every table and
// figure in the paper's evaluation (Section 6): Table 1 (space
// requirements), Table 2 (query performance of all nine methods across
// predicate selectivities and ranking schemes), Table 3 (path length
// l=4), Figure 11 (Zipfian topology-frequency distributions), Figure 12
// (the most frequent Protein-DNA topologies), the vary-k experiment and
// the instance-retrieval cost experiment of Section 6.2.4.
package paper

import (
	"context"
	"fmt"
	"sync"
	"time"

	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/graph"
	"toposearch/internal/methods"
	"toposearch/internal/ranking"
	"toposearch/internal/relstore"
)

// Setup configures one experimental environment.
type Setup struct {
	// Scale multiplies the synthetic database size (see
	// biozon.DefaultConfig).
	Scale int
	// Seed drives the generator.
	Seed int64
	// PruneThreshold is the Fast-Top pruning threshold, scaled to the
	// generated data (the paper used 2M on the full Biozon).
	PruneThreshold int
	// L is the path-length bound (3 for most experiments).
	L int
	// MaxPathsPerClass caps the per-class representatives during
	// topology computation.
	MaxPathsPerClass int
	// Parallelism is the worker count for the offline precomputation
	// and, by inheritance through each store's options, for online
	// queries that leave Query.Parallelism at 0 (0 = GOMAXPROCS).
	Parallelism int
}

// Pairs used across the experiments (Table 1 lists five pairs; Figure
// 11 plots PD, DU, PI and PU).
var (
	PairPD = [2]string{biozon.Protein, biozon.DNA}
	PairPI = [2]string{biozon.Protein, biozon.Interaction}
	PairPU = [2]string{biozon.Protein, biozon.Unigene}
	PairDI = [2]string{biozon.DNA, biozon.Interaction}
	PairDU = [2]string{biozon.DNA, biozon.Unigene}
)

// Table1Pairs lists the entity-set pairs of the paper's Table 1.
func Table1Pairs() [][2]string {
	return [][2]string{PairPD, PairPI, PairPU, PairDI, PairDU}
}

// Env is a fully precomputed experimental environment: the generated
// database, its graph, and one method store per entity-set pair.
type Env struct {
	Setup  Setup
	DB     *relstore.DB
	G      *graph.Graph
	SG     *graph.SchemaGraph
	Stores map[[2]string]*methods.Store
}

// NewEnv generates the database and precomputes stores for all
// experiment pairs. The per-pair offline builds run concurrently over
// one shared database and data graph: each pair materializes into its
// own tables (the relstore catalog is concurrency-safe) and interns
// into its own registry, so the builds only share read-only state.
// Setup.Parallelism stays the total worker budget: it is split between
// concurrently-building pairs and the workers inside each build, so
// Parallelism=1 still runs everything sequentially. The context cancels
// the offline precomputation.
func NewEnv(ctx context.Context, s Setup) (*Env, error) {
	cfg := biozon.DefaultConfig(s.Scale)
	cfg.Seed = s.Seed
	db := biozon.Generate(cfg)
	sg := biozon.SchemaGraph()
	g, err := graph.Build(db, sg)
	if err != nil {
		return nil, err
	}
	env := &Env{Setup: s, DB: db, G: g, SG: sg, Stores: map[[2]string]*methods.Store{}}
	pairs := Table1Pairs()
	budget := core.Options{Parallelism: s.Parallelism}.Workers()
	buildConc := budget
	if buildConc > len(pairs) {
		buildConc = len(pairs)
	}
	// Ceiling split keeps the whole budget busy while all pairs build
	// (worst momentary excess: buildConc-1 workers). The tail — fewer
	// running builds than buildConc near the end — can leave part of
	// the budget idle; redistributing freed workers to still-running
	// builds would need a pool shared across Compute calls.
	perBuild := (budget + buildConc - 1) / buildConc
	stores := make([]*methods.Store, len(pairs))
	errs := make([]error, len(pairs))
	sem := make(chan struct{}, buildConc)
	var wg sync.WaitGroup
	for i, pair := range pairs {
		wg.Add(1)
		go func(i int, pair [2]string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			stores[i], errs[i] = methods.BuildStoreFromGraph(ctx, db, g, sg, pair[0], pair[1], methods.StoreConfig{
				Opts: core.Options{
					MaxLen:           s.L,
					MaxCombinations:  4096,
					MaxPathsPerClass: s.MaxPathsPerClass,
					Parallelism:      perBuild,
				},
				PruneThreshold: s.PruneThreshold,
				Scores:         ranking.Schemes(),
			})
		}(i, pair)
	}
	wg.Wait()
	for i, pair := range pairs {
		if errs[i] != nil {
			return nil, fmt.Errorf("paper: building store %v: %w", pair, errs[i])
		}
		// The throttled per-build worker count was an offline budget
		// split; queries on the finished store should default to the
		// full configured parallelism again.
		stores[i].Cfg.Opts.Parallelism = s.Parallelism
		env.Stores[pair] = stores[i]
	}
	return env, nil
}

// Store returns the precomputed store for a pair.
func (e *Env) Store(pair [2]string) *methods.Store { return e.Stores[pair] }

// SelLevels are the paper's three predicate selectivities.
var SelLevels = []string{"selective", "medium", "unselective"}

// PredFor builds the desc-keyword predicate of the given selectivity
// level for an entity table.
func PredFor(t *relstore.Table, level string) (relstore.Pred, error) {
	return biozon.SelectivityPred(t.Schema, level)
}

// Measure runs f reps times and returns the fastest wall-clock seconds
// (warm-cache timing, matching the paper's methodology of averaging
// warm runs).
func Measure(reps int, f func() error) (float64, error) {
	if reps < 1 {
		reps = 1
	}
	best := -1.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		sec := time.Since(start).Seconds()
		if best < 0 || sec < best {
			best = sec
		}
	}
	return best, nil
}
