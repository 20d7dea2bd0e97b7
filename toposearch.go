// Package toposearch is a from-scratch implementation of topology
// search over biological databases, after Guo, Shanmugasundaram and
// Yona: "Topology Search over Biological Databases".
//
// A topology summarizes, at the schema level, the complete set of
// relationships connecting two entities in a heterogeneous database:
// asking how transcription-factor proteins relate to DNA sequences
// returns not a flat list of paths but the distinct relationship
// *structures* — encoded-by, interacts-with, encoded-by-and-interacts
// (self-regulation), and so on — each backed by the concrete entity
// pairs that realize it.
//
// The package bundles the whole system the paper describes: a
// relational storage substrate, the graph view with bounded simple-path
// enumeration, labeled-graph canonicalization, the topology algebra
// (path equivalence classes, per-pair topologies, query results), the
// offline AllTops computation with frequency-based pruning into
// LeftTops and exception tables, a Volcano-style execution engine with
// the paper's Distinct Group Join operators, a cost-based optimizer
// with the early-termination cost model, and all nine evaluation
// methods from the paper's experiments.
//
// Both phases run on worker pools (SearcherConfig.Parallelism; results
// are byte-identical at every setting): the offline computation splits
// start nodes across workers, and each query splits its driving entity
// scan and the pruned-topology existence checks. The early-termination
// plans are sequential by design: one pass over the score-ordered
// group stream that stops once k groups have a witness. A built
// Searcher is safe for concurrent queries. Both phases are also
// cancellable: NewSearcherContext aborts the topology computation at
// start-node granularity, and SearchContext aborts running query
// plans, each returning the context's error.
//
// The database is live: DB.Insert/DB.ApplyBatch absorb new entities
// and relationships while searches keep running (delta columns over
// the sealed columnar arrays, copy-on-write graph extension), and
// Searcher.Refresh folds them into the precomputed tables
// incrementally — recomputing only the affected start-node frontier —
// with output byte-identical to rerunning the offline phase from
// scratch.
//
// Quick start:
//
//	db, _ := toposearch.Figure3()
//	s, _ := db.NewSearcher(toposearch.Protein, toposearch.DNA, toposearch.DefaultSearcherConfig())
//	res, _ := s.Search(toposearch.SearchQuery{
//		Cons1: []toposearch.Constraint{{Column: "desc", Keyword: "enzyme"}},
//		Cons2: []toposearch.Constraint{{Column: "type", Equals: "mRNA"}},
//	})
//	for _, t := range res.Topologies {
//		fmt.Println(t.Structure)
//	}
package toposearch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"toposearch/internal/biozon"
	"toposearch/internal/delta"
	"toposearch/internal/fault"
	"toposearch/internal/graph"
	"toposearch/internal/obs"
	"toposearch/internal/relstore"
)

// Entity set names of the built-in Biozon-like schema (Figure 1 of the
// paper).
const (
	Protein     = biozon.Protein
	DNA         = biozon.DNA
	Unigene     = biozon.Unigene
	Interaction = biozon.Interaction
	Family      = biozon.Family
	Pathway     = biozon.Pathway
	Structure   = biozon.Structure
)

// Ranking scheme names (Section 6.1 of the paper).
const (
	RankFreq   = "freq"   // common topologies first
	RankRare   = "rare"   // rare topologies first
	RankDomain = "domain" // structural proxy for the expert ranking
)

// DB is a biological database opened for topology search.
//
// A DB is live: Insert and ApplyBatch absorb new entities and
// relationships while searches keep running. Base-table predicates see
// new rows immediately; precomputed topology results change only when
// a Searcher calls Refresh (incremental maintenance over the affected
// start-node frontier). Mutations are serialized internally; any
// number of concurrent readers never block.
type DB struct {
	rel *relstore.DB
	sg  *graph.SchemaGraph
	g   atomic.Pointer[graph.Graph]

	mu      sync.Mutex // serializes ApplyBatch and guards cursors
	applier *delta.Applier
	log     *delta.Log
	// cursors registers, per live Searcher, the applied-edge log
	// position it has absorbed; the log is truncated below the minimum
	// so it stops growing with the lifetime of the DB.
	cursors map[*Searcher]int
	// autoCompactFrac, when positive, triggers Compact after a batch
	// once the un-compacted write state exceeds this fraction of the
	// total footprint.
	autoCompactFrac float64
	// approxCache remembers the last measured total footprint so the
	// per-batch policy check stays O(delta state). Between compactions
	// the total only grows, so comparing against a stale (smaller)
	// value can only trigger the exact re-measure early, never skip a
	// compaction. Compact shrinks the total (delta int64 cells are
	// re-packed at their sealed widths), so it clears the cache, and
	// the next check re-measures. Guarded by mu, so a check can never
	// store a total measured before a concurrent Compact.
	approxCache int64
}

// Figure3 opens the paper's 11-entity running-example database
// (Figure 3): the ground truth for the T1–T4 result of query Q1.
func Figure3() (*DB, error) {
	return open(biozon.Figure3DB())
}

// Synthetic generates a Biozon-like database whose relationship degrees
// follow a Zipf distribution, sized by scale (1 is ~1.3k entities) and
// seeded deterministically.
func Synthetic(scale int, seed int64) (*DB, error) {
	cfg := biozon.DefaultConfig(scale)
	cfg.Seed = seed
	return open(biozon.Generate(cfg))
}

// SyntheticConfig generates a database from an explicit generator
// configuration.
func SyntheticConfig(cfg biozon.GenConfig) (*DB, error) {
	return open(biozon.Generate(cfg))
}

func open(rel *relstore.DB) (*DB, error) {
	sg := biozon.SchemaGraph()
	g, err := graph.Build(rel, sg)
	if err != nil {
		return nil, fmt.Errorf("toposearch: %w", err)
	}
	db := &DB{rel: rel, sg: sg, applier: delta.NewApplier(rel, sg),
		log: &delta.Log{}, cursors: make(map[*Searcher]int)}
	db.g.Store(g)
	return db, nil
}

// truncateLogLocked drops applied-edge log entries below the minimum
// cursor of the live searchers (all of them, when none is registered:
// a future searcher starts at the log's current end). Callers hold
// db.mu.
func (db *DB) truncateLogLocked() {
	min := db.log.Len()
	for _, cur := range db.cursors {
		if cur < min {
			min = cur
		}
	}
	db.log.TruncateBelow(min)
}

// graphNow returns the current published data graph.
func (db *DB) graphNow() *graph.Graph { return db.g.Load() }

// EntitySets lists the schema's entity sets.
func (db *DB) EntitySets() []string { return db.sg.EntitySetNames() }

// NumEntities returns the number of entities (graph nodes).
func (db *DB) NumEntities() int { return db.graphNow().NumNodes() }

// NumRelationships returns the number of relationships (graph edges).
func (db *DB) NumRelationships() int { return db.graphNow().NumEdges() }

// Update is one staged mutation for Insert/ApplyBatch: either a new
// entity or a new relationship. Build them with InsertEntity and
// InsertRelationship.
type Update = delta.Mutation

// InsertEntity stages a new entity: its set, its globally unique
// integer ID, and its string attributes by column name (missing
// attributes default to ""). For example:
//
//	toposearch.InsertEntity(toposearch.Protein, 1900001,
//		map[string]string{"desc": "novel zinc finger enzyme"})
func InsertEntity(set string, id int64, attrs map[string]string) Update {
	return delta.Entity(set, id, attrs)
}

// InsertRelationship stages a new relationship between two existing
// entities (or entities staged earlier in the same batch). The
// relationship set is named by its edge label; when several sets share
// a label (Biozon's two "interaction" tables) the endpoints' entity
// sets disambiguate, and the endpoint order may be given either way
// around.
func InsertRelationship(rel string, a, b int64) Update {
	return delta.Relationship(rel, a, b)
}

// Insert applies a single mutation. Equivalent to ApplyBatch with one
// element; prefer ApplyBatch for bulk loads (one graph version per
// batch instead of one per row).
func (db *DB) Insert(u Update) error { return db.ApplyBatch([]Update{u}) }

// ApplyBatch validates and applies a batch of mutations atomically:
// on the first validation error nothing is touched, and a failure (or
// contained panic) mid-application rolls every touched table back to
// its pre-batch state — the batch either lands whole or leaves no
// trace. New rows land in the storage engine's delta columns without
// blocking concurrent searches, and the data graph is extended
// copy-on-write, so queries in flight keep their consistent snapshot.
// Precomputed topology results (and therefore Search output) reflect
// the batch only after each Searcher's Refresh.
func (db *DB) ApplyBatch(us []Update) (err error) {
	var t0 time.Time
	if obs.Enabled() {
		t0 = time.Now()
	}
	var frac float64
	edges := 0
	func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		// Containment boundary: Applier.Apply already recovers and rolls
		// back its own panics; this guard covers the publication steps so
		// a panic can never leak with db.mu held (which would deadlock
		// every future mutation).
		defer fault.RecoverTo(&err, "db.applybatch")
		ng, applied, aerr := db.applier.Apply(db.graphNow(), delta.Batch(us))
		if aerr != nil {
			err = aerr
			return
		}
		db.g.Store(ng)
		db.log.Append(applied.Edges)
		edges = len(applied.Edges)
		frac = db.autoCompactFrac
	}()
	if !t0.IsZero() {
		status := "ok"
		if err != nil {
			status = "error"
		}
		obsApplyDur.With(status).Observe(time.Since(t0).Seconds())
		obsApplyMutations.Add(int64(len(us)))
		obsApplyEdges.Add(int64(edges))
		obsDeltaBytes.Set(float64(db.rel.DeltaBytes()))
	}
	if err != nil {
		return err
	}
	if frac > 0 {
		err = db.autoCompact(frac)
	}
	return err
}

// autoCompact applies the SetAutoCompact policy: it compacts when the
// un-compacted write state exceeds frac of the total footprint.
func (db *DB) autoCompact(frac float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	d := db.rel.DeltaBytes() // walks only the delta state
	if d == 0 || float64(d) <= frac*float64(db.approxCache) {
		return nil
	}
	// Passed against the cached total: measure the real one (the
	// expensive full walk) and decide on it.
	total := db.rel.ApproxBytes()
	db.approxCache = total
	if float64(d) <= frac*float64(total) {
		return nil
	}
	return db.compactLocked()
}

// SetAutoCompact installs the automatic compaction policy: after a
// batch, when the un-compacted write state (delta columns, delta-era
// dictionary entries, pending index buffers) exceeds fraction of the
// database's total footprint, the DB compacts itself, restoring fully
// lock-free reads without anyone having to call Compact explicitly.
// A fraction <= 0 disables the policy (the default). Typical values
// are small (e.g. 0.05): compaction is cheap relative to letting
// every read path keep merging delta state.
func (db *DB) SetAutoCompact(fraction float64) {
	db.mu.Lock()
	db.autoCompactFrac = fraction
	db.mu.Unlock()
}

// Compact folds every table's delta columns and pending index buffers
// into their sealed structures, restoring fully lock-free reads after
// a burst of inserts. Call it at quiet moments (e.g. after a Refresh);
// readers are never blocked by it. Compact serializes against
// ApplyBatch — mutation batches must never interleave with sealing,
// because batch rollback can only drop un-sealed rows — and contains
// engine panics into a *EnginePanicError; a contained failure leaves
// every table readable (each table either compacted fully, partially
// — every intermediate state is consistent — or not at all).
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.compactLocked()
}

// compactLocked is Compact for callers holding db.mu.
func (db *DB) compactLocked() (err error) {
	defer fault.RecoverTo(&err, "db.compact")
	// Cleared even after a contained panic: the tables compacted before
	// it already shrank the total.
	defer func() { db.approxCache = 0 }()
	for _, name := range db.rel.TableNames() {
		db.rel.Table(name).Compact()
	}
	return nil
}

// Constraint is one predicate on an entity attribute: either a keyword
// containment test on a text column (the paper's desc.ct('enzyme')) or
// an equality test (type = 'mRNA'). Multiple constraints are ANDed.
type Constraint struct {
	Column  string
	Keyword string // keyword containment, if non-empty
	Equals  string // string equality, if non-empty
}

func (db *DB) compile(es string, cons []Constraint) (relstore.Pred, *relstore.Table, error) {
	var table *relstore.Table
	for _, e := range db.sg.Entities {
		if e.Name == es {
			table = db.rel.Table(e.Table)
		}
	}
	if table == nil {
		return nil, nil, fmt.Errorf("toposearch: unknown entity set %q", es)
	}
	preds := make([]relstore.Pred, 0, len(cons))
	for _, c := range cons {
		switch {
		case c.Keyword != "":
			p, err := relstore.Contains(table.Schema, c.Column, c.Keyword)
			if err != nil {
				return nil, nil, err
			}
			preds = append(preds, p)
		case c.Equals != "":
			p, err := relstore.Eq(table.Schema, c.Column, relstore.StrVal(c.Equals))
			if err != nil {
				return nil, nil, err
			}
			preds = append(preds, p)
		default:
			return nil, nil, fmt.Errorf("toposearch: constraint on %q needs Keyword or Equals", c.Column)
		}
	}
	return relstore.And(preds...), table, nil
}
