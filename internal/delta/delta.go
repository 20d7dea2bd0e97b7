// Package delta is the live-update subsystem: it stages entity and
// relationship inserts against a running topology-search store,
// validates them against the schema graph, applies them to the
// relational tables (which absorb rows into their delta columns while
// queries keep running) and to a copy-on-write extension of the data
// graph, and keeps the applied-edge log that lets each Searcher
// compute the start-node frontier its next incremental Refresh must
// recompute.
//
// The paper's Fast-Top family assumes a frozen database: the offline
// phase computes AllTops once and every later insert forces a full
// recompute. Real biological databases are continuously curated, so
// this package provides the mutation half of the incremental
// maintenance pipeline; the recomputation half lives in core
// (UpdateResult) and methods (Store.RefreshDiff).
package delta

import (
	"fmt"
	"sync"

	"toposearch/internal/fault"
	"toposearch/internal/graph"
	"toposearch/internal/relstore"
)

// faultApply fires between row inserts of a batch, exercising the
// mid-apply rollback path (chaos harness).
var faultApply = fault.Register("delta.apply")

// Mutation is one staged insert: either a new entity (EntitySet set)
// or a new relationship (Rel set). The zero value is invalid.
type Mutation struct {
	// Entity insert: the entity set, the new globally unique ID, and
	// the string attributes by column name (missing columns default to
	// "").
	EntitySet string
	ID        int64
	Attrs     map[string]string

	// Relationship insert: the relationship-set name and the two
	// endpoint entity IDs. The endpoints must exist (or be inserted
	// earlier in the same batch); when several relationship sets share
	// a name (Biozon's two "interaction" tables) the endpoints' entity
	// sets disambiguate.
	Rel  string
	A, B int64
}

// Entity stages an entity insert.
func Entity(set string, id int64, attrs map[string]string) Mutation {
	return Mutation{EntitySet: set, ID: id, Attrs: attrs}
}

// Relationship stages a relationship insert.
func Relationship(rel string, a, b int64) Mutation {
	return Mutation{Rel: rel, A: a, B: b}
}

func (m Mutation) String() string {
	if m.EntitySet != "" {
		return fmt.Sprintf("entity %s %d", m.EntitySet, m.ID)
	}
	return fmt.Sprintf("rel %s %d-%d", m.Rel, m.A, m.B)
}

// Batch is an ordered list of staged mutations applied atomically:
// Apply validates every mutation up front and touches nothing on the
// first error.
type Batch []Mutation

// Edge records one relationship row applied to the store and graph:
// the relationship-set index (into the schema graph's Rels), the
// assigned tuple ID, and the endpoints. The Refresh path derives the
// affected start-node frontier from these.
type Edge struct {
	RelIdx  int
	TupleID int64
	A, B    graph.NodeID
}

// Applied summarizes one applied batch.
type Applied struct {
	Entities int    // entity rows inserted
	Edges    []Edge // relationship rows inserted, in application order
}

// Rows returns the total number of rows the batch inserted.
func (ap *Applied) Rows() int { return ap.Entities + len(ap.Edges) }

// Applier binds a relational database and its schema graph and applies
// batches to them. It assigns relationship tuple IDs (continuing each
// table's maximum primary key) and performs the copy-on-write graph
// extension. An Applier is not internally synchronized: callers
// serialize Apply externally (the public DB wraps it in the database
// mutation lock). Readers of the tables and of previously published
// graphs are never blocked.
type Applier struct {
	db     *relstore.DB
	sg     *graph.SchemaGraph
	nextID map[string]int64 // relationship table -> next tuple ID
}

// NewApplier returns an applier for the database.
func NewApplier(db *relstore.DB, sg *graph.SchemaGraph) *Applier {
	return &Applier{db: db, sg: sg, nextID: make(map[string]int64)}
}

// resolved is one validated mutation ready to apply.
type resolved struct {
	table *relstore.Table
	row   relstore.Row

	// For relationships:
	relIdx  int
	tupleID int64
	a, b    graph.NodeID

	// For entities:
	entitySet string
	id        graph.NodeID
}

// Apply validates the whole batch against the schema graph, the
// current graph g, and the batch itself; on success it inserts every
// row (the tables absorb them into their delta columns without
// blocking readers), extends a clone of g with the new nodes and
// edges, and returns the clone plus the applied-edge records. On a
// validation error nothing is touched; on a mid-apply failure —
// including a panic out of the store layer — every table the batch
// touched is rolled back to its pre-batch row count, so a batch is
// all-or-nothing even under injected faults. (Rollback is sound
// because the DB serializes Apply against Compact, so the sealed
// watermark cannot advance mid-batch.)
func (ap *Applier) Apply(g *graph.Graph, b Batch) (ng *graph.Graph, applied *Applied, err error) {
	if len(b) == 0 {
		return g, &Applied{}, nil
	}
	// typeOf resolves an entity ID to its set name, consulting both the
	// graph and the entities staged earlier in this batch.
	staged := make(map[int64]string)
	typeOf := func(id int64) (string, bool) {
		if es, ok := staged[id]; ok {
			return es, true
		}
		if t, ok := g.NodeType(graph.NodeID(id)); ok {
			return g.NodeTypes.Name(t), true
		}
		return "", false
	}
	nextID := make(map[string]int64, len(ap.nextID))
	for k, v := range ap.nextID {
		nextID[k] = v
	}
	rs := make([]resolved, 0, len(b))
	for i, m := range b {
		switch {
		case m.EntitySet != "" && m.Rel != "":
			return nil, nil, fmt.Errorf("delta: mutation %d sets both EntitySet and Rel", i)
		case m.EntitySet != "":
			r, err := ap.resolveEntity(m, typeOf)
			if err != nil {
				return nil, nil, fmt.Errorf("delta: mutation %d (%s): %w", i, m, err)
			}
			staged[m.ID] = m.EntitySet
			rs = append(rs, r)
		case m.Rel != "":
			r, err := ap.resolveRel(m, typeOf, nextID)
			if err != nil {
				return nil, nil, fmt.Errorf("delta: mutation %d (%s): %w", i, m, err)
			}
			rs = append(rs, r)
		default:
			return nil, nil, fmt.Errorf("delta: mutation %d is empty", i)
		}
	}

	// Validated: apply. Rows first (readers may see a relationship row
	// before the published graph has its edge; the searcher-visible
	// topology tables change only at Refresh), then the graph clone.
	// Snapshot every touched table's row count first so a mid-apply
	// failure can undo the inserts; the graph clone and nextID map are
	// discarded for free.
	pre := make(map[*relstore.Table]int)
	for _, r := range rs {
		if _, ok := pre[r.table]; !ok {
			pre[r.table] = r.table.NumRows()
		}
	}
	rollback := func(cause error) error {
		for tab, n := range pre {
			if terr := tab.TruncateTo(n); terr != nil {
				return fmt.Errorf("%w (rollback of %s also failed: %v)", cause, tab.Schema.Name, terr)
			}
		}
		return cause
	}
	defer func() {
		if v := recover(); v != nil {
			pe := fault.NewPanicError("delta.apply", v)
			ng, applied = nil, nil
			err = rollback(pe)
		}
	}()
	ng = g.Clone()
	applied = &Applied{}
	for _, r := range rs {
		if err := faultApply.Hit(); err != nil {
			return nil, nil, rollback(fmt.Errorf("delta: applying to %s: %w", r.table.Schema.Name, err))
		}
		if err := r.table.Insert(r.row); err != nil {
			// Unreachable after validation barring concurrent misuse.
			return nil, nil, rollback(fmt.Errorf("delta: applying to %s: %w", r.table.Schema.Name, err))
		}
		if r.entitySet != "" {
			tid, _ := ng.NodeTypes.Lookup(r.entitySet)
			if err := ng.AddNode(r.id, tid); err != nil {
				return nil, nil, rollback(fmt.Errorf("delta: extending graph: %w", err))
			}
			applied.Entities++
			continue
		}
		tid, _ := ng.EdgeTypes.Lookup(ap.sg.Rels[r.relIdx].Name)
		eid := graph.EncodeEdgeID(r.relIdx, r.tupleID)
		if err := ng.AddEdge(eid, r.a, r.b, tid); err != nil {
			return nil, nil, rollback(fmt.Errorf("delta: extending graph: %w", err))
		}
		applied.Edges = append(applied.Edges, Edge{RelIdx: r.relIdx, TupleID: r.tupleID, A: r.a, B: r.b})
	}
	ap.nextID = nextID
	return ng, applied, nil
}

func (ap *Applier) resolveEntity(m Mutation, typeOf func(int64) (string, bool)) (resolved, error) {
	var tab *relstore.Table
	for _, es := range ap.sg.Entities {
		if es.Name == m.EntitySet {
			tab = ap.db.Table(es.Table)
		}
	}
	if tab == nil {
		return resolved{}, fmt.Errorf("unknown entity set %q", m.EntitySet)
	}
	if es, exists := typeOf(m.ID); exists {
		return resolved{}, fmt.Errorf("entity ID %d already exists (in %s)", m.ID, es)
	}
	// Every attribute must name a non-key column of the entity table
	// (the key is set from m.ID, never through Attrs).
	for name := range m.Attrs {
		c, ok := tab.Schema.ColIndex(name)
		if !ok {
			return resolved{}, fmt.Errorf("entity table %q has no attribute %q", tab.Schema.Name, name)
		}
		if c == tab.Schema.KeyCol {
			return resolved{}, fmt.Errorf("entity table %q: the key column %q is set from the mutation's ID, not Attrs", tab.Schema.Name, name)
		}
	}
	row := make(relstore.Row, 0, tab.Schema.NumCols())
	for c, col := range tab.Schema.Cols {
		if c == tab.Schema.KeyCol {
			row = append(row, relstore.IntVal(m.ID))
			continue
		}
		if col.Type != relstore.TString {
			return resolved{}, fmt.Errorf("entity table %q has non-string attribute %q", tab.Schema.Name, col.Name)
		}
		row = append(row, relstore.StrVal(m.Attrs[col.Name]))
	}
	return resolved{table: tab, row: row, entitySet: m.EntitySet, id: graph.NodeID(m.ID)}, nil
}

func (ap *Applier) resolveRel(m Mutation, typeOf func(int64) (string, bool), nextID map[string]int64) (resolved, error) {
	esA, ok := typeOf(m.A)
	if !ok {
		return resolved{}, fmt.Errorf("endpoint %d does not exist", m.A)
	}
	esB, ok := typeOf(m.B)
	if !ok {
		return resolved{}, fmt.Errorf("endpoint %d does not exist", m.B)
	}
	// Resolve the relationship set by name, disambiguated by the
	// endpoints' entity sets; try both orientations.
	relIdx, swapped := -1, false
	named := false
	for i, r := range ap.sg.Rels {
		if r.Name != m.Rel {
			continue
		}
		named = true
		if r.A == esA && r.B == esB {
			if relIdx >= 0 {
				return resolved{}, fmt.Errorf("relationship %q between %s and %s is ambiguous", m.Rel, esA, esB)
			}
			relIdx, swapped = i, false
		} else if r.A == esB && r.B == esA {
			if relIdx >= 0 {
				return resolved{}, fmt.Errorf("relationship %q between %s and %s is ambiguous", m.Rel, esA, esB)
			}
			relIdx, swapped = i, true
		}
	}
	if relIdx < 0 {
		if !named {
			return resolved{}, fmt.Errorf("unknown relationship set %q", m.Rel)
		}
		return resolved{}, fmt.Errorf("relationship %q does not connect %s and %s", m.Rel, esA, esB)
	}
	rel := ap.sg.Rels[relIdx]
	tab := ap.db.Table(rel.Table)
	if tab == nil {
		return resolved{}, fmt.Errorf("relationship table %q not found", rel.Table)
	}
	a, b := m.A, m.B
	if swapped {
		a, b = m.B, m.A
	}
	id, err := ap.claimTupleID(tab, nextID)
	if err != nil {
		return resolved{}, err
	}
	row := make(relstore.Row, tab.Schema.NumCols())
	set := func(col string, v int64) error {
		c, ok := tab.Schema.ColIndex(col)
		if !ok {
			return fmt.Errorf("relationship table %q has no column %q", rel.Table, col)
		}
		row[c] = relstore.IntVal(v)
		return nil
	}
	if tab.Schema.KeyCol >= 0 {
		row[tab.Schema.KeyCol] = relstore.IntVal(id)
	}
	if err := set(rel.ACol, a); err != nil {
		return resolved{}, err
	}
	if err := set(rel.BCol, b); err != nil {
		return resolved{}, err
	}
	return resolved{
		table: tab, row: row,
		relIdx: relIdx, tupleID: id,
		a: graph.NodeID(a), b: graph.NodeID(b),
	}, nil
}

// claimTupleID assigns the next tuple ID for a relationship table,
// initializing the counter from the table's current maximum primary
// key on first use.
func (ap *Applier) claimTupleID(tab *relstore.Table, nextID map[string]int64) (int64, error) {
	name := tab.Schema.Name
	next, ok := nextID[name]
	if !ok {
		if tab.Schema.KeyCol < 0 {
			return 0, fmt.Errorf("relationship table %q has no primary key", name)
		}
		ids := tab.Col(tab.Schema.KeyCol)
		for pos := 0; pos < ids.Len(); pos++ {
			if v := ids.Int(int32(pos)); v >= next {
				next = v + 1
			}
		}
	}
	nextID[name] = next + 1
	return next, nil
}

// Log is the append-only record of applied relationship rows. Each
// Searcher keeps a cursor into it; Refresh reads the edges applied
// since its cursor to derive the affected start-node frontier. The log
// is safe for concurrent use.
//
// Cursors are positions in the logical log, which only ever grows; the
// physical prefix below every live searcher's cursor is reclaimed via
// TruncateBelow (the DB drives this from its registry of searcher
// cursors), so a long-lived store applying continuous batches retains
// only the edges some live searcher still has to absorb.
type Log struct {
	mu    sync.Mutex
	base  int // logical position of edges[0]; entries below are reclaimed
	edges []Edge
}

// Append records an applied batch's edges and returns the new logical
// length.
func (l *Log) Append(edges []Edge) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.edges = append(l.edges, edges...)
	return l.base + len(l.edges)
}

// Len returns the logical length of the log: the number of edges ever
// appended, truncated or not.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + len(l.edges)
}

// Retained returns the number of edge records physically held, i.e.
// not yet reclaimed by TruncateBelow.
func (l *Log) Retained() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.edges)
}

// Since returns the edges appended at or after the cursor, together
// with the cursor value that consumes them. The returned slice is
// shared and must not be mutated. A cursor below the truncation point
// is clamped to it: truncation guarantees no live searcher holds such
// a cursor.
func (l *Log) Since(cursor int) ([]Edge, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cursor -= l.base
	if cursor < 0 {
		cursor = 0
	}
	if cursor > len(l.edges) {
		cursor = len(l.edges)
	}
	return l.edges[cursor:len(l.edges):len(l.edges)], l.base + len(l.edges)
}

// TruncateBelow reclaims every edge record below the logical cursor.
// The caller guarantees no live searcher's cursor is below it. The
// retained tail is copied into a fresh array so the truncated prefix
// becomes collectable; slices previously handed out by Since stay
// valid (they pin the old array until their consumers drop them).
func (l *Log) TruncateBelow(cursor int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := cursor - l.base
	if n <= 0 {
		return
	}
	if n > len(l.edges) {
		n = len(l.edges)
	}
	l.edges = append([]Edge(nil), l.edges[n:]...)
	l.base += n
}

// AffectedStarts computes the start-node frontier an incremental
// AllTops refresh must recompute: every node of entity set es1 from
// which some path of length <= maxLen can traverse one of the new
// edges. Any such path reaches an endpoint of a new edge within
// maxLen-1 steps, so a multi-source BFS of that radius from all new
// endpoints over the updated graph yields a (conservative) superset of
// the changed start nodes; recomputation itself is exact, so the
// overapproximation only costs work, never correctness.
func AffectedStarts(g *graph.Graph, es1 string, maxLen int, edges []Edge) map[graph.NodeID]bool {
	if len(edges) == 0 {
		return nil
	}
	t1, ok := g.NodeTypes.Lookup(es1)
	if !ok {
		return nil
	}
	if maxLen < 1 {
		maxLen = 1
	}
	affected := make(map[graph.NodeID]bool)
	dist := make(map[graph.NodeID]int)
	var frontier []graph.NodeID
	seed := func(n graph.NodeID) {
		if _, ok := dist[n]; !ok {
			dist[n] = 0
			frontier = append(frontier, n)
		}
	}
	for _, e := range edges {
		seed(e.A)
		seed(e.B)
	}
	radius := maxLen - 1
	for d := 0; len(frontier) > 0; d++ {
		var next []graph.NodeID
		for _, n := range frontier {
			if t, ok := g.NodeType(n); ok && t == t1 {
				affected[n] = true
			}
			if d == radius {
				continue
			}
			for _, he := range g.Neighbors(n) {
				if _, seen := dist[he.To]; !seen {
					dist[he.To] = d + 1
					next = append(next, he.To)
				}
			}
		}
		frontier = next
	}
	return affected
}
