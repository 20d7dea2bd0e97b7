package methods

import (
	"toposearch/internal/core"
	"toposearch/internal/engine"
	"toposearch/internal/graph"
)

// sqlWorker is the reusable per-worker state of the SQL strawman: the
// DFS scratch, the end-node path accumulator and the class map are
// allocated once per worker and cleared between uses, so the per-start
// hot path allocates only the paths it keeps.
type sqlWorker struct {
	sc  *graph.Scratch
	acc map[graph.NodeID][]graph.Path
	cls map[graph.PathSig][]graph.Path
	c   engine.Counters
}

// SQLMethod is the strawman of Section 3.1: for every candidate
// topology — the paper restricts candidates to topologies with at least
// some corresponding entities, "close to 200" — issue one query that
// checks whether a predicate-satisfying pair is related by exactly that
// topology. All topology computation happens at query time: per
// candidate, the method re-enumerates paths and re-derives topologies
// from scratch, which is why it is orders of magnitude slower than the
// precomputation-based methods. The candidate queries are independent,
// so they are spread across the query workers; each candidate's work
// depends only on its own topology, making results and counter totals
// identical at every parallelism level.
func (s *Store) SQLMethod(q Query) (QueryResult, error) {
	var c engine.Counters
	opts := s.opts()

	// Candidate set: every topology known for the entity-set pair.
	candidates := make([]core.TopologyID, 0, s.TopInfo.NumRows())
	s.TopInfo.ScanPos(func(pos int32) bool {
		candidates = append(candidates, core.TopologyID(s.TopInfo.IntAt(pos, 0)))
		return true
	})

	// Selected entity-1 nodes and the entity-2 acceptance test.
	var starts []graph.NodeID
	keyCol := s.T1.Schema.KeyCol
	s.T1.ScanPos(func(pos int32) bool {
		c.RowsScanned++
		if q.Pred1 == nil || q.Pred1.EvalAt(s.T1, pos) {
			starts = append(starts, graph.NodeID(s.T1.IntAt(pos, keyCol)))
		}
		return true
	})

	trace := q.Trace.Child("sql-candidates")
	defer trace.End()
	trace.SetInt("candidates", int64(len(candidates)))
	trace.SetInt("starts", int64(len(starts)))
	workers := s.queryWorkers(q)
	ws := make([]sqlWorker, workers)
	found := make([]bool, len(candidates))
	errs := make([]error, len(candidates))
	if err := parallelFor(len(candidates), workers, func(worker, i int) {
		w := &ws[worker]
		if w.sc == nil {
			w.sc = s.G.NewScratch()
			w.acc = make(map[graph.NodeID][]graph.Path)
			w.cls = make(map[graph.PathSig][]graph.Path)
		}
		found[i], errs[i] = s.sqlCandidate(candidates[i], starts, q, opts, w)
	}); err != nil {
		return QueryResult{}, err
	}
	for _, err := range errs {
		if err != nil {
			return QueryResult{}, err
		}
	}
	for i := range ws {
		c.Add(ws[i].c)
	}
	var tids []core.TopologyID
	for i, ok := range found {
		if ok {
			tids = append(tids, candidates[i])
		}
	}
	its, err := s.itemsForTIDs(tids, q.Ranking)
	if err != nil {
		return QueryResult{}, err
	}
	sortItemsByTID(its)
	return QueryResult{Items: its, Counters: c}, nil
}

// sqlCandidate is one "SQL query" of the strawman: enumerate, from
// scratch, the topologies of every qualifying pair until one matches
// tid.
func (s *Store) sqlCandidate(tid core.TopologyID, starts []graph.NodeID, q Query, opts core.Options, w *sqlWorker) (bool, error) {
	accept2 := func(b graph.NodeID) bool {
		pos, ok := s.T2.PKPos(int64(b))
		if !ok {
			return false
		}
		w.c.IndexProbes++
		return q.Pred2 == nil || q.Pred2.EvalAt(s.T2, pos)
	}
	for _, a := range starts {
		if q.Ctx != nil {
			if err := q.Ctx.Err(); err != nil {
				return false, err
			}
		}
		clear(w.acc)
		for _, sp := range s.sigToPath {
			s.G.PathsAlongScratch(w.sc, s.SG, sp, a, func(p graph.Path) bool {
				w.c.IndexProbes++
				b := p.End()
				if !accept2(b) {
					return true
				}
				w.acc[b] = append(w.acc[b], p.Clone())
				return true
			})
		}
		for _, paths := range w.acc {
			clear(w.cls)
			for _, p := range paths {
				sig := s.G.Signature(p)
				w.cls[sig] = append(w.cls[sig], p)
			}
			for _, got := range core.TopologiesFromClasses(s.G, s.Res.Reg, w.cls, opts) {
				if got == tid {
					return true, nil
				}
			}
		}
	}
	return false, nil
}

// FullTop is the Section 3.2 method: a single join query over the
// precomputed AllTops table.
//
//	SELECT DISTINCT AT.TID FROM ES1 A, ES2 B, AllTops AT
//	WHERE pred1(A) AND pred2(B) AND A.ID = AT.E1 AND B.ID = AT.E2
func (s *Store) FullTop(q Query) (QueryResult, error) {
	var c engine.Counters
	tids, partial, err := s.distinctTopsTIDs(s.AllTops, q, &c)
	if err != nil {
		return QueryResult{}, err
	}
	items, err := s.itemsForTIDs(tids, q.Ranking)
	if err != nil {
		return QueryResult{}, err
	}
	sortItemsByTID(items)
	return QueryResult{Items: items, Counters: c, Partial: partial}, nil
}

// FastTop is the Section 4.3 method (query SQL1): the same join over
// the much smaller LeftTops table, plus one on-line existence check per
// pruned topology against the base data, guarded by the exception
// table. Both halves run on the query worker pool: the LeftTops join
// cuts the driving entity scan into windows and the pruned checks
// split the pruned-topology list.
func (s *Store) FastTop(q Query) (QueryResult, error) {
	var c engine.Counters
	tids, partial, err := s.distinctTopsTIDs(s.LeftTops, q, &c)
	if err != nil {
		return QueryResult{}, err
	}
	if !partial {
		// A deadline that already cut the join phase would fail every
		// pruned check against the expired context; the partial answer
		// ships without them.
		pruned, err := s.prunedSurvivors(q, &c)
		if err != nil {
			return QueryResult{}, err
		}
		tids = append(tids, pruned...)
	}
	items, err := s.itemsForTIDs(tids, q.Ranking)
	if err != nil {
		return QueryResult{}, err
	}
	sortItemsByTID(items)
	return QueryResult{Items: items, Counters: c, Partial: partial}, nil
}
