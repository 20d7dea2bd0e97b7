package methods

import (
	"context"
	"errors"

	"toposearch/internal/engine"
	"toposearch/internal/relstore"
)

// topKOverTops runs the regular top-k pipeline (SQL3/SQL4 upper
// sub-query) over the given Tops table: join, attach scores, distinct,
// order by score, fetch k. The join cuts its driving entity scan into
// windows across the query workers.
func (s *Store) topKOverTops(tops *relstore.Table, q Query, c *engine.Counters) ([]Item, bool, error) {
	tids, partial, err := s.distinctTopsTIDs(tops, q, c)
	if err != nil {
		return nil, false, err
	}
	items, err := s.itemsForTIDs(tids, q.Ranking)
	if err != nil {
		return nil, false, err
	}
	sortItems(items)
	return items, partial, nil
}

// FullTopK is SQL3 over AllTops: compute every topology result, order
// by score, fetch the first k.
func (s *Store) FullTopK(q Query) (QueryResult, error) {
	var c engine.Counters
	items, partial, err := s.topKOverTops(s.AllTops, q, &c)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Items: trimK(items, q.K), Counters: c, Partial: partial}, nil
}

// FastTopK is the Fast-Top-k method of Section 5.1 (queries SQL4 and
// SQL5): first the top-k over LeftTops; then, only when a pruned
// topology could still enter the result — the result is underfull or
// the pruned topology's score beats the current k-th score — run the
// per-topology existence check with the exception-table guard.
func (s *Store) FastTopK(q Query) (QueryResult, error) {
	var c engine.Counters
	items, partial, err := s.topKOverTops(s.LeftTops, q, &c)
	if err != nil {
		return QueryResult{}, err
	}
	items = trimK(items, q.K)
	var wasted engine.Counters
	if !partial {
		// A deadline already cut the join phase: the expired context
		// would fail every pruned-topology check, so the partial answer
		// ships without the merge.
		items, wasted, partial, err = s.mergePruned(items, q, &c)
		if err != nil {
			return QueryResult{}, err
		}
	}
	return QueryResult{Items: items, Counters: c, Wasted: wasted, Partial: partial}, nil
}

// mergePruned applies the SQL4 cut-off and runs SQL5 for each pruned
// topology that could still reach the top k. It returns the merged
// result plus the surplus work its parallel phase burned beyond
// what the sequential loop charges.
//
// The cut-off compares each pruned candidate against the current k-th
// result, which earlier admissions may have raised, so WHICH existence
// checks run depends on the outcomes of previous ones — the loop's
// decisions are inherently sequential. But the executed set can only
// SHRINK as the bar rises: a candidate cut off against the initial
// k-th result stays cut off forever. So with workers available the
// checks passing the initial cut-off run eagerly in parallel
// (each into private counters), and a sequential replay then re-walks
// the candidates in order, re-applying the cut-off against the
// evolving bar and charging exactly the checks the classical loop
// would have executed — making items AND counters byte-identical to
// the sequential run, with the surplus checks reported as wasted work.
func (s *Store) mergePruned(items []Item, q Query, c *engine.Counters) ([]Item, engine.Counters, bool, error) {
	var wasted engine.Counters
	if len(s.PrunedTIDs) == 0 {
		return items, wasted, false, nil
	}
	trace := q.Trace.Child("pruned-merge")
	defer trace.End()
	trace.SetInt("candidates", int64(len(s.PrunedTIDs)))
	cands, err := s.prunedCandidates(q)
	if err != nil {
		return nil, wasted, false, err
	}
	// SQL4 cut-off: a pruned topology that cannot displace the current
	// k-th result under the (score desc, TID asc) total order is
	// skipped without an existence check.
	cutOff := func(cand Item, cur []Item) bool {
		return q.K > 0 && len(cur) >= q.K && !rankedBefore(cand, cur[len(cur)-1])
	}
	type checkOut struct {
		run bool
		ok  bool
		err error
		c   engine.Counters
	}
	outs := make([]checkOut, len(cands))
	if workers := s.queryWorkers(q); workers > 1 {
		var idxs []int
		for i, cand := range cands {
			if !cutOff(cand, items) {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) > 1 {
			if err := parallelFor(len(idxs), workers, func(_, j int) {
				o := &outs[idxs[j]]
				o.run = true
				o.ok, o.err = s.prunedExists(cands[idxs[j]].TID, q, &o.c)
			}); err != nil {
				return nil, wasted, false, err
			}
		}
	}
	// Sequential replay: identical admissions and counter charges to
	// the classical loop.
	partial := false
	replayed := make([]bool, len(cands))
	for i, cand := range cands {
		if cutOff(cand, items) {
			continue
		}
		o := &outs[i]
		if !o.run {
			// Not precomputed (sequential mode, or a single-candidate
			// pass set): run it now. The replay never needs a check the
			// initial pass over-approximation missed, because the bar
			// only rises.
			o.run = true
			o.ok, o.err = s.prunedExists(cand.TID, q, &o.c)
		}
		replayed[i] = true
		if o.err != nil {
			if q.PartialOK && errors.Is(o.err, context.DeadlineExceeded) {
				// Deadline cut mid-merge: ship the admissions made so
				// far as a partial answer instead of failing, cut back to
				// a prefix of the complete answer.
				items = outrankAll(items, cands[i:])
				partial = true
				break
			}
			return nil, wasted, false, o.err
		}
		c.Add(o.c)
		if o.ok {
			items = append(items, cand)
			sortItems(items)
			items = trimK(items, q.K)
		}
	}
	for i := range outs {
		if outs[i].run && !replayed[i] {
			wasted.Add(outs[i].c)
		}
	}
	trace.SetInt("wasted_work", wasted.Work())
	sortItems(items)
	return trimK(items, q.K), wasted, partial, nil
}

// prunedCandidates resolves each pruned topology's score under the
// query's ranking (score lookups charge nothing), in PrunedTIDs order.
func (s *Store) prunedCandidates(q Query) ([]Item, error) {
	cands := make([]Item, len(s.PrunedTIDs))
	for i, tid := range s.PrunedTIDs {
		cands[i].TID = tid
		if q.Ranking != "" {
			score, err := s.scoreOf(tid, q.Ranking)
			if err != nil {
				return nil, err
			}
			cands[i].Score = score
		}
	}
	return cands, nil
}

// outrankAll returns the leading run of the ranked items that rank
// before every candidate. When the candidates are the pruned topologies
// a deadline left unchecked, no survivor among them can enter the
// answer ahead of that run, so it is a prefix of the complete answer.
func outrankAll(items, cands []Item) []Item {
	n := len(items)
	for _, c := range cands {
		for n > 0 && !rankedBefore(items[n-1], c) {
			n--
		}
	}
	return items[:n]
}

// FullTopKET is the early-termination method over AllTops (no pruning):
// the Figure 15 DGJ stack, stopping after k groups produce a witness.
func (s *Store) FullTopKET(q Query) (QueryResult, error) {
	var c engine.Counters
	items, partial, err := s.etPlan(s.AllTops, q, q.K, &c)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Items: items, Counters: c, Partial: partial}, nil
}

// FastTopKET is the Fast-Top-k-ET method of Section 5.3: the DGJ stack
// over LeftTops plus the SQL5 merging of pruned topologies.
func (s *Store) FastTopKET(q Query) (QueryResult, error) {
	var c engine.Counters
	items, partial, err := s.etPlan(s.LeftTops, q, q.K, &c)
	if err != nil {
		return QueryResult{}, err
	}
	var wasted engine.Counters
	if partial {
		// The deadline cut the ET drain, so no pruned-topology check can
		// run against the expired context; keep the witnesses no pruned
		// topology can outrank.
		cands, err := s.prunedCandidates(q)
		if err != nil {
			return QueryResult{}, err
		}
		items = outrankAll(items, cands)
	} else {
		items, wasted, partial, err = s.mergePruned(items, q, &c)
		if err != nil {
			return QueryResult{}, err
		}
	}
	return QueryResult{Items: items, Counters: c, Wasted: wasted, Partial: partial}, nil
}
