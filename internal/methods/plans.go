package methods

import (
	"context"
	"errors"
	"fmt"

	"toposearch/internal/core"
	"toposearch/internal/engine"
	"toposearch/internal/fault"
	"toposearch/internal/graph"
	"toposearch/internal/relstore"
)

// faultET fires once per ET query, before the drain opens its DGJ stack
// (chaos harness).
var faultET = fault.Register("methods.et")

// topsJoinPlan builds the regular (Figure 14 style) join pipeline:
//
//	sigma(ES1) -> IndexJoin Tops on E1 -> IndexJoin sigma(ES2) on E2
//
// driving from the selected entity-1 rows in positions [lo, hi), as the
// commercial plans do (hi < 0 means the whole entity table; parallel
// queries hand each worker a contiguous window). It returns the plan
// and the position of the Tops TID column.
func (s *Store) topsJoinPlan(tops *relstore.Table, q Query, lo, hi int32, c *engine.Counters) (engine.Op, int, error) {
	scanA := engine.NewScanRange(s.T1, "A", q.Pred1, c, lo, hi)
	idA := engine.MustColIndex(scanA, "A.ID")
	j1, err := engine.NewIndexJoin(scanA, idA, tops, "T", "E1", nil, c)
	if err != nil {
		return nil, 0, err
	}
	e2 := engine.MustColIndex(j1, "T.E2")
	j2, err := engine.NewIndexJoin(j1, e2, s.T2, "B", "ID", q.Pred2, c)
	if err != nil {
		return nil, 0, err
	}
	return engine.NewGuard(j2, q.Ctx), engine.MustColIndex(j2, "T.TID"), nil
}

// pathJoinPlan builds the existence-check pipeline for a pruned path
// topology (the lower sub-queries of SQL1/SQL5): a chain of index joins
// over the relationship tables along the topology's schema path,
// starting from the selected entity-1 rows and ending at the selected
// entity-2 rows, with a residual filter enforcing instance-path
// simplicity. It returns the plan plus the column positions of the two
// endpoint IDs.
func (s *Store) pathJoinPlan(sp graph.SchemaPath, q Query, c *engine.Counters) (engine.Op, int, int, error) {
	var cur engine.Op = engine.NewScan(s.T1, "A", q.Pred1, c)
	nodeCols := []int{engine.MustColIndex(cur, "A.ID")}
	curCol := nodeCols[0]
	prevType := sp.Start
	for i, st := range sp.Steps {
		relTab, nearCol, farCol, err := s.relStepCols(prevType, st, i)
		if err != nil {
			return nil, 0, 0, err
		}
		alias := fmt.Sprintf("R%d", i)
		j, err := engine.NewIndexJoin(cur, curCol, relTab, alias, nearCol, nil, c)
		if err != nil {
			return nil, 0, 0, err
		}
		cur = j
		curCol = engine.MustColIndex(cur, alias+"."+farCol)
		nodeCols = append(nodeCols, curCol)
		prevType = st.Next
	}
	// Join the far endpoint against the selected entity-2 rows.
	j, err := engine.NewIndexJoin(cur, curCol, s.T2, "B", "ID", q.Pred2, c)
	if err != nil {
		return nil, 0, 0, err
	}
	cur = j
	endCol := engine.MustColIndex(cur, "B.ID")
	// Enforce simple paths: all node IDs along the chain distinct.
	cols := append([]int(nil), nodeCols...)
	cur = engine.NewFuncFilter(cur, "all-nodes-distinct", func(r relstore.Row) bool {
		for x := 0; x < len(cols); x++ {
			for y := x + 1; y < len(cols); y++ {
				if r[cols[x]].Int == r[cols[y]].Int {
					return false
				}
			}
		}
		return true
	})
	return engine.NewGuard(cur, q.Ctx), nodeCols[0], endCol, nil
}

// relStepCols resolves one schema-path step: the relationship table to
// join, and the near (arriving) and far (leaving) column names as seen
// when reaching the step from prevType. pathJoinPlan builds its join
// chain from this and warmIndexes pre-creates the near-column indexes
// it probes, so the two can never disagree about which index a step
// needs.
func (s *Store) relStepCols(prevType string, st graph.SchemaStep, i int) (*relstore.Table, string, string, error) {
	rel := s.SG.Rels[st.Rel]
	relTab := s.DB.Table(rel.Table)
	if relTab == nil {
		return nil, "", "", fmt.Errorf("methods: no relationship table %q", rel.Table)
	}
	switch {
	case prevType == rel.A && st.Next == rel.B:
		return relTab, rel.ACol, rel.BCol, nil
	case prevType == rel.B && st.Next == rel.A:
		return relTab, rel.BCol, rel.ACol, nil
	default:
		return nil, "", "", fmt.Errorf("methods: schema path step %d does not fit relationship %q", i, rel.Name)
	}
}

// prunedExists runs the SQL5 check for one pruned topology: does some
// predicate-satisfying pair match the pruned topology's path and not
// appear in the exception table?
func (s *Store) prunedExists(tid core.TopologyID, q Query, c *engine.Counters) (bool, error) {
	sp, err := s.schemaPathFor(tid)
	if err != nil {
		return false, err
	}
	plan, startCol, endCol, err := s.pathJoinPlan(sp, q, c)
	if err != nil {
		return false, err
	}
	// NOT EXISTS (SELECT 1 FROM ExcpTops e WHERE e.E1=A.ID AND
	// e.E2=B.ID AND e.TID = tid).
	excpPred := relstore.MustEq(s.ExcpTops.Schema, "TID", relstore.IntVal(int64(tid)))
	inner := engine.NewScan(s.ExcpTops, "EX", excpPred, c)
	e1 := engine.MustColIndex(inner, "EX.E1")
	e2 := engine.MustColIndex(inner, "EX.E2")
	anti := engine.NewAntiJoin(plan, []int{startCol, endCol}, inner, []int{e1, e2}, c)
	lim := engine.NewLimit(anti, 1)
	rows, err := engine.Drain(lim)
	if err != nil {
		return false, err
	}
	return len(rows) == 1, nil
}

// buildETStack constructs the Figure 15 DGJ stack over the given Tops
// table: an ordered scan of TopInfo in descending score order feeding
// the three-join DGJ pipeline. ctx threads cancellation GroupGuards
// into the stack so a deadline aborts it mid-group; a nil ctx adds no
// guards, and the guarded and unguarded stacks charge identical
// counters. It returns the stack root plus the output positions of the
// TID and score columns.
func (s *Store) buildETStack(tops *relstore.Table, q Query, c *engine.Counters, ctx context.Context) (engine.GroupOp, int, int, error) {
	scoreCol := core.ScoreColumn(q.Ranking)
	ti, err := engine.NewOrderedScan(s.TopInfo, "TI", scoreCol, true, nil, c)
	if err != nil {
		return nil, 0, 0, err
	}
	var base engine.GroupOp = engine.NewGroupBase(ti)
	tidCol := engine.MustColIndex(base, "TI.TID")
	scoreIdx := engine.MustColIndex(base, "TI."+scoreCol)
	base = engine.NewGroupGuard(base, ctx)
	g1, err := engine.NewIDGJ(base, tidCol, tops, "T", "TID", nil, c)
	if err != nil {
		return nil, 0, 0, err
	}
	e1 := engine.MustColIndex(g1, "T.E1")
	var g2 engine.GroupOp
	if q.UseHDGJ {
		g2, err = engine.NewHDGJ(g1, e1, s.T1, "A", "ID", q.Pred1, c)
	} else {
		g2, err = engine.NewIDGJ(g1, e1, s.T1, "A", "ID", q.Pred1, c)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	g2 = engine.NewGroupGuard(g2, ctx)
	e2 := engine.MustColIndex(g2, "T.E2")
	g3, err := engine.NewIDGJ(g2, e2, s.T2, "B", "ID", q.Pred2, c)
	if err != nil {
		return nil, 0, 0, err
	}
	return g3, tidCol, scoreIdx, nil
}

// etPlan builds the Figure 15 early-termination pipeline over the given
// Tops table and drains it sequentially: the DGJ stack over the whole
// score-ordered group stream, topped by DistinctGroups(k), stopping
// once k groups have produced a witness.
//
// With q.PartialOK the stack's GroupGuards also watch the query
// context, and a deadline cut returns the witnesses emitted so far with
// partial set. DistinctGroups emits witnesses in canonical group order,
// so they are a prefix of the complete answer.
func (s *Store) etPlan(tops *relstore.Table, q Query, k int, c *engine.Counters) ([]Item, bool, error) {
	if q.Ranking == "" {
		return nil, false, fmt.Errorf("methods: ET plans need a ranking")
	}
	if err := faultET.Hit(); err != nil {
		return nil, false, err
	}
	var guardCtx context.Context
	if q.PartialOK {
		guardCtx = q.Ctx
	}
	g3, tidCol, scoreIdx, err := s.buildETStack(tops, q, c, guardCtx)
	if err != nil {
		return nil, false, err
	}
	sp := q.Trace.Child("et")
	defer sp.End()
	top := engine.NewGuard(engine.NewDistinctGroups(g3, k), q.Ctx)
	items, err := drainItems(top, tidCol, scoreIdx)
	partial := false
	if err != nil {
		if !q.PartialOK || !errors.Is(err, context.DeadlineExceeded) {
			return nil, false, err
		}
		partial = true
		sp.SetInt("partial", 1)
	}
	c.TuplesOut += int64(len(items))
	sp.SetInt("work", c.Work())
	sp.SetInt("witnesses", int64(len(items)))
	return items, partial, nil
}

// drainItems runs an ET plan root to exhaustion and reads each emitted
// witness's TID and score. On error the items read before the failure
// are returned alongside it, so a deadline-bounded caller can keep them
// as a partial answer.
func drainItems(op engine.Op, tidCol, scoreIdx int) ([]Item, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var items []Item
	for {
		r, ok, err := op.Next()
		if err != nil {
			return items, err
		}
		if !ok {
			return items, nil
		}
		items = append(items, Item{TID: core.TopologyID(r[tidCol].Int), Score: r[scoreIdx].Int})
	}
}

// itemsForTIDs attaches ranking scores to a TID list (no ranking: zero
// scores).
func (s *Store) itemsForTIDs(tids []core.TopologyID, rk string) ([]Item, error) {
	items := make([]Item, len(tids))
	for i, tid := range tids {
		items[i] = Item{TID: tid}
		if rk != "" {
			sc, err := s.scoreOf(tid, rk)
			if err != nil {
				return nil, err
			}
			items[i].Score = sc
		}
	}
	return items, nil
}
