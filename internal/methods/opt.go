package methods

import (
	"fmt"

	"toposearch/internal/core"
	"toposearch/internal/optimizer"
	"toposearch/internal/relstore"
)

// gatherStats derives the optimizer inputs of Section 5.4.3 from the
// database statistics: group cardinalities in score order (from the
// Tops table's TID histogram), inner-relation cardinalities, predicate
// selectivities, and join selectivities (key joins: S*N = 1).
func (s *Store) gatherStats(tops *relstore.Table, q Query) (optimizer.RegularStats, optimizer.StackStats, error) {
	if q.Ranking == "" {
		return optimizer.RegularStats{}, optimizer.StackStats{}, fmt.Errorf("methods: optimizer needs a ranking")
	}
	n1 := float64(s.T1.NumRows())
	n2 := float64(s.T2.NumRows())
	rho1, rho2 := 1.0, 1.0
	if q.Pred1 != nil {
		rho1 = q.Pred1.Sel(s.T1)
	}
	if q.Pred2 != nil {
		rho2 = q.Pred2.Sel(s.T2)
	}

	// Per-group cardinalities in descending score order.
	tidCol, _ := tops.Schema.ColIndex("TID")
	hist := tops.Stats().Col(tidCol)
	scoreIdx, ok := s.TopInfo.OrderedIndexOn(core.ScoreColumn(q.Ranking))
	if !ok {
		return optimizer.RegularStats{}, optimizer.StackStats{}, fmt.Errorf("methods: no score index for ranking %q", q.Ranking)
	}
	var cards []float64
	scoreIdx.Scan(true, func(pos int32) bool {
		tid := relstore.IntVal(s.TopInfo.IntAt(pos, 0))
		var card float64
		if hist != nil && hist.Freq != nil {
			card = float64(hist.Freq[tid])
		} else if s.TopInfo.NumRows() > 0 {
			card = float64(tops.NumRows()) / float64(s.TopInfo.NumRows())
		}
		cards = append(cards, card)
		return true
	})

	joins := []optimizer.JoinStats{
		{N: n1, I: optimizer.DefaultProbeCostET, Rho: rho1, S: 1 / maxf(n1, 1)},
		{N: n2, I: optimizer.DefaultProbeCostET, Rho: rho2, S: 1 / maxf(n2, 1)},
	}
	stack := optimizer.StackStats{Cards: cards, Joins: joins}
	reg := optimizer.RegularStats{
		Entity1Rows: n1 * rho1,
		TopsMatches: float64(tops.NumRows()) * rho1,
		Rho2:        rho2,
		Groups:      float64(s.TopInfo.NumRows()),
	}
	return reg, stack, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// optRun chooses between the regular top-k plan and the IDGJ ET plan
// using the Section 5.4 cost model, then executes the winner with the
// IDGJ middle join: the result is always the one its X-k or X-k-ET
// method gives. The HDGJ worst plan is reachable only through
// Query.UseHDGJ on the ET methods.
func (s *Store) optRun(tops *relstore.Table, fast bool, q Query) (QueryResult, error) {
	osp := q.Trace.Child("optimize")
	reg, stack, err := s.gatherStats(tops, q)
	if err != nil {
		osp.End()
		return QueryResult{}, err
	}
	choice := optimizer.Choose(reg, stack, q.K)
	if osp != nil {
		osp.SetStr("plan", choice.Kind.String())
		osp.End()
	}
	run := q
	run.UseHDGJ = false
	var res QueryResult
	switch {
	case choice.Kind == optimizer.PlanRegular && fast:
		res, err = s.FastTopK(run)
	case choice.Kind == optimizer.PlanRegular:
		res, err = s.FullTopK(run)
	case fast:
		res, err = s.FastTopKET(run)
	default:
		res, err = s.FullTopKET(run)
	}
	if err != nil {
		return QueryResult{}, err
	}
	res.Plan = choice.Kind
	return res, nil
}

// FullTopKOpt chooses the better of Full-Top-k and Full-Top-k-ET (with
// the IDGJ middle join).
func (s *Store) FullTopKOpt(q Query) (QueryResult, error) {
	return s.optRun(s.AllTops, false, q)
}

// FastTopKOpt chooses the better of Fast-Top-k and Fast-Top-k-ET (with
// the IDGJ middle join) — the method the paper recommends ("best of
// both worlds", Section 6.2.2).
func (s *Store) FastTopKOpt(q Query) (QueryResult, error) {
	return s.optRun(s.LeftTops, true, q)
}

// ExplainOpt reports the optimizer's decision for a query without
// executing it — the Figure 14/15 plan rendering.
func (s *Store) ExplainOpt(q Query, fast bool) (string, optimizer.Choice, error) {
	tops := s.AllTops
	topsName := core.TableName("AllTops", s.ES1, s.ES2)
	if fast {
		tops = s.LeftTops
		topsName = core.TableName("LeftTops", s.ES1, s.ES2)
	}
	reg, stack, err := s.gatherStats(tops, q)
	if err != nil {
		return "", optimizer.Choice{}, err
	}
	choice := optimizer.Choose(reg, stack, q.K)
	desc1, desc2 := "TRUE", "TRUE"
	if q.Pred1 != nil {
		desc1 = q.Pred1.String()
	}
	if q.Pred2 != nil {
		desc2 = q.Pred2.String()
	}
	plan := optimizer.Explain(choice.Kind, optimizer.ExplainInput{
		TopInfo:  core.TableName("TopInfo", s.ES1, s.ES2),
		Tops:     topsName,
		Entity1:  fmt.Sprintf("%s (%s)", s.ES1, desc1),
		Entity2:  fmt.Sprintf("%s (%s)", s.ES2, desc2),
		ScoreCol: core.ScoreColumn(q.Ranking),
		K:        q.K,
	})
	return plan, choice, nil
}
