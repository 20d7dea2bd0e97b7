package methods

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"toposearch/internal/core"
	"toposearch/internal/engine"
	"toposearch/internal/obs"
	"toposearch/internal/optimizer"
	"toposearch/internal/relstore"
)

// Query is the 2-query of Definition 3 plus the top-k controls: local
// predicates on both entity sets, the number of results wanted, and the
// ranking scheme.
type Query struct {
	Pred1 relstore.Pred // constraint on ES1 (nil = TRUE)
	Pred2 relstore.Pred // constraint on ES2 (nil = TRUE)
	K     int           // top-k for the *-k methods
	// Ranking names the score column ("freq", "rare", "domain").
	Ranking string
	// UseHDGJ switches the ET methods' middle join to the HDGJ
	// implementation — the "worst plan" variant of Table 2, kept for
	// the ablation runs. The Opt methods ignore it: they always run
	// the IDGJ plan when they choose early termination.
	UseHDGJ bool
	// Ctx optionally carries a cancellation context. When set, the
	// execution plans abort with its error once it is cancelled (nil
	// behaves like context.Background()). RunContext fills it in.
	Ctx context.Context
	// Parallelism is the query-time worker count: the driving
	// entity-set scan of the tops joins, FastTop's per-pruned-topology
	// existence checks and the SQL strawman's per-candidate probes are
	// spread across this many workers. 0 inherits the store's offline
	// Parallelism setting (whose 0 means GOMAXPROCS); 1 forces
	// sequential execution. Result items AND merged counter totals are
	// byte-identical at every setting.
	Parallelism int
	// PartialOK permits a deadline-bounded query (Ctx carrying a
	// deadline) to return the ranked results produced before the
	// deadline instead of failing with context.DeadlineExceeded. The
	// result's Partial flag reports that the answer is a subset.
	// Cancellation (as opposed to deadline expiry) still fails the
	// query: an abandoned caller wants no answer at all.
	PartialOK bool
	// Trace, when non-nil, collects a span tree of the execution
	// (method dispatch, optimizer choice, scan/join windows, the ET
	// drain, merges) under the given parent span.
	// Tracing records timings and counter attributes only — it never
	// changes the work performed, so traced results stay byte-identical
	// to untraced ones. nil (the default) disables tracing at the cost
	// of a nil-check per span site.
	Trace *obs.Span
}

// Item is one ranked result.
type Item struct {
	TID   core.TopologyID
	Score int64
}

// QueryResult is a method's answer: topologies (rank order for top-k
// methods, ID order otherwise), the physical work counters, and the
// plan the optimizer chose (Opt methods only).
type QueryResult struct {
	Items    []Item
	Counters engine.Counters
	Plan     optimizer.PlanKind
	// Wasted is the work the parallel pruned-topology merge of the
	// Fast-Top-k methods burned on existence checks the sequential loop
	// would have skipped. Counters above reports the useful work only,
	// byte-identical to a sequential run.
	Wasted engine.Counters
	// Partial reports that the query's deadline expired with PartialOK
	// set: Items holds the ranked results produced before the cut, a
	// subset of the full answer. Counters then report the work actually
	// performed (the byte-identical useful-work discipline applies only
	// to complete runs).
	Partial bool
}

// TIDs lists the result topology IDs in order.
func (r QueryResult) TIDs() []core.TopologyID {
	out := make([]core.TopologyID, len(r.Items))
	for i, it := range r.Items {
		out[i] = it.TID
	}
	return out
}

// Method names, as used by the harness and the Run dispatcher.
const (
	MethodSQL        = "sql"
	MethodFullTop    = "full-top"
	MethodFastTop    = "fast-top"
	MethodFullTopK   = "full-top-k"
	MethodFastTopK   = "fast-top-k"
	MethodFullTopKET = "full-top-k-et"
	MethodFastTopKET = "fast-top-k-et"
	MethodFullTopOpt = "full-top-k-opt"
	MethodFastTopOpt = "fast-top-k-opt"
)

// AllMethods lists every method in the order of the paper's Table 2.
func AllMethods() []string {
	return []string{
		MethodSQL,
		MethodFullTop, MethodFastTop,
		MethodFullTopK, MethodFastTopK,
		MethodFullTopKET, MethodFastTopKET,
		MethodFullTopOpt, MethodFastTopOpt,
	}
}

// Run dispatches a query to the named method.
func (s *Store) Run(method string, q Query) (QueryResult, error) {
	return s.dispatch(method, q)
}

// RunContext is Run with a cancellation context: long-running plans
// abort with the context's error once it is cancelled. Under PartialOK
// a deadline that expired before dispatch still reaches the method,
// which answers with the (empty) partial result.
func (s *Store) RunContext(ctx context.Context, method string, q Query) (QueryResult, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil && !(q.PartialOK && errors.Is(err, context.DeadlineExceeded)) {
			return QueryResult{}, err
		}
		q.Ctx = ctx
	}
	return s.dispatch(method, q)
}

func (s *Store) dispatch(method string, q Query) (QueryResult, error) {
	sp := q.Trace.Child("method " + method)
	if sp != nil {
		q.Trace = sp
	}
	// The plans test the same entity rows again and again (every inner
	// probe, every HDGJ rescan); memoize each predicate for this call
	// only, so the memo is sized to this generation's tables and dies
	// with the call. The caller's q keeps the raw predicates.
	if q.Pred1 != nil {
		q.Pred1 = relstore.Memo(s.T1, q.Pred1)
	}
	if q.Pred2 != nil {
		q.Pred2 = relstore.Memo(s.T2, q.Pred2)
	}
	res, err := s.runMethod(method, q)
	if sp != nil {
		sp.SetInt("work", res.Counters.Work())
		sp.SetInt("tuples_out", res.Counters.TuplesOut)
		sp.SetInt("items", int64(len(res.Items)))
		if err != nil {
			sp.SetStr("error", err.Error())
		}
		sp.End()
	}
	return res, err
}

func (s *Store) runMethod(method string, q Query) (QueryResult, error) {
	switch method {
	case MethodSQL:
		return s.SQLMethod(q)
	case MethodFullTop:
		return s.FullTop(q)
	case MethodFastTop:
		return s.FastTop(q)
	case MethodFullTopK:
		return s.FullTopK(q)
	case MethodFastTopK:
		return s.FastTopK(q)
	case MethodFullTopKET:
		return s.FullTopKET(q)
	case MethodFastTopKET:
		return s.FastTopKET(q)
	case MethodFullTopOpt:
		return s.FullTopKOpt(q)
	case MethodFastTopOpt:
		return s.FastTopKOpt(q)
	default:
		return QueryResult{}, fmt.Errorf("methods: unknown method %q", method)
	}
}

// rankedBefore is the total result order of the top-k methods:
// descending score, ties broken by ascending topology ID.
func rankedBefore(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.TID < b.TID
}

func sortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool { return rankedBefore(items[i], items[j]) })
}

func sortItemsByTID(items []Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].TID < items[j].TID })
}

func trimK(items []Item, k int) []Item {
	if k > 0 && len(items) > k {
		return items[:k]
	}
	return items
}
