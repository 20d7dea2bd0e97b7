package methods

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"toposearch/internal/core"
	"toposearch/internal/engine"
	"toposearch/internal/fault"
	"toposearch/internal/obs"
	"toposearch/internal/relstore"
)

// faultScan fires inside each window worker of the scan-method
// joins, exercising per-window failure containment (chaos harness).
var faultScan = fault.Register("methods.scan")

// queryWorkers resolves the worker count for a query: the query's own
// Parallelism setting, falling back to the store's offline setting
// (0 = GOMAXPROCS, 1 = sequential).
func (s *Store) queryWorkers(q Query) int {
	o := s.Cfg.Opts
	if q.Parallelism != 0 {
		o.Parallelism = q.Parallelism
	}
	return o.Workers()
}

// parallelFor runs fn(worker, i) for every i in [0, n), spreading the
// indices across at most w workers via an atomic cursor (the same
// scheme the offline computation uses for start nodes). With one
// effective worker it degenerates to a plain loop on the caller's
// goroutine, so sequential execution takes no scheduling detour.
//
// Workers are failure-contained: a panic out of fn — in a spawned
// worker or on the caller's goroutine — is recovered into the returned
// *fault.PanicError and aborts the remaining iterations; it never
// escapes to the caller's caller or kills the process. fn itself
// reports ordinary errors through its own out-slots, as before.
func parallelFor(n, w int, fn func(worker, i int)) error {
	if w > n {
		w = n
	}
	if w <= 1 {
		var err error
		func() {
			defer fault.RecoverTo(&err, "methods.parallel")
			for i := 0; i < n; i++ {
				fn(0, i)
			}
		}()
		return err
	}
	var next atomic.Int64
	var panicked atomic.Pointer[fault.PanicError]
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicked.CompareAndSwap(nil, fault.NewPanicError("methods.parallel", v))
					// Park the cursor past the end so no worker claims
					// further iterations.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(wk, i)
			}
		}(wk)
	}
	wg.Wait()
	if pe := panicked.Load(); pe != nil {
		return pe
	}
	return nil
}

// ranges is a contiguous partition of a position space [0, n): ordered,
// non-overlapping [lo, hi) windows whose concatenation reproduces the
// whole domain.
type ranges [][2]int32

// equalRanges partitions [0, n) into at most w contiguous windows of
// nearly equal position count.
func equalRanges(n, w int) ranges {
	w = max(1, min(w, n))
	out := make(ranges, 0, w)
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + (n-lo)/(w-i)
		out = append(out, [2]int32{int32(lo), int32(hi)})
		lo = hi
	}
	return out
}

// distinctTopsTIDs evaluates the Figure 14 join over the given Tops
// table and returns the distinct TIDs in first-occurrence order. The
// driving ES1 scan is cut into equal contiguous windows, one per query
// worker. Concatenating the per-window outputs in window order
// reproduces the sequential scan's row order exactly, so the TID list —
// and the merged counter totals, each row costing the same work in
// whichever window it lands — are byte-identical at every parallelism.
func (s *Store) distinctTopsTIDs(tops *relstore.Table, q Query, c *engine.Counters) ([]core.TopologyID, bool, error) {
	windows := equalRanges(s.T1.NumRows(), s.queryWorkers(q))
	trace := q.Trace.Child("tops-join")
	defer trace.End()
	var winSpans []*obs.Span
	if trace != nil {
		trace.SetInt("windows", int64(len(windows)))
		winSpans = make([]*obs.Span, len(windows))
		for i, w := range windows {
			winSpans[i] = trace.Child(fmt.Sprintf("window %d [%d,%d)", i, w[0], w[1]))
		}
	}
	type windowOut struct {
		tids []core.TopologyID
		c    engine.Counters
		err  error
	}
	outs := make([]windowOut, len(windows))
	if err := parallelFor(len(windows), len(windows), func(_, i int) {
		o := &outs[i]
		if winSpans != nil {
			defer func() {
				sp := winSpans[i]
				sp.SetInt("work", o.c.Work())
				sp.SetInt("tids", int64(len(o.tids)))
				if o.err != nil {
					sp.SetStr("error", o.err.Error())
				}
				sp.End()
			}()
		}
		if err := faultScan.Hit(); err != nil {
			o.err = err
			return
		}
		plan, tidCol, err := s.topsJoinPlan(tops, q, windows[i][0], windows[i][1], &o.c)
		if err != nil {
			o.err = err
			return
		}
		o.tids, o.err = drainDistinctTIDs(plan, tidCol)
	}); err != nil {
		return nil, false, err
	}
	var tids []core.TopologyID
	partial := false
	seen := make(map[core.TopologyID]bool)
	for i := range outs {
		if outs[i].err != nil {
			// A window cut off by the query deadline still produced a
			// valid (pair-supported) TID prefix; with PartialOK that
			// prefix joins the partial answer instead of failing the
			// query. Any other failure fails the whole query.
			if !q.PartialOK || !errors.Is(outs[i].err, context.DeadlineExceeded) {
				return nil, false, outs[i].err
			}
			partial = true
		}
		c.Add(outs[i].c)
		// Per-window dedup composes: the global first occurrence of a
		// TID is its first occurrence within the earliest window that
		// saw it, so deduping the concatenation of window-deduped lists
		// equals deduping the sequential stream.
		for _, tid := range outs[i].tids {
			if !seen[tid] {
				seen[tid] = true
				tids = append(tids, tid)
			}
		}
	}
	c.TuplesOut += int64(len(tids))
	trace.SetInt("distinct_tids", int64(len(tids)))
	return tids, partial, nil
}

// drainDistinctTIDs runs a tops join plan to exhaustion and collects
// its distinct TIDs without materializing any joined rows. On error the
// TIDs collected before the failure are returned alongside it, so a
// deadline-bounded caller can keep the prefix as a partial answer.
func drainDistinctTIDs(plan engine.Op, tidCol int) ([]core.TopologyID, error) {
	dist := engine.NewDistinct(plan, []int{tidCol})
	if err := dist.Open(); err != nil {
		return nil, err
	}
	defer dist.Close()
	var out []core.TopologyID
	for {
		r, ok, err := dist.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, core.TopologyID(r[tidCol].Int))
	}
}

// prunedSurvivors runs the SQL1/SQL5 existence check for every pruned
// topology, spread across the query workers, and returns the TIDs
// whose check found a witness, in PrunedTIDs order. Each check is
// independent and its work depends only on its own topology, so both
// the surviving set and the merged counter totals are identical at
// every parallelism level.
func (s *Store) prunedSurvivors(q Query, c *engine.Counters) ([]core.TopologyID, error) {
	n := len(s.PrunedTIDs)
	if n == 0 {
		return nil, nil
	}
	trace := q.Trace.Child("pruned-checks")
	defer trace.End()
	trace.SetInt("pruned", int64(n))
	type checkOut struct {
		ok  bool
		err error
		c   engine.Counters
	}
	outs := make([]checkOut, n)
	if err := parallelFor(n, s.queryWorkers(q), func(_, i int) {
		o := &outs[i]
		o.ok, o.err = s.prunedExists(s.PrunedTIDs[i], q, &o.c)
	}); err != nil {
		return nil, err
	}
	var tids []core.TopologyID
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		c.Add(outs[i].c)
		if outs[i].ok {
			tids = append(tids, s.PrunedTIDs[i])
		}
	}
	trace.SetInt("survivors", int64(len(tids)))
	return tids, nil
}
