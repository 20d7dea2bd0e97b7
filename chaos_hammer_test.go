package toposearch_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"sync"
	"testing"
	"time"

	"toposearch"
	"toposearch/internal/fault"
)

// chaosSeedFlag seeds the chaos harness deterministically: the same
// seed replays the same fault schedule on every run (CI pins one; a
// failure report's seed reproduces the failure locally).
var chaosSeedFlag = flag.Int64("chaos.seed", 1, "base seed for the chaos fault-injection harness")

// chaosTyped reports whether err is one of the errors the failure
// model permits to escape the public API under fault injection:
// injected faults, contained panics, admission-control rejections and
// context expiry. Anything else — in particular a raw runtime error
// text — is a containment bug.
func chaosTyped(err error) bool {
	if err == nil {
		return true
	}
	var pe *toposearch.EnginePanicError
	return errors.Is(err, toposearch.ErrInjected) ||
		errors.As(err, &pe) ||
		errors.Is(err, toposearch.ErrOverloaded) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// chaosConfig is the searcher build used across the chaos tests.
func chaosConfig(par int) toposearch.SearcherConfig {
	return toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048,
		Parallelism: par,
	}
}

// TestChaosHammer is the chaos gate of the failure-containment layer:
// with every injection point armed — errors everywhere, panics inside
// the ET drain, scan window workers, offline workers, cache fills and
// batch application — concurrent searches, batch mutations, refreshes
// and compactions hammer one searcher at parallelism 1, 2 and 4. The
// invariants: no panic escapes (the test process survives),
// every surfaced error is typed, no goroutine leaks, and after the
// chaos stops the searcher's answers are byte-identical to a fresh
// from-scratch rebuild on the final database state.
func TestChaosHammer(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			chaosHammer(t, par)
		})
	}
}

func chaosHammer(t *testing.T, par int) {
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(par)
	cfg.MaxInflight = 4
	cfg.MaxQueue = 8
	cfg.QueueTimeout = 250 * time.Millisecond
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	t.Cleanup(fault.Disable)
	seed := *chaosSeedFlag*1000 + int64(par)
	if err := fault.Enable(seed,
		fault.Rule{Point: "*", Prob: 0.03},
		fault.Rule{Point: "methods.et", Prob: 0.02, Panic: true},
		fault.Rule{Point: "methods.scan", Prob: 0.02, Panic: true},
		fault.Rule{Point: "core.start", Prob: 0.005, Panic: true},
		fault.Rule{Point: "cache.fill", Prob: 0.05, Panic: true},
		fault.Rule{Point: "delta.apply", Prob: 0.05, Panic: true},
		fault.Rule{Point: "relstore.compact.mid", Prob: 0.5, Panic: true},
	); err != nil {
		t.Fatal(err)
	}

	// The query mix, cycled through by each worker: join, top-k and ET
	// plans.
	bases := []toposearch.SearchQuery{
		{Method: "fast-top", Cons1: []toposearch.Constraint{{Column: "desc", Keyword: "kwsel50"}}},
		{K: 5, Method: "fast-top-k-et"},
		{K: 3, Method: "full-top-k", Cons2: []toposearch.Constraint{{Column: "type", Equals: "mRNA"}}},
		{K: 4, Method: "full-top-k-et"},
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := bases[(w+i)%len(bases)]
				if i%5 == 4 {
					// Every fifth query runs deadline-bounded with partial
					// results permitted: under injected latency these must
					// come back as err == nil with Partial set, never as an
					// untyped failure.
					q.Deadline = 5 * time.Millisecond
					q.PartialOK = true
				}
				res, err := s.SearchContext(ctx, q)
				if !chaosTyped(err) {
					t.Errorf("chaos search returned untyped error: %v", err)
					return
				}
				if err == nil && !res.Partial && len(res.Topologies) == 0 {
					t.Error("complete chaos search returned no topologies")
					return
				}
			}
		}()
	}

	// Mutator: batches either land whole or roll back, so retrying the
	// identical batch after a typed failure is always safe — and the
	// retry succeeding is itself evidence the rollback left no residue
	// (a half-applied batch would re-collide on its own primary keys).
	for i := 0; i < 4; i++ {
		p := int64(3_970_000 + i)
		d := int64(4_970_000 + i)
		ups := []toposearch.Update{
			toposearch.InsertEntity(toposearch.Protein, p, map[string]string{"desc": fmt.Sprintf("chaos protein %d kwsel50", i)}),
			toposearch.InsertEntity(toposearch.DNA, d, map[string]string{"type": "mRNA", "desc": "chaos dna kwsel50"}),
			toposearch.InsertRelationship("encodes", p, d),
			toposearch.InsertRelationship("encodes", p, int64(2_000_000+i)),
		}
		applied := false
		for attempt := 0; attempt < 200; attempt++ {
			err := db.ApplyBatch(ups)
			if err == nil {
				applied = true
				break
			}
			if !chaosTyped(err) {
				t.Fatalf("chaos ApplyBatch returned untyped error: %v", err)
			}
		}
		if !applied {
			t.Fatalf("round %d: batch did not land in 200 attempts (fault schedule too hot?)", i)
		}
		if err := db.Compact(); !chaosTyped(err) {
			t.Fatalf("chaos Compact returned untyped error: %v", err)
		}
		refreshed := false
		for attempt := 0; attempt < 200; attempt++ {
			_, err := s.RefreshContext(ctx)
			if err == nil {
				refreshed = true
				break
			}
			if !chaosTyped(err) {
				t.Fatalf("chaos Refresh returned untyped error: %v", err)
			}
		}
		if !refreshed {
			t.Fatalf("round %d: refresh did not land in 200 attempts", i)
		}
	}
	close(stop)
	wg.Wait()

	if fault.TotalFired() == 0 {
		t.Fatal("chaos harness fired no faults — injection schedule is disarmed")
	}
	fault.Disable()

	// Post-chaos gate: with faults off, one final refresh must succeed,
	// and every query must answer byte-identically to a fresh
	// from-scratch searcher on the final database state.
	if _, err := s.RefreshContext(ctx); err != nil {
		t.Fatalf("post-chaos refresh: %v", err)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("post-chaos compact: %v", err)
	}
	fresh, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, chaosConfig(par))
	if err != nil {
		t.Fatalf("fresh rebuild: %v", err)
	}
	defer fresh.Close()
	for _, base := range bases {
		want, err := fresh.SearchContext(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.SearchContext(ctx, base)
		if err != nil {
			t.Fatalf("post-chaos %s: %v", base.Method, err)
		}
		if fmt.Sprint(got.Topologies) != fmt.Sprint(want.Topologies) {
			t.Fatalf("post-chaos %s diverges from fresh rebuild:\n got %v\nwant %v",
				base.Method, got.Topologies, want.Topologies)
		}
	}
	st := s.Stats()
	if st.Inflight != 0 || st.Waiting != 0 {
		t.Fatalf("post-chaos admission counters not drained: %+v", st)
	}
}

// TestChaosRefreshAtomicity proves Refresh is all-or-nothing: an
// injected failure (and separately a panic) anywhere in the refresh
// leaves the serving generation, the result cache and the edge-log
// cursor untouched, and the next clean Refresh absorbs everything.
func TestChaosRefreshAtomicity(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, chaosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	t.Cleanup(fault.Disable)

	q := toposearch.SearchQuery{K: 5, Method: "fast-top-k"}
	before, err := s.SearchContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	p, d := int64(5_970_001), int64(6_970_001)
	if err := db.ApplyBatch([]toposearch.Update{
		toposearch.InsertEntity(toposearch.Protein, p, map[string]string{"desc": "refresh atomicity protein"}),
		toposearch.InsertEntity(toposearch.DNA, d, map[string]string{"type": "mRNA", "desc": "refresh atomicity dna"}),
		toposearch.InsertRelationship("encodes", p, d),
	}); err != nil {
		t.Fatal(err)
	}

	// Injected error: Refresh fails, the old generation keeps serving.
	if err := fault.Enable(*chaosSeedFlag, fault.Rule{Point: "methods.refresh"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RefreshContext(ctx); !errors.Is(err, toposearch.ErrInjected) {
		t.Fatalf("refresh under injected error: got %v, want ErrInjected", err)
	}
	mid, err := s.SearchContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(mid.Topologies) != fmt.Sprint(before.Topologies) {
		t.Fatalf("failed refresh changed the serving generation:\n got %v\nwant %v", mid.Topologies, before.Topologies)
	}

	// Injected panic: contained into *EnginePanicError, counted, and
	// still atomic.
	if err := fault.Enable(*chaosSeedFlag, fault.Rule{Point: "methods.refresh", Panic: true}); err != nil {
		t.Fatal(err)
	}
	_, err = s.RefreshContext(ctx)
	var pe *toposearch.EnginePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("refresh under injected panic: got %v, want *EnginePanicError", err)
	}
	if got := s.Stats().PanicsContained; got == 0 {
		t.Fatal("contained refresh panic not counted in SearcherStats.PanicsContained")
	}
	fault.Disable()

	// Clean refresh absorbs the batch; the result now matches a fresh
	// rebuild.
	n, err := s.RefreshContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("clean refresh after contained failures absorbed nothing")
	}
	fresh, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, chaosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.SearchContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.SearchContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Topologies) != fmt.Sprint(want.Topologies) {
		t.Fatalf("post-recovery refresh diverges from fresh rebuild:\n got %v\nwant %v", got.Topologies, want.Topologies)
	}
}

// TestChaosApplyBatchRollback proves batch application is atomic under
// mid-batch faults: a failure after some rows already landed rolls
// every touched table back, so retrying the identical batch succeeds —
// a half-applied batch would collide on its own primary keys.
func TestChaosApplyBatchRollback(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 13)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, chaosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	t.Cleanup(fault.Disable)

	p, d := int64(7_970_001), int64(8_970_001)
	batch := []toposearch.Update{
		toposearch.InsertEntity(toposearch.Protein, p, map[string]string{"desc": "rollback protein kwsel50"}),
		toposearch.InsertEntity(toposearch.DNA, d, map[string]string{"type": "mRNA", "desc": "rollback dna"}),
		toposearch.InsertRelationship("encodes", p, d),
		toposearch.InsertRelationship("encodes", p, 2_000_001),
	}

	// Error after two rows landed: the batch must fail AND vanish.
	if err := fault.Enable(*chaosSeedFlag, fault.Rule{Point: "delta.apply", After: 2, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyBatch(batch); !errors.Is(err, toposearch.ErrInjected) {
		t.Fatalf("mid-batch injected error: got %v, want ErrInjected", err)
	}

	// Panic after two rows landed: contained, rolled back.
	if err := fault.Enable(*chaosSeedFlag, fault.Rule{Point: "delta.apply", After: 2, Count: 1, Panic: true}); err != nil {
		t.Fatal(err)
	}
	var pe *toposearch.EnginePanicError
	if err := db.ApplyBatch(batch); !errors.As(err, &pe) {
		t.Fatalf("mid-batch injected panic: got %v, want *EnginePanicError", err)
	}
	fault.Disable()

	// The identical batch lands cleanly: no residue from either failure.
	if err := db.ApplyBatch(batch); err != nil {
		t.Fatalf("retry of rolled-back batch: %v", err)
	}
	if _, err := s.RefreshContext(ctx); err != nil {
		t.Fatal(err)
	}
	fresh, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, chaosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	q := toposearch.SearchQuery{K: 5, Method: "fast-top-k", Cons1: []toposearch.Constraint{{Column: "desc", Keyword: "kwsel50"}}}
	want, err := fresh.SearchContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.SearchContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Topologies) != fmt.Sprint(want.Topologies) {
		t.Fatalf("post-rollback state diverges from fresh rebuild:\n got %v\nwant %v", got.Topologies, want.Topologies)
	}
}

// TestChaosCompactContainment proves a panic in the middle of
// compaction — after the column merge published, before the
// dictionary/index merges — is contained and leaves every table
// readable with identical query answers.
func TestChaosCompactContainment(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 17)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, chaosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	t.Cleanup(fault.Disable)

	p, d := int64(9_970_001), int64(1_970_002)
	if err := db.ApplyBatch([]toposearch.Update{
		toposearch.InsertEntity(toposearch.Protein, p, map[string]string{"desc": "compact chaos protein"}),
		toposearch.InsertEntity(toposearch.DNA, d, map[string]string{"type": "mRNA", "desc": "compact chaos dna"}),
		toposearch.InsertRelationship("encodes", p, d),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RefreshContext(ctx); err != nil {
		t.Fatal(err)
	}
	q := toposearch.SearchQuery{K: 5, Method: "fast-top-k"}
	before, err := s.SearchContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	if err := fault.Enable(*chaosSeedFlag, fault.Rule{Point: "relstore.compact.mid", Panic: true}); err != nil {
		t.Fatal(err)
	}
	var pe *toposearch.EnginePanicError
	if err := db.Compact(); !errors.As(err, &pe) {
		t.Fatalf("mid-compaction panic: got %v, want *EnginePanicError", err)
	}
	fault.Disable()

	mid, err := s.SearchContext(ctx, q)
	if err != nil {
		t.Fatalf("search after contained mid-compaction panic: %v", err)
	}
	if fmt.Sprint(mid.Topologies) != fmt.Sprint(before.Topologies) {
		t.Fatalf("mid-compaction panic changed query answers:\n got %v\nwant %v", mid.Topologies, before.Topologies)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("clean compaction after contained panic: %v", err)
	}
	after, err := s.SearchContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after.Topologies) != fmt.Sprint(before.Topologies) {
		t.Fatalf("post-compaction answers diverge:\n got %v\nwant %v", after.Topologies, before.Topologies)
	}
}

// TestChaosAdmissionControl drives the searcher past MaxInflight with
// injected executor latency: overflow must shed load with
// ErrOverloaded (never block forever, never crash), admitted queries
// must all succeed, and the counters must reconcile.
func TestChaosAdmissionControl(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 19)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(2)
	cfg.MaxInflight = 1
	cfg.MaxQueue = 1
	cfg.QueueTimeout = 20 * time.Millisecond
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	t.Cleanup(fault.Disable)

	// Every scan window worker sleeps: queries hold their admission slot
	// long enough that concurrent arrivals overflow the queue.
	if err := fault.Enable(*chaosSeedFlag,
		fault.Rule{Point: "methods.scan", Delay: 150 * time.Millisecond, DelayOnly: true}); err != nil {
		t.Fatal(err)
	}

	const callers = 6
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Distinct constraints keep the queries off each other's
			// cache flights: every caller really occupies a slot.
			q := toposearch.SearchQuery{Method: "fast-top",
				Cons1: []toposearch.Constraint{{Column: "desc", Keyword: fmt.Sprintf("kwsel%d", 10*(i+1))}}}
			_, errs[i] = s.SearchContext(ctx, q)
		}()
	}
	wg.Wait()
	fault.Disable()

	okCount, shed := 0, 0
	for i, err := range errs {
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, toposearch.ErrOverloaded):
			shed++
		default:
			t.Fatalf("caller %d: got %v, want nil or ErrOverloaded", i, err)
		}
	}
	if okCount == 0 {
		t.Fatal("no query was admitted under overload")
	}
	if shed == 0 {
		t.Fatal("no query was shed with ErrOverloaded despite MaxInflight=1, MaxQueue=1 and 6 concurrent callers")
	}
	st := s.Stats()
	if st.Rejected != int64(shed) {
		t.Fatalf("Stats().Rejected = %d, want %d", st.Rejected, shed)
	}
	if st.Admitted != int64(okCount) {
		t.Fatalf("Stats().Admitted = %d, want %d", st.Admitted, okCount)
	}
	if st.Inflight != 0 || st.Waiting != 0 {
		t.Fatalf("admission counters not drained after overload: %+v", st)
	}

	// With the latency gone the same searcher serves everyone again.
	if _, err := s.SearchContext(ctx, toposearch.SearchQuery{K: 3, Method: "fast-top-k"}); err != nil {
		t.Fatalf("search after overload episode: %v", err)
	}
	if st := s.Stats(); st.Canceled != 0 {
		t.Fatalf("Stats().Canceled = %d after an episode with no cancellations, want 0", st.Canceled)
	}

	// Cancelled-while-queued on a no-timeout queue: the queued query's
	// exit must land in the canceled counter — it used to return from
	// the admission wait without touching any counter, vanishing from
	// the Admitted + Rejected accounting.
	ccfg := chaosConfig(2)
	ccfg.MaxInflight = 1
	ccfg.MaxQueue = 4
	s2, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := fault.Enable(*chaosSeedFlag,
		fault.Rule{Point: "methods.scan", Delay: 300 * time.Millisecond, DelayOnly: true}); err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, cond func(toposearch.SearcherStats) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond(s2.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, s2.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	holder := make(chan error, 1)
	go func() {
		_, err := s2.SearchContext(ctx, toposearch.SearchQuery{Method: "fast-top"})
		holder <- err
	}()
	waitFor("the slot to be held", func(st toposearch.SearcherStats) bool { return st.Inflight == 1 })
	cctx, cancel := context.WithCancel(ctx)
	queued := make(chan error, 1)
	go func() {
		_, err := s2.SearchContext(cctx, toposearch.SearchQuery{K: 3, Method: "fast-top-k"})
		queued <- err
	}()
	waitFor("the second query to queue", func(st toposearch.SearcherStats) bool { return st.Waiting == 1 })
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-while-queued query: got %v, want context.Canceled", err)
	}
	if err := <-holder; err != nil {
		t.Fatalf("slot-holding query: %v", err)
	}
	fault.Disable()
	st2 := s2.Stats()
	if st2.Canceled != 1 || st2.Admitted != 1 || st2.Rejected != 0 {
		t.Fatalf("admission accounting after queued cancellation: %+v, want 1 admitted / 0 rejected / 1 canceled", st2)
	}
	if st2.Inflight != 0 || st2.Waiting != 0 {
		t.Fatalf("admission gauges not drained after queued cancellation: %+v", st2)
	}
}

// TestChaosDeadlinePartial proves the deadline-budget contract: with
// PartialOK a deadline cut ships a ranked prefix (err == nil,
// Partial set), without it the query fails
// with context.DeadlineExceeded — and partial answers never enter the
// result cache.
func TestChaosDeadlinePartial(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 23)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, chaosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	t.Cleanup(fault.Disable)

	if err := fault.Enable(*chaosSeedFlag,
		fault.Rule{Point: "methods.scan", Delay: 150 * time.Millisecond, DelayOnly: true}); err != nil {
		t.Fatal(err)
	}

	q := toposearch.SearchQuery{Method: "full-top", Deadline: 30 * time.Millisecond, PartialOK: true}
	res, err := s.SearchContext(ctx, q)
	if err != nil {
		t.Fatalf("deadline-bounded PartialOK query failed: %v", err)
	}
	if !res.Partial {
		t.Fatal("deadline-bounded query under injected latency did not report Partial")
	}
	if res.CacheHit {
		t.Fatal("partial result claimed a cache hit")
	}
	if s.Stats().Partials == 0 {
		t.Fatal("partial result not counted in SearcherStats.Partials")
	}

	// Same deadline without PartialOK: a typed failure, not a partial.
	hard := toposearch.SearchQuery{Method: "full-top", Deadline: 30 * time.Millisecond}
	if _, err := s.SearchContext(ctx, hard); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-bounded query without PartialOK: got %v, want DeadlineExceeded", err)
	}

	fault.Disable()

	// The partial run must not have poisoned the cache: the same query
	// shape without a deadline computes the full answer.
	full, err := s.SearchContext(ctx, toposearch.SearchQuery{Method: "full-top"})
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatal("unbounded query reported Partial")
	}
	if full.CacheHit {
		t.Fatal("full answer was served from cache right after a partial run — partials must never be cached")
	}
	if len(full.Topologies) == 0 {
		t.Fatal("full answer empty")
	}
}

// TestChaosSearchCloseConcurrent races Search against Close: Close
// drains in-flight queries (none straddles the cursor unregistration),
// is idempotent under concurrent callers, and queries on the closed
// searcher keep answering from its last generation.
func TestChaosSearchCloseConcurrent(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 29)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, chaosConfig(2))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.SearchContext(ctx, toposearch.SearchQuery{K: 3, Method: "fast-top-k"}); err != nil {
					t.Errorf("search racing Close: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond)
	var cwg sync.WaitGroup
	for i := 0; i < 3; i++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			s.Close()
		}()
	}
	cwg.Wait()
	close(stop)
	wg.Wait()

	// The closed searcher still answers from its last generation.
	res, err := s.SearchContext(ctx, toposearch.SearchQuery{K: 3, Method: "fast-top-k"})
	if err != nil {
		t.Fatalf("search on closed searcher: %v", err)
	}
	if len(res.Topologies) == 0 {
		t.Fatal("search on closed searcher returned no topologies")
	}
	s.Close() // idempotent
}

// TestChaosCacheFillSurvivesCallerCancellation is the regression test
// for the singleflight cancellation bug: the caller that INITIATES a
// cache fill being cancelled must not fail the fill for the waiters
// that collapsed onto it — the fill runs detached, completes, and is
// cached.
func TestChaosCacheFillSurvivesCallerCancellation(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, chaosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	t.Cleanup(fault.Disable)

	// Only the first fill is slow: the initiator times out mid-fill.
	if err := fault.Enable(*chaosSeedFlag,
		fault.Rule{Point: "methods.scan", Delay: 200 * time.Millisecond, DelayOnly: true, Count: 1}); err != nil {
		t.Fatal(err)
	}

	q := toposearch.SearchQuery{Method: "fast-top", Cons2: []toposearch.Constraint{{Column: "type", Equals: "mRNA"}}}
	initiatorErr := make(chan error, 1)
	go func() {
		cctx, cancel := context.WithTimeout(ctx, 40*time.Millisecond)
		defer cancel()
		_, err := s.SearchContext(cctx, q)
		initiatorErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // the initiator is inside the slow fill now

	// A second caller with no deadline joins the same flight and must
	// get the full result even though the initiator is about to die.
	res, err := s.SearchContext(ctx, q)
	if err != nil {
		t.Fatalf("waiter on cancelled initiator's fill: %v", err)
	}
	if len(res.Topologies) == 0 {
		t.Fatal("waiter got an empty result")
	}
	if err := <-initiatorErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("initiator: got %v, want DeadlineExceeded", err)
	}
	fault.Disable()

	// The fill completed and was cached despite the initiator's death.
	again, err := s.SearchContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("fill initiated by a cancelled caller was not cached")
	}
	if fmt.Sprint(again.Topologies) != fmt.Sprint(res.Topologies) {
		t.Fatalf("cached fill diverges from the waiter's answer:\n got %v\nwant %v", again.Topologies, res.Topologies)
	}
}

// TestChaosAccessorContainment covers the read-path accessors' guard:
// Explain, Instances, Witness and Space hold the same lifecycle read
// lock and panic containment SearchContext does, so a panic injected at
// searcher.accessor surfaces as a typed *EnginePanicError from Explain,
// degrades the error-less accessors to their zero returns, and is
// counted in PanicsContained — it never escapes to the caller. With the
// fault disarmed all four accessors work again, against the same store
// generation.
func TestChaosAccessorContainment(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	db, err := toposearch.Synthetic(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcher(toposearch.Protein, toposearch.DNA, chaosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A live topology ID and instance pair for the healthy passes.
	res, err := s.Search(toposearch.SearchQuery{K: 3, Method: "fast-top-k"})
	if err != nil || len(res.Topologies) == 0 {
		t.Fatalf("seed query: res=%v err=%v", res, err)
	}
	tid := res.Topologies[0].ID
	pairs := s.Instances(tid, 1)
	if len(pairs) == 0 {
		t.Fatalf("topology %d has no instances", tid)
	}

	t.Cleanup(fault.Disable)
	if err := fault.Enable(*chaosSeedFlag,
		fault.Rule{Point: "searcher.accessor", Panic: true}); err != nil {
		t.Fatal(err)
	}

	var pe *toposearch.EnginePanicError
	if _, err := s.Explain(toposearch.SearchQuery{K: 3, Method: "fast-top-k"}); !errors.As(err, &pe) {
		t.Fatalf("Explain under injected panic: got %v, want EnginePanicError", err)
	}
	if got := s.Instances(tid, 4); got != nil {
		t.Fatalf("Instances under injected panic = %v, want nil", got)
	}
	if lines, ok := s.Witness(pairs[0][0], pairs[0][1], tid); ok || lines != nil {
		t.Fatalf("Witness under injected panic = %v, %v; want nil, false", lines, ok)
	}
	if rep := s.Space(); rep.ES1 != "" || rep.AllTopsBytes != 0 {
		t.Fatalf("Space under injected panic = %+v, want zero report", rep)
	}
	if st := s.Stats(); st.PanicsContained != 4 {
		t.Fatalf("PanicsContained = %d, want 4 (one per accessor)", st.PanicsContained)
	}

	fault.Disable()
	if _, err := s.Explain(toposearch.SearchQuery{K: 3, Method: "fast-top-k"}); err != nil {
		t.Fatalf("Explain after disarm: %v", err)
	}
	if got := s.Instances(tid, 1); len(got) == 0 {
		t.Fatal("Instances after disarm came back empty")
	}
	if lines, ok := s.Witness(pairs[0][0], pairs[0][1], tid); !ok || len(lines) == 0 {
		t.Fatalf("Witness after disarm = %v, %v", lines, ok)
	}
	if rep := s.Space(); rep.ES1 == "" {
		t.Fatal("Space after disarm returned a zero report")
	}
}
