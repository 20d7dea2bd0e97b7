package toposearch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"toposearch/internal/core"
	"toposearch/internal/delta"
	"toposearch/internal/fault"
	"toposearch/internal/graph"
	"toposearch/internal/methods"
	"toposearch/internal/obs"
	"toposearch/internal/ranking"
)

// EnginePanicError is the typed containment of a panic that occurred
// inside the engine — in a query's scan window worker, an
// offline-computation worker, a cache fill, or a refresh.
// Panics never escape Search/Refresh or kill sibling queries; they
// surface as an error carrying the containment site, the panic value,
// and the goroutine stack. When the panic value was itself an error
// (fault injection panics with one), errors.Is/As see through to it.
type EnginePanicError = fault.PanicError

// ErrInjected is the sentinel wrapped by every error the fault
// registry injects (internal/fault); chaos tests match rejections
// against it with errors.Is.
var ErrInjected = fault.ErrInjected

// faultAccessor fires at the top of the guarded read-path accessors
// (Explain, Instances, Witness, Space): the chaos harness uses it to
// prove a panic inside an accessor is contained instead of escaping to
// the caller.
var faultAccessor = fault.Register("searcher.accessor")

// ErrOverloaded is returned by Search when admission control rejects
// the query: the searcher is at MaxInflight, the wait queue is at
// MaxQueue (or the queue wait timed out), and load must shed. Callers
// should back off and retry.
var ErrOverloaded = errors.New("toposearch: searcher overloaded")

// SearcherConfig controls the offline phase of a Searcher.
type SearcherConfig struct {
	// MaxLen is the path-length bound l (default 3, as in the paper).
	MaxLen int
	// PruneThreshold prunes topologies relating more entity pairs than
	// this from the precomputed tables (Fast-Top, Section 4.2). A
	// negative value disables pruning.
	PruneThreshold int
	// MaxCombinations bounds the per-pair Definition 2 enumeration.
	MaxCombinations int
	// WeakPruning drops weak-relationship schema paths (Appendix B);
	// meaningful for MaxLen >= 4.
	WeakPruning bool
	// Parallelism is the worker count of both phases. Offline, start
	// nodes are spread across this many workers; online, every Search
	// splits its driving entity scan and the per-pruned-topology
	// existence checks the same way (0 = GOMAXPROCS, 1 = sequential).
	// The precomputed tables AND every query result are byte-identical
	// at every setting.
	Parallelism int
	// CacheBytes bounds the searcher's generation-tagged query result
	// cache: repeated queries between mutation batches become O(1)
	// lookups. A Refresh that absorbs relationships empties it; one
	// that absorbs only entities keeps it. 0 uses the 64 MiB default; a
	// negative value disables the cache. Cached results are
	// byte-identical to uncached execution (see SearchResult.CacheHit).
	CacheBytes int64
	// MaxInflight bounds how many Search calls may execute
	// concurrently (0 = unbounded). A query arriving while all slots
	// are busy waits in a bounded queue for a slot and then runs exactly
	// as an unqueued one would; only when the queue itself is full (or
	// the wait exceeds QueueTimeout) is it rejected with ErrOverloaded.
	MaxInflight int
	// MaxQueue bounds how many queries may wait for an
	// admission slot before new arrivals are rejected with
	// ErrOverloaded (0 = unbounded queue). Only meaningful with
	// MaxInflight > 0.
	MaxQueue int
	// QueueTimeout bounds how long a queued query waits for a slot
	// before giving up with ErrOverloaded (0 = wait until the query's
	// context expires). Only meaningful with MaxInflight > 0.
	QueueTimeout time.Duration
}

// DefaultSearcherConfig matches the paper's main experimental setup:
// l = 3 with frequency pruning.
func DefaultSearcherConfig() SearcherConfig {
	return SearcherConfig{MaxLen: 3, PruneThreshold: 8, MaxCombinations: 4096}
}

// Searcher answers topology queries for one entity-set pair, using the
// precomputed LeftTops/ExcpTops/TopInfo tables (the Fast-Top family).
//
// A Searcher is safe for concurrent use: the offline phase pre-builds
// every index and statistics object the query plans read, so any
// number of goroutines may call Search/SearchContext/Explain on one
// Searcher (or on several Searchers sharing one DB) simultaneously.
//
// A Searcher on a live DB stays consistent under inserts: every query
// runs against one atomically published store generation. Refresh
// incrementally folds the rows applied since the last refresh into a
// new generation (recomputing only the affected start-node frontier)
// and swaps it in; queries already running finish on the old one.
type Searcher struct {
	db *DB

	store atomic.Pointer[methods.Store]

	// cache is the generation-tagged result cache (nil when disabled).
	cache *methods.ResultCache

	refreshMu sync.Mutex // serializes Refresh
	cursor    int        // applied-edge log position this searcher has absorbed
	closed    bool

	// lifecycle lets Close drain in-flight queries: every Search holds
	// the read side for its duration, Close takes the write side
	// momentarily. Queries keep working on a closed searcher (see
	// Close); the drain only guarantees none straddles the close.
	lifecycle sync.RWMutex

	// Admission control (nil admit = unbounded).
	admit     chan struct{}
	maxQueue  int
	queueWait time.Duration

	// sid labels this searcher's metric series ("<es1>-<es2>#<seq>");
	// met holds the resolved per-searcher instruments. The admission and
	// robustness counters live directly on the obs registry — Stats()
	// is a snapshot view over them.
	sid string
	met searcherMetrics
}

// SearcherStats is a point-in-time snapshot of a searcher's admission
// and robustness counters.
type SearcherStats struct {
	// Inflight is the number of Search calls currently executing;
	// Waiting the number queued for an admission slot.
	Inflight, Waiting int64
	// Admitted, Rejected and Degraded count admission outcomes:
	// queries that got a slot, queries shed with ErrOverloaded, and
	// admitted queries that first waited in the queue because they
	// arrived under contention. Zero when MaxInflight is 0.
	Admitted, Rejected, Degraded int64
	// Canceled counts queries whose context expired while they waited
	// in the admission queue: they left without a slot and without
	// being shed, so every queued query resolves to exactly one of
	// Admitted, Rejected or Canceled.
	Canceled int64
	// PanicsContained counts panics recovered into EnginePanicError
	// values by Search and Refresh instead of crashing the process.
	PanicsContained int64
	// Partials counts deadline-bounded queries that returned a partial
	// result (SearchResult.Partial).
	Partials int64
}

// Stats snapshots the searcher's admission-control and robustness
// counters. The counters live on the obs metrics registry (labeled
// with this searcher's series id); SearcherStats remains the stable
// snapshot view over them.
func (s *Searcher) Stats() SearcherStats {
	return SearcherStats{
		Inflight: int64(s.met.inflight.Value()), Waiting: int64(s.met.waiting.Value()),
		Admitted: s.met.admitted.Value(), Rejected: s.met.rejected.Value(), Degraded: s.met.degraded.Value(),
		Canceled:        s.met.canceled.Value(),
		PanicsContained: s.met.panics.Value(), Partials: s.met.partials.Value(),
	}
}

// current returns the store generation queries should run against.
func (s *Searcher) current() *methods.Store { return s.store.Load() }

// NewSearcher runs the offline phase (topology computation + pruning +
// materialization) for the entity-set pair.
func (db *DB) NewSearcher(es1, es2 string, cfg SearcherConfig) (*Searcher, error) {
	return db.NewSearcherContext(context.Background(), es1, es2, cfg)
}

// NewSearcherContext is NewSearcher with a cancellation context: the
// offline topology computation runs on cfg.Parallelism workers and
// aborts with the context's error once it is cancelled (checked at
// start-node granularity).
func (db *DB) NewSearcherContext(ctx context.Context, es1, es2 string, cfg SearcherConfig) (*Searcher, error) {
	opts := core.Options{
		MaxLen:           cfg.MaxLen,
		MaxCombinations:  cfg.MaxCombinations,
		MaxPathsPerClass: 64,
		Parallelism:      cfg.Parallelism,
	}
	if cfg.WeakPruning {
		opts.Weak = core.DefaultWeakRules()
	}
	threshold := cfg.PruneThreshold
	if threshold < 0 {
		threshold = 1 << 40 // effectively no pruning
	}
	// Snapshot the graph together with the applied-edge log position it
	// reflects, so the first Refresh starts exactly where this build
	// left off. The searcher's cursor is registered with the DB inside
	// the same critical section: from this moment the applied-edge log
	// must retain everything at or after it until the searcher
	// refreshes past it or closes.
	s := &Searcher{db: db}
	s.sid, s.met = newSearcherMetrics(es1, es2)
	if cfg.MaxInflight > 0 {
		s.admit = make(chan struct{}, cfg.MaxInflight)
		s.maxQueue = cfg.MaxQueue
		s.queueWait = cfg.QueueTimeout
	}
	db.mu.Lock()
	g := db.graphNow()
	s.cursor = db.log.Len()
	db.cursors[s] = s.cursor
	db.mu.Unlock()
	t0 := time.Now()
	st, err := methods.BuildStoreFromGraph(ctx, db.rel, g, db.sg, es1, es2, methods.StoreConfig{
		Opts:           opts,
		PruneThreshold: threshold,
		Scores:         ranking.Schemes(),
	})
	if err != nil {
		s.Close()
		return nil, err
	}
	if obs.Enabled() {
		obsBuildDur.Observe(time.Since(t0).Seconds())
	}
	s.store.Store(st)
	if cfg.CacheBytes >= 0 {
		bytes := cfg.CacheBytes
		if bytes == 0 {
			bytes = 64 << 20
		}
		s.cache = methods.NewResultCache(bytes)
	}
	return s, nil
}

// Close releases the searcher's claim on the DB's applied-edge log:
// its cursor leaves the DB's registry, allowing the log to be
// truncated past the mutations this searcher had not yet absorbed.
// Close first drains: it waits for every in-flight Search to finish,
// so no query straddles the cursor unregistration. Queries STARTED on
// a closed searcher keep working against its last store generation
// (the snapshot stays fully valid), but Refresh becomes a no-op.
// Close is idempotent and safe to race with Search; the cursor is
// unregistered exactly once.
func (s *Searcher) Close() {
	// Drain: the write side of the lifecycle lock is granted only once
	// every in-flight Search has released its read side.
	s.lifecycle.Lock()
	s.lifecycle.Unlock() //nolint:staticcheck // empty critical section IS the drain

	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.db.mu.Lock()
	delete(s.db.cursors, s)
	s.db.truncateLogLocked()
	s.db.mu.Unlock()
	// Drop this searcher's labeled series from the exposition; the
	// instrument pointers in s.met stay valid, so Stats() keeps working
	// on a closed searcher.
	releaseSearcherMetrics(s.sid)
}

// Refresh incrementally folds the mutations applied to the DB since
// this Searcher was built (or last refreshed) into its precomputed
// tables: the affected start-node frontier — entity-set-1 nodes within
// path range of the new relationships — is recomputed on the
// configured worker pool, merged with the untouched results, re-pruned
// and rematerialized, producing tables and query results byte-identical
// to running the offline phase from scratch on the grown database.
// Queries keep running throughout and switch to the new generation
// atomically. Refresh returns the number of new relationship rows it
// absorbed (0 means there was nothing to do).
func (s *Searcher) Refresh() (int, error) {
	return s.RefreshContext(context.Background())
}

// RefreshContext is Refresh with a cancellation context: the frontier
// recomputation aborts with the context's error once cancelled, in
// which case the current generation stays in place.
//
// Refresh is failure-contained and atomic: a failure or panic anywhere
// in the recomputation surfaces as an error (panics as
// *EnginePanicError) and leaves the current generation, the result
// cache, and the edge-log cursor exactly as they were — the next
// Refresh simply redoes the work.
func (s *Searcher) RefreshContext(ctx context.Context) (n int, err error) {
	// Metrics defer installed before the recover defer (LIFO) so it
	// sees the final n/err.
	if obs.Enabled() {
		t0 := time.Now()
		defer func() {
			status := "ok"
			if err != nil {
				status = "error"
			}
			obsRefreshDur.With(status).Observe(time.Since(t0).Seconds())
			obsRefreshEdges.Add(int64(n))
			obsDeltaBytes.Set(float64(s.db.rel.DeltaBytes()))
		}()
	}
	defer s.countPanics(&err)
	defer fault.RecoverTo(&err, "searcher.refresh")
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if s.closed {
		return 0, nil
	}
	s.db.mu.Lock()
	g := s.db.graphNow()
	edges, cursor := s.db.log.Since(s.cursor)
	s.db.mu.Unlock()
	st := s.current()
	if cursor == s.cursor && g == st.G {
		return 0, nil // nothing applied since the last refresh
	}
	if len(edges) == 0 {
		// Entity-only growth: topology tables cannot have changed, only
		// the graph needs swapping.
		s.store.Store(st.RefreshShallow(g))
		s.advanceCursor(cursor)
		return 0, nil
	}
	affected := delta.AffectedStarts(g, st.ES1, st.Cfg.Opts.EffectiveMaxLen(), edges)
	ns, _, err := st.RefreshDiff(ctx, g, affected)
	if err != nil {
		return 0, err
	}
	// Everything fallible is done: the publication sequence below —
	// generation swap, cache invalidation, cursor advance — has no
	// failure point left, so a contained fault can never leave them
	// half-updated.
	s.store.Store(ns)
	if s.cache != nil {
		s.cache.Invalidate()
		s.syncCacheGauges()
	}
	s.advanceCursor(cursor)
	return len(edges), nil
}

// CacheStats snapshots the result cache's counters (zero value when
// the cache is disabled).
func (s *Searcher) CacheStats() methods.CacheStats {
	if s.cache == nil {
		return methods.CacheStats{}
	}
	return s.cache.Stats()
}

// advanceCursor records that this searcher has absorbed the log up to
// cursor, both locally and in the DB's registry, and lets the DB drop
// log entries no live searcher needs anymore.
func (s *Searcher) advanceCursor(cursor int) {
	s.cursor = cursor
	s.db.mu.Lock()
	s.db.cursors[s] = cursor
	s.db.truncateLogLocked()
	s.db.mu.Unlock()
}

// SearchQuery is a 2-query: constraints on both entity sets, plus
// optional top-k controls and an evaluation method override.
type SearchQuery struct {
	Cons1, Cons2 []Constraint
	// K limits the result to the k best topologies (0 = all).
	K int
	// Ranking orders results (RankFreq, RankRare, RankDomain);
	// required when K > 0. Defaults to RankDomain when K > 0.
	Ranking string
	// Method overrides the evaluation strategy (one of the paper's
	// nine method names, e.g. "fast-top-k-opt"). Empty picks
	// fast-top-k-opt for top-k queries and fast-top otherwise.
	Method string
	// Deadline bounds the query's execution time. 0 means no bound.
	// When the deadline expires the query fails with
	// context.DeadlineExceeded — unless PartialOK is set, in which case
	// it returns the ranked results produced so far with
	// SearchResult.Partial reporting the cut. Deadline-bounded queries
	// bypass the result cache (a partial answer must never be cached).
	Deadline time.Duration
	// PartialOK permits a deadline-bounded query to return a partial
	// result instead of failing at the deadline. See Deadline.
	PartialOK bool
	// Trace collects a span tree of this query's execution —
	// compile, cache lookup/fill, method dispatch, optimizer choice,
	// scan/join windows, the ET drain, merges — into
	// SearchResult.Trace: the engine's EXPLAIN ANALYZE. Tracing records
	// timings and counter attributes only; the result's topologies and
	// work counters are byte-identical to an untraced run. Independent
	// of SetMetricsEnabled.
	Trace bool
}

// TopologyResult describes one result topology.
type TopologyResult struct {
	ID        int
	Score     int64
	Structure string // canonical structure rendering
	Nodes     int
	Edges     int
	Classes   int // number of path equivalence classes unioned
	IsPath    bool
	Frequency int // entity pairs related by this topology (whole DB)
}

// SearchResult is the outcome of a Search.
type SearchResult struct {
	Topologies []TopologyResult
	// Method is the evaluation method that ran.
	Method string
	// Plan is the physical strategy the optimizer chose (Opt methods).
	Plan string
	// WastedWork is the physical work (rows scanned + index probes)
	// the parallel pruned-topology merge burned on existence checks the
	// sequential loop would have skipped; useful work is byte-identical
	// to a sequential run.
	WastedWork int64
	// CacheHit reports the result came from the searcher's result cache
	// (or a collapsed concurrent computation) instead of a method run.
	// The topologies are byte-identical to a fresh execution; Method,
	// Plan and the work accounting describe the run that populated the
	// entry.
	CacheHit bool
	// Partial reports that the query's Deadline expired with PartialOK
	// set: Topologies holds the ranked results produced before the
	// cut — a subset of the full answer.
	Partial bool
	// Degraded reports that admission control queued this query because
	// it arrived while all MaxInflight slots were busy. It then ran
	// exactly as an unqueued query would.
	Degraded bool
	// Trace is the execution span tree, present iff SearchQuery.Trace
	// was set. On a cache hit it holds the lookup path only (the work
	// spans belong to the query that filled the entry).
	Trace *TraceSpan
}

func (q SearchQuery) method() string {
	if q.Method != "" {
		return q.Method
	}
	if q.K > 0 {
		return methods.MethodFastTopOpt
	}
	return methods.MethodFastTop
}

func (q SearchQuery) ranking() string {
	if q.Ranking != "" {
		return q.Ranking
	}
	if q.K > 0 {
		return RankDomain
	}
	return ""
}

func (s *Searcher) compileQuery(st *methods.Store, q SearchQuery) (methods.Query, error) {
	p1, _, err := s.db.compile(st.ES1, q.Cons1)
	if err != nil {
		return methods.Query{}, err
	}
	p2, _, err := s.db.compile(st.ES2, q.Cons2)
	if err != nil {
		return methods.Query{}, err
	}
	return methods.Query{Pred1: p1, Pred2: p2, K: q.K, Ranking: q.ranking()}, nil
}

// Search runs the query and returns the matching topologies.
func (s *Searcher) Search(q SearchQuery) (*SearchResult, error) {
	return s.SearchContext(context.Background(), q)
}

// acquire admits one Search call under the MaxInflight bound. The fast
// path takes a free slot immediately; under contention the query joins
// the bounded wait queue and is admitted as degraded (queued). The
// queue overflowing, or the wait exceeding QueueTimeout, rejects with
// ErrOverloaded. release is non-nil exactly when err is nil.
func (s *Searcher) acquire(ctx context.Context) (degraded bool, release func(), err error) {
	if s.admit == nil {
		return false, func() {}, nil
	}
	select {
	case s.admit <- struct{}{}:
		s.met.admitted.Inc()
		return false, func() { <-s.admit }, nil
	default:
	}
	if n := int64(s.met.waiting.Add(1)); s.maxQueue > 0 && n > int64(s.maxQueue) {
		s.met.waiting.Add(-1)
		s.met.rejected.Inc()
		return false, nil, fmt.Errorf("%w: wait queue full (%d waiting)", ErrOverloaded, s.maxQueue)
	}
	defer s.met.waiting.Add(-1)
	var timeout <-chan time.Time
	if s.queueWait > 0 {
		t := time.NewTimer(s.queueWait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case s.admit <- struct{}{}:
		s.met.admitted.Inc()
		s.met.degraded.Inc()
		return true, func() { <-s.admit }, nil
	case <-timeout:
		s.met.rejected.Inc()
		return false, nil, fmt.Errorf("%w: no slot within %v", ErrOverloaded, s.queueWait)
	case <-ctx.Done():
		// A context-cancelled queued query leaves without a slot and
		// without being shed; count it so Admitted + Rejected + Canceled
		// covers every queued arrival and the obs admission families
		// never under-count.
		s.met.canceled.Inc()
		return false, nil, ctx.Err()
	}
}

// SearchContext is Search with a cancellation context: long-running
// execution plans abort with the context's error once it is cancelled.
//
// SearchContext is failure-contained: a panic anywhere in the
// execution engine — including this call's own goroutine — surfaces as
// a *EnginePanicError instead of crashing the process, and sibling
// queries are unaffected.
//
// Every query runs one chain: admit, compile, execute, shape. Execute
// goes through the result cache when there is one and the query has
// neither a Deadline nor PartialOK; otherwise it runs the method
// directly. Deadline-bounded queries bypass the cache: a partial answer
// must never be cached, and the cache's detached fill deliberately
// ignores per-caller deadlines.
func (s *Searcher) SearchContext(ctx context.Context, q SearchQuery) (res *SearchResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Latency metric: installed before the containment defers (LIFO) so
	// it observes the final res/err, including a contained panic. One
	// atomic load when telemetry is off.
	if obs.Enabled() {
		t0 := time.Now()
		defer func() {
			status := "ok"
			switch {
			case errors.Is(err, ErrOverloaded):
				status = "shed"
			case err != nil:
				status = "error"
			case res.Partial:
				status = "partial"
			}
			obsQueryDur.With(q.method(), status).Observe(time.Since(t0).Seconds())
		}()
	}
	// Hold the lifecycle read side for the whole call so Close can
	// drain in-flight queries.
	s.lifecycle.RLock()
	defer s.lifecycle.RUnlock()
	defer s.countPanics(&err)
	defer fault.RecoverTo(&err, "searcher.search")

	var root *TraceSpan
	if q.Trace {
		root = obs.NewTrace("search")
	}
	degraded, release, err := s.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	if degraded {
		root.SetInt("degraded", 1)
	}

	st := s.current()
	cs := root.Child("compile")
	mq, err := s.compileQuery(st, q)
	cs.End()
	if err != nil {
		return nil, err
	}

	var out *SearchResult
	hit := false
	if s.cache != nil && q.Deadline == 0 && !q.PartialOK {
		out, hit, err = s.execCached(ctx, st, q, mq, root)
	} else {
		if q.Deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, q.Deadline)
			defer cancel()
		}
		mq.PartialOK = q.PartialOK
		mq.Trace = root.Child("execute")
		out, err = s.execSearch(ctx, st, q.method(), mq)
	}
	if err != nil {
		return nil, err
	}

	out.CacheHit, out.Degraded = hit, degraded
	if out.Partial {
		s.met.partials.Inc()
	}
	// Traced or not, the work performed is identical — spans only record
	// timings — so traced results stay byte-identical to untraced ones.
	if root != nil {
		root.End()
		out.Trace = root
	}
	return out, nil
}

// execCached answers the query through the result cache and reports
// whether the answer was a hit. The returned result is the caller's own
// copy.
//
// The lookup is tagged (generation, edge-log position): the store
// snapshot plus the applied-edge log position pin everything a result
// can depend on (method executors also read the live base tables,
// which only change when a batch appends to the log). The fill runs
// detached from this caller's context: if this caller is cancelled
// mid-fill, waiters collapsed onto the flight still get a completed
// result, and this caller returns its ctx error.
//
// The epoch is snapshotted here, before the fill can start, and re-read
// after the fill's last base-table read: a batch applied mid-fill means
// the execution may have observed post-epoch rows, so the result is
// returned to the waiters but never cached under the pre-fill tag
// (which would break the cached-results-byte-identical invariant for
// any query that read the epoch before the batch).
func (s *Searcher) execCached(ctx context.Context, st *methods.Store, q SearchQuery, mq methods.Query, root *TraceSpan) (*SearchResult, bool, error) {
	epoch := s.db.log.Len()
	fillCtx := context.WithoutCancel(ctx)
	lookup := root.Child("cache.lookup")
	defer lookup.End()
	v, hit, err := s.cache.GetOrCompute(ctx, searchCacheKey(q), st.Gen, epoch, func() (any, int64, bool, error) {
		// This closure runs only for the flight that computes the
		// entry, so a fill span here always belongs to this caller's
		// own tree. The cached value itself never carries a trace.
		fmq := mq
		fmq.Trace = lookup.Child("cache.fill")
		res, err := s.execSearch(fillCtx, st, q.method(), fmq)
		fmq.Trace.End()
		if err != nil {
			return nil, 0, false, err
		}
		// Epoch re-check, AFTER the last base-table read above. Taken
		// under db.mu, unlike a bare log.Len(): ApplyBatch makes rows
		// visible and appends to the log while holding that lock, so
		// once we acquire it any batch whose rows this fill could have
		// observed has finished its append — Len moved — and the entry
		// is skipped.
		s.db.mu.Lock()
		cacheable := s.db.log.Len() == epoch
		s.db.mu.Unlock()
		return res, res.approxBytes(), cacheable, nil
	})
	if err != nil {
		return nil, false, err
	}
	if hit {
		lookup.SetInt("hit", 1)
	} else {
		lookup.SetInt("hit", 0)
		s.syncCacheGauges() // a fill is the only search that changes residency
	}
	return v.(*SearchResult).clone(), hit, nil
}

// syncCacheGauges publishes the cache's resident set to its gauges. It
// runs only where residency changes — after a fill and after a
// generation advance — so cache hits never lock the stripes for it.
func (s *Searcher) syncCacheGauges() {
	if !obs.Enabled() {
		return
	}
	cs := s.cache.Stats()
	s.met.cacheBytes.Set(float64(cs.Bytes))
	s.met.cacheEntries.Set(float64(cs.Entries))
}

// countPanics counts a contained panic in PanicsContained. Deferred
// just before fault.RecoverTo, it runs after it and so sees both a
// panic recovered at this boundary and one contained further down (a
// scan window, a cache fill) and returned as an error.
func (s *Searcher) countPanics(errp *error) {
	var pe *EnginePanicError
	if errors.As(*errp, &pe) {
		s.met.panics.Inc()
	}
}

// execSearch runs the query against the store generation and shapes
// the public result.
func (s *Searcher) execSearch(ctx context.Context, st *methods.Store, m string, mq methods.Query) (*SearchResult, error) {
	res, err := st.RunContext(ctx, m, mq)
	if err != nil {
		return nil, err
	}
	out := &SearchResult{Method: m, Plan: res.Plan.String(),
		WastedWork: res.Wasted.Work(), Partial: res.Partial}
	pd := st.Res.Pair(st.ES1, st.ES2)
	for _, it := range res.Items {
		info := st.Res.Reg.Info(it.TID)
		out.Topologies = append(out.Topologies, TopologyResult{
			ID:        int(it.TID),
			Score:     it.Score,
			Structure: info.Describe(),
			Nodes:     info.NumNodes,
			Edges:     info.NumEdges,
			Classes:   len(info.Sigs),
			IsPath:    info.IsPath,
			Frequency: pd.Freq[it.TID],
		})
	}
	return out, nil
}

// searchCacheKey canonicalizes the result-identity part of the query:
// resolved method and ranking, k, and the sorted constraint renderings.
// The latency-only parallelism setting never enters the key — results
// are byte-identical across it.
func searchCacheKey(q SearchQuery) string {
	return methods.CacheKey(q.method(), q.ranking(), q.K, renderCons(q.Cons1), renderCons(q.Cons2))
}

func renderCons(cons []Constraint) []string {
	out := make([]string, len(cons))
	for i, c := range cons {
		if c.Keyword != "" {
			out[i] = "kw\x00" + c.Column + "\x00" + c.Keyword
		} else {
			out[i] = "eq\x00" + c.Column + "\x00" + c.Equals
		}
	}
	return out
}

// clone returns a copy whose slices are detached from the receiver, so
// callers can never mutate a cached entry through a returned result.
func (r *SearchResult) clone() *SearchResult {
	cp := *r
	cp.Topologies = append([]TopologyResult(nil), r.Topologies...)
	return &cp
}

// approxBytes estimates the result's resident size for the cache's
// memory accounting, mirroring relstore's ApproxBytes spirit: struct
// sizes plus string payloads.
func (r *SearchResult) approxBytes() int64 {
	b := int64(128 + len(r.Method) + len(r.Plan))
	for _, t := range r.Topologies {
		b += int64(72 + len(t.Structure))
	}
	return b
}

// guardAccessor gives the read-path accessors (Explain, Instances,
// Witness, Space) the same lifecycle and containment treatment
// SearchContext has: the read side of the lifecycle lock is held for
// the whole call, so Close's drain covers accessors too, and a panic
// inside fn is recovered into *EnginePanicError and counted in
// SearcherStats.PanicsContained. The searcher.accessor fault point
// fires before fn; an injected error (or contained panic) surfaces on
// Explain and degrades the error-less accessors to their zero returns.
func (s *Searcher) guardAccessor(site string, fn func() error) (err error) {
	s.lifecycle.RLock()
	defer s.lifecycle.RUnlock()
	defer s.countPanics(&err)
	defer fault.RecoverTo(&err, site)
	if err = faultAccessor.Hit(); err != nil {
		return err
	}
	return fn()
}

// Explain returns the optimizer's plan choice and rendering for a
// top-k query without executing it.
func (s *Searcher) Explain(q SearchQuery) (string, error) {
	var plan string
	err := s.guardAccessor("searcher.explain", func() error {
		st := s.current()
		mq, err := s.compileQuery(st, q)
		if err != nil {
			return err
		}
		if mq.Ranking == "" {
			mq.Ranking = RankDomain
		}
		if mq.K == 0 {
			mq.K = 10
		}
		p, choice, err := st.ExplainOpt(mq, true)
		if err != nil {
			return err
		}
		plan = fmt.Sprintf("chosen plan: %s\n%s", choice.Kind, p)
		return nil
	})
	return plan, err
}

// Instances lists up to limit entity pairs related by the topology
// (limit 0 = all). A contained panic yields nil.
func (s *Searcher) Instances(topologyID int, limit int) [][2]int64 {
	var out [][2]int64
	_ = s.guardAccessor("searcher.instances", func() error {
		st := s.current()
		pairs := st.Res.Instances(st.ES1, st.ES2, core.TopologyID(topologyID))
		if limit > 0 && len(pairs) > limit {
			pairs = pairs[:limit]
		}
		out = make([][2]int64, len(pairs))
		for i, p := range pairs {
			out[i] = [2]int64{int64(p[0]), int64(p[1])}
		}
		return nil
	})
	return out
}

// Witness renders, for one entity pair and topology, the concrete
// paths whose union realizes the topology — one line per path, e.g.
// "Protein:78 -[uni_encodes]- Unigene:103 -[uni_contains]- DNA:215".
// It runs against the same graph generation as the searcher's current
// precomputed tables, so topology IDs always resolve consistently.
func (s *Searcher) Witness(a, b int64, topologyID int) ([]string, bool) {
	var lines []string
	var found bool
	_ = s.guardAccessor("searcher.witness", func() error {
		st := s.current()
		g := st.G
		w, ok := core.WitnessFor(g, st.Res.Reg,
			graph.NodeID(a), graph.NodeID(b), core.TopologyID(topologyID), st.Cfg.Opts)
		if !ok {
			return nil
		}
		lines = make([]string, len(w.Paths))
		for i, p := range w.Paths {
			var sb strings.Builder
			for j, n := range p.Nodes {
				t, _ := g.NodeType(n)
				fmt.Fprintf(&sb, "%s:%d", g.NodeTypes.Name(t), int64(n))
				if j < len(p.Edges) {
					fmt.Fprintf(&sb, " -[%s]- ", g.EdgeTypes.Name(p.Types[j]))
				}
			}
			lines[i] = sb.String()
		}
		found = true
		return nil
	})
	if !found {
		return nil, false
	}
	return lines, true
}

// Space reports the precomputed tables' storage footprint (the paper's
// Table 1 row for this pair). A contained panic yields a zero report.
func (s *Searcher) Space() methods.SpaceReport {
	var rep methods.SpaceReport
	_ = s.guardAccessor("searcher.space", func() error {
		rep = s.current().Space()
		return nil
	})
	return rep
}

// PrunedCount reports how many topologies the offline phase pruned.
func (s *Searcher) PrunedCount() int { return len(s.current().PrunedTIDs) }

// TopologyCount reports how many distinct topologies were observed for
// the pair.
func (s *Searcher) TopologyCount() int { return s.current().TopInfo.NumRows() }

// FrequencyRank returns (topologyID, frequency) pairs sorted by
// descending frequency — the data behind the paper's Figures 11/12.
func (s *Searcher) FrequencyRank() ([]int, []int) {
	st := s.current()
	ids, freqs := st.Res.Pair(st.ES1, st.ES2).FrequencyRank()
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out, freqs
}
