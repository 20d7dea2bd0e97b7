package methods

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"toposearch/internal/core"
	"toposearch/internal/fault"
	"toposearch/internal/graph"
	"toposearch/internal/obs"
	"toposearch/internal/relstore"
	"toposearch/internal/shard"
)

// faultFill fires inside the cache's detached fill goroutine (chaos
// harness): a failed or panicking fill must fail every waiter with a
// typed error and never cache anything.
var faultFill = fault.Register("cache.fill")

// FootprintBuckets is the width of the cache's dependency bitmask: the
// frozen entity-bucket partition a searcher cuts once at construction
// (via Store.EntityShardRanges) and keeps for its whole lifetime.
// Because table positions are append-only, the position→bucket mapping
// never changes, so footprints recorded against one generation remain
// meaningful against every later one.
const FootprintBuckets = 64

// Footprint is the dependency set of one cached result: a bitmask of
// the frozen entity buckets holding the start entities its answer was
// (or could have been) derived from — every T1 position matching the
// query's entity-set-1 predicate. Invalidation intersects it with the
// buckets dirtied by an update; disjoint entries are carried forward.
type Footprint uint64

// QueryFootprint scans the frozen-domain prefix of t1 and returns the
// bucket mask of positions matching pred (nil = all). Rows appended
// after the partition was frozen are not represented here — Advance
// checks those per-entry against the predicate directly, which is both
// exact and cheap since only dirtied tail rows need checking.
func QueryFootprint(t1 *relstore.Table, pred relstore.Pred, r shard.Ranges) Footprint {
	end := r.Domain()
	if n := int32(t1.NumRows()); end > n {
		end = n
	}
	var fp Footprint
	for pos := int32(0); pos < end; pos++ {
		if pred == nil || pred.EvalAt(t1, pos) {
			b := r.Find(pos)
			if b >= FootprintBuckets {
				b = FootprintBuckets - 1
			}
			fp |= 1 << uint(b)
		}
	}
	return fp
}

// InvalidationSet derives, for a generation swap produced by
// RefreshDiff, the dirty start-entity set every cached entry must be
// checked against: the in-domain part as a bucket mask under the frozen
// partition r, the part beyond r's domain (entities appended after the
// partition was frozen) as explicit T1 positions.
//
// A cached result can change across the swap only if some start entity
// matching its predicate either (a) lies on the affected frontier —
// its topology rows were recomputed — or (b) is related by a topology
// whose pair frequency changed, since result rows surface that
// frequency and the rank scores derived from it. (a) contributes the
// affected starts themselves; (b) contributes the E1 side of every new
// AllTops row whose TID frequency drifted. Entries disjoint from both
// are byte-identical across the generations. Only meaningful when the
// diff's registry was stable; an unstable registry renumbers
// topologies and the caller must flush instead.
func (s *Store) InvalidationSet(d *RefreshDiff, affected map[graph.NodeID]bool, r shard.Ranges) (Footprint, []int32) {
	var mask Footprint
	var tail []int32
	seen := make(map[int32]bool)
	add := func(pos int32) {
		if pos < int32(r.Domain()) {
			b := r.Find(pos)
			if b >= FootprintBuckets {
				b = FootprintBuckets - 1
			}
			mask |= 1 << uint(b)
			return
		}
		if !seen[pos] {
			seen[pos] = true
			tail = append(tail, pos)
		}
	}
	for n := range affected {
		if pos, ok := s.T1.PKPos(int64(n)); ok {
			add(pos)
		}
	}
	if len(d.ChangedTIDs) > 0 {
		tidIdx, err := s.AllTops.CreateHashIndex("TID")
		e1Col, ok := s.AllTops.Schema.ColIndex("E1")
		if err != nil || !ok {
			// Cannot walk the rows: dirty every bucket (sound, never hits).
			return ^Footprint(0), nil
		}
		for _, tid := range d.ChangedTIDs {
			for _, row := range tidIdx.LookupInt(int64(tid)) {
				if pos, ok := s.T1.PKPos(s.AllTops.IntAt(row, e1Col)); ok {
					add(pos)
				}
			}
		}
	}
	return mask, tail
}

// CacheStats is a point-in-time snapshot of a ResultCache's counters.
type CacheStats struct {
	// Hits counts lookups answered from a resident entry or a collapsed
	// in-flight computation; Misses counts computations actually run.
	Hits, Misses int64
	// Evictions counts entries dropped to respect the memory bound.
	Evictions int64
	// Invalidated counts entries dropped by generation advances because
	// their footprint intersected an update's dirty set (or the whole
	// cache was flushed).
	Invalidated int64
	// CarriedForward counts entries retagged into a new generation
	// because their footprint was disjoint from the update.
	CarriedForward int64
	// Flushes counts whole-cache flushes (topology registry unstable).
	Flushes int64
	// SkippedStale counts fills whose result was returned to callers
	// but not cached because the epoch they were tagged with had
	// already advanced while the fill ran — a mutation batch landed
	// mid-fill, so the result may reflect base-table rows the tag does
	// not pin.
	SkippedStale int64
	// Entries and Bytes describe the current resident set.
	Entries int
	Bytes   int64
}

type cacheEntry struct {
	key        string
	gen        uint64
	epoch      int
	fp         Footprint
	pred       relstore.Pred
	val        any
	bytes      int64
	prev, next *cacheEntry
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

type cacheShard struct {
	mu         sync.Mutex
	cap        int64
	bytes      int64
	entries    map[string]*cacheEntry
	head, tail *cacheEntry // LRU order, head = most recently used
	flights    map[string]*flight
}

// ResultCache is a bounded, concurrency-safe, generation-tagged query
// result cache: entries are valid for exactly one (store generation,
// edge-log position) pair, concurrent misses for the same key collapse
// onto a single computation, and Advance migrates entries across a
// generation swap by footprint intersection instead of flushing. The
// memory bound is split evenly across the internal shards and enforced
// per shard with LRU eviction.
type ResultCache struct {
	shards [8]cacheShard

	hits, misses, evictions, invalidated, carried, flushes, skippedStale atomic.Int64
}

// NewResultCache returns a cache holding at most maxBytes of result
// payload (as estimated by the caller-supplied entry sizes).
func NewResultCache(maxBytes int64) *ResultCache {
	c := &ResultCache{}
	per := maxBytes / int64(len(c.shards))
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].entries = make(map[string]*cacheEntry)
		c.shards[i].flights = make(map[string]*flight)
	}
	return c
}

func (c *ResultCache) shardOf(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%uint32(len(c.shards))]
}

// GetOrCompute returns the value cached under key for the (gen, epoch)
// tag, or runs compute exactly once — concurrent misses on the same tag
// wait for the first — and caches its result. The boolean reports
// whether the value came from the cache (or a collapsed flight) rather
// than this caller's own computation. Errors are returned to every
// waiter and never cached.
//
// The fill runs on its own goroutine, detached from every waiter: a
// waiter whose ctx is cancelled (including the fill's initiator) stops
// waiting with the ctx error, but the shared computation keeps running
// and completes the flight for everyone else — one abandoned caller
// can no longer poison the collapsed flight with its cancellation.
// compute must therefore not observe any single waiter's context (the
// searcher passes a detached one). A panic out of compute is contained
// into a typed *fault.PanicError, failing every waiter; nothing is
// cached. A nil ctx behaves like context.Background().
//
// compute's cacheable return gates storage without affecting delivery:
// a false value means the result is correct for the caller that asked
// for it but must not be tagged (gen, epoch) — the searcher returns
// false when the edge-log epoch advanced while the fill ran, since the
// fill may then have observed base-table rows the tag does not pin.
func (c *ResultCache) GetOrCompute(ctx context.Context, key string, gen uint64, epoch int, compute func() (val any, bytes int64, fp Footprint, pred relstore.Pred, cacheable bool, err error)) (any, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sh := c.shardOf(key)
	tag := fmt.Sprintf("%s\x00%d\x00%d", key, gen, epoch)
	sh.mu.Lock()
	if e := sh.entries[key]; e != nil && e.gen == gen && e.epoch == epoch {
		sh.moveFront(e)
		sh.mu.Unlock()
		c.hits.Add(1)
		if obs.Enabled() {
			obsCacheHit.Inc()
		}
		return e.val, true, nil
	}
	if f := sh.flights[tag]; f != nil {
		sh.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.err != nil {
			return nil, false, f.err
		}
		c.hits.Add(1)
		if obs.Enabled() {
			obsCacheHit.Inc()
			obsCacheCollapsed.Inc()
		}
		return f.val, true, nil
	}
	f := &flight{done: make(chan struct{})}
	sh.flights[tag] = f
	sh.mu.Unlock()

	go func() {
		var val any
		var bytes int64
		var fp Footprint
		var pred relstore.Pred
		var cacheable bool
		var err error
		defer func() {
			if v := recover(); v != nil {
				err = fault.NewPanicError("cache.fill", v)
			}
			f.val, f.err = val, err
			sh.mu.Lock()
			delete(sh.flights, tag)
			if err == nil && cacheable {
				sh.store(c, &cacheEntry{key: key, gen: gen, epoch: epoch, fp: fp, pred: pred, val: val, bytes: bytes})
			}
			sh.mu.Unlock()
			close(f.done)
			c.misses.Add(1)
			if err == nil && !cacheable {
				c.skippedStale.Add(1)
			}
			if obs.Enabled() {
				obsCacheMiss.Inc()
				if err != nil {
					obsCacheFillErr.Inc()
				}
				if err == nil && !cacheable {
					obsCacheSkipStale.Inc()
				}
			}
		}()
		if err = faultFill.Hit(); err != nil {
			return
		}
		val, bytes, fp, pred, cacheable, err = compute()
	}()

	select {
	case <-f.done:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	if f.err != nil {
		return nil, false, f.err
	}
	return f.val, false, nil
}

// Advance migrates the cache across a store-generation swap: entries
// tagged with oldGen whose footprint is disjoint from the update's
// dirty set (mask for frozen-domain buckets, dirtyTail as explicit T1
// positions checked against each entry's predicate) are retagged to
// (newGen, newEpoch); everything else — intersecting, stale-generation,
// or all of them when flushAll is set — is dropped.
func (c *ResultCache) Advance(oldGen, newGen uint64, newEpoch int, mask Footprint, dirtyTail []int32, t1 *relstore.Table, flushAll bool) {
	if flushAll {
		c.flushes.Add(1)
		if obs.Enabled() {
			obsCacheFlush.Inc()
		}
	}
	rec := obs.Enabled()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if !flushAll && e.gen == oldGen && e.fp&mask == 0 && !predHitsAny(e.pred, t1, dirtyTail) {
				e.gen, e.epoch = newGen, newEpoch
				c.carried.Add(1)
				if rec {
					obsCacheCarried.Inc()
				}
				continue
			}
			sh.removeEntry(e)
			c.invalidated.Add(1)
			if rec {
				obsCacheInval.Inc()
			}
		}
		sh.mu.Unlock()
	}
}

func predHitsAny(pred relstore.Pred, t1 *relstore.Table, tail []int32) bool {
	for _, pos := range tail {
		if pred == nil || pred.EvalAt(t1, pos) {
			return true
		}
	}
	return false
}

// Stats snapshots the cache's counters and resident set.
func (c *ResultCache) Stats() CacheStats {
	s := CacheStats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		Invalidated:    c.invalidated.Load(),
		CarriedForward: c.carried.Load(),
		Flushes:        c.flushes.Load(),
		SkippedStale:   c.skippedStale.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.entries)
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

// store inserts e (replacing any entry under the same key) and evicts
// from the LRU tail until the shard respects its byte budget. Entries
// larger than the whole shard budget are not cached. Caller holds the
// shard lock.
func (sh *cacheShard) store(c *ResultCache, e *cacheEntry) {
	if old := sh.entries[e.key]; old != nil {
		sh.removeEntry(old)
	}
	if e.bytes > sh.cap {
		return
	}
	sh.entries[e.key] = e
	sh.pushFront(e)
	sh.bytes += e.bytes
	for sh.bytes > sh.cap && sh.tail != nil && sh.tail != e {
		ev := sh.tail
		sh.removeEntry(ev)
		c.evictions.Add(1)
		if obs.Enabled() {
			obsCacheEvict.Inc()
		}
	}
}

func (sh *cacheShard) removeEntry(e *cacheEntry) {
	delete(sh.entries, e.key)
	sh.bytes -= e.bytes
	sh.unlink(e)
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if sh.head == e {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if sh.tail == e {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard) moveFront(e *cacheEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// CacheKey canonicalizes the result-identity part of a query into a
// comparable cache key: the resolved method and ranking, k, and the two
// constraint lists sorted (constraint order never affects results).
// The latency-only parallelism knob is deliberately excluded: results
// are byte-identical across it, so all settings share one entry. Callers render each constraint into
// a self-delimiting string before passing it here.
func CacheKey(method, ranking string, k int, cons1, cons2 []string) string {
	c1 := append([]string(nil), cons1...)
	c2 := append([]string(nil), cons2...)
	sort.Strings(c1)
	sort.Strings(c2)
	var sb []byte
	sb = fmt.Appendf(sb, "m=%s\x1fr=%s\x1fk=%d", method, ranking, k)
	for _, c := range c1 {
		sb = append(sb, '\x1e')
		sb = append(sb, c...)
	}
	sb = append(sb, '\x1d')
	for _, c := range c2 {
		sb = append(sb, '\x1e')
		sb = append(sb, c...)
	}
	return string(sb)
}

// changedTIDsOf computes the topologies whose pair frequency changed
// between two generations' computed data (including newly observed and
// no-longer-observed topologies), ascending by ID.
func changedTIDsOf(oldPD, newPD *core.PairData) []core.TopologyID {
	var out []core.TopologyID
	if oldPD == nil || newPD == nil {
		return out
	}
	for tid, f := range newPD.Freq {
		if of, ok := oldPD.Freq[tid]; !ok || of != f {
			out = append(out, tid)
		}
	}
	for tid := range oldPD.Freq {
		if _, ok := newPD.Freq[tid]; !ok {
			out = append(out, tid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
