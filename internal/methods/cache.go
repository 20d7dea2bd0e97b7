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
)

// faultFill fires inside the cache's detached fill goroutine (chaos
// harness): a failed or panicking fill must fail every waiter with a
// typed error and never cache anything.
var faultFill = fault.Register("cache.fill")

// footprintBuckets is the width of the cache's dependency bitmask: the
// number of ranges in the entity partition a ResultCache cuts once, at
// construction, and keeps for its whole lifetime. Because table
// positions are append-only, the position→bucket mapping never
// changes, so footprints recorded against one generation remain
// meaningful against every later one.
const footprintBuckets = 64

// ranges is a contiguous partition of a position space [0, n): ordered,
// non-overlapping [lo, hi) windows whose concatenation reproduces the
// whole domain. Individual ranges may be empty when a weight profile is
// extremely skewed.
type ranges [][2]int32

// fromPrefix partitions [0, len(prefix)-1) into w weight-balanced
// contiguous ranges given an integer weight prefix-sum array
// (prefix[0] = 0, prefix[i+1] = prefix[i] + weight_i): cut i lands at
// the smallest position whose prefix reaches i/w of the total. A
// nil/empty or zero-total profile degenerates to equalRanges.
func fromPrefix(prefix []int64, w int) ranges {
	n, w := max(len(prefix)-1, 0), max(w, 1)
	if n == 0 || prefix[n] <= 0 {
		return equalRanges(n, w)
	}
	total := prefix[n]
	out := make(ranges, 0, w)
	lo := 0
	for i := 1; i <= w; i++ {
		hi := n
		if i < w {
			// total*i stays well inside int64 for any realistic table
			// (weights are row counts; w is a bucket count).
			target := total * int64(i) / int64(w)
			hi = sort.Search(n, func(j int) bool { return prefix[j+1] >= target })
			// A zero-weight tail after the target position belongs to
			// the earlier range; keep cuts monotone.
			hi = max(hi, lo)
		}
		out = append(out, [2]int32{int32(lo), int32(hi)})
		lo = hi
	}
	return out
}

// find returns the index of the range containing position pos >= 0. A
// position past the partition's domain clamps to the last range. (The
// first range whose hi exceeds pos is never an empty one: an empty
// range's hi equals the hi of the range before it.)
func (r ranges) find(pos int32) int {
	return min(sort.Search(len(r), func(j int) bool { return r[j][1] > pos }), len(r)-1)
}

// domain returns the partitioned position space size. Every partition
// has at least one range.
func (r ranges) domain() int32 { return r[len(r)-1][1] }

// Footprint is the dependency set of one cached result: a bitmask of
// the frozen entity buckets holding the start entities its answer was
// (or could have been) derived from — every T1 position matching the
// query's entity-set-1 predicate. Invalidation intersects it with the
// buckets dirtied by an update; disjoint entries are carried forward.
type Footprint uint64

// footprint scans the frozen domain of the entity table and returns the
// bucket mask of positions matching pred (nil = all). Rows appended
// after the partition was frozen are not represented here — Advance
// checks those per-entry against the predicate directly, which is both
// exact and cheap since only dirtied tail rows need checking.
func (c *ResultCache) footprint(pred relstore.Pred) Footprint {
	var fp Footprint
	// A batch rolled back after the partition was cut may have shrunk
	// the table below the frozen domain.
	end := min(c.buckets.domain(), int32(c.t1.NumRows()))
	for pos := int32(0); pos < end; pos++ {
		if pred == nil || pred.EvalAt(c.t1, pos) {
			fp |= 1 << uint(c.buckets.find(pos))
		}
	}
	return fp
}

// InvalidationSet derives, for a generation swap to ns produced by
// RefreshDiff, the dirty start-entity set every cached entry must be
// checked against: the in-domain part as a bucket mask under the
// cache's frozen partition, the part beyond its domain (entities
// appended after the partition was frozen) as explicit T1 positions.
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
func (c *ResultCache) InvalidationSet(ns *Store, d *RefreshDiff, affected map[graph.NodeID]bool) (Footprint, []int32) {
	var mask Footprint
	var tail []int32
	seen := make(map[int32]bool)
	add := func(pos int32) {
		if pos < c.buckets.domain() {
			mask |= 1 << uint(c.buckets.find(pos))
			return
		}
		if !seen[pos] {
			seen[pos] = true
			tail = append(tail, pos)
		}
	}
	for n := range affected {
		if pos, ok := ns.T1.PKPos(int64(n)); ok {
			add(pos)
		}
	}
	if len(d.ChangedTIDs) > 0 {
		tidIdx, err := ns.AllTops.CreateHashIndex("TID")
		e1Col, ok := ns.AllTops.Schema.ColIndex("E1")
		if err != nil || !ok {
			// Cannot walk the rows: dirty every bucket (sound, never hits).
			return ^Footprint(0), nil
		}
		for _, tid := range d.ChangedTIDs {
			for _, row := range tidIdx.LookupInt(int64(tid)) {
				if pos, ok := ns.T1.PKPos(ns.AllTops.IntAt(row, e1Col)); ok {
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

type cacheStripe struct {
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
// memory bound is split evenly across the lock stripes and enforced per
// stripe with LRU eviction.
type ResultCache struct {
	stripes [8]cacheStripe

	// buckets is the partition of the entity table t1 that footprints
	// are recorded against, cut from the store the cache was built for
	// and frozen from then on. Every later generation shares t1.
	t1      *relstore.Table
	buckets ranges

	hits, misses, evictions, invalidated, carried, flushes, skippedStale atomic.Int64
}

// NewResultCache returns a cache for results computed on st and its
// later generations, holding at most maxBytes of result payload (as
// estimated by the caller-supplied entry sizes). It freezes the
// footprint partition from st's entity weights.
func NewResultCache(maxBytes int64, st *Store) (*ResultCache, error) {
	// The buckets balance each entity's weight: one scan charge plus its
	// AllTops fan-out (the tops-join matches), the dominant per-row cost
	// of the Figure 14 plans.
	e1Idx, err := st.AllTops.CreateHashIndex("E1")
	if err != nil {
		return nil, err
	}
	keyCol := st.T1.Schema.KeyCol
	prefix := make([]int64, st.T1.NumRows()+1)
	for pos := range int32(st.T1.NumRows()) {
		prefix[pos+1] = prefix[pos] + 1 + int64(len(e1Idx.LookupInt(st.T1.IntAt(pos, keyCol))))
	}
	c := &ResultCache{t1: st.T1, buckets: fromPrefix(prefix, footprintBuckets)}
	per := max(maxBytes/int64(len(c.stripes)), 1)
	for i := range c.stripes {
		c.stripes[i].cap = per
		c.stripes[i].entries = make(map[string]*cacheEntry)
		c.stripes[i].flights = make(map[string]*flight)
	}
	return c, nil
}

func (c *ResultCache) stripeOf(key string) *cacheStripe {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.stripes[h.Sum32()%uint32(len(c.stripes))]
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
// cached.
//
// compute returns the value, its estimated size and the entity-set-1
// predicate the entry's footprint is derived from. Its cacheable return
// gates storage without affecting delivery: a false value means the
// result is correct for the caller that asked for it but must not be
// tagged (gen, epoch) — the searcher returns false when the edge-log
// epoch advanced while the fill ran, since the fill may then have
// observed base-table rows the tag does not pin.
func (c *ResultCache) GetOrCompute(ctx context.Context, key string, gen uint64, epoch int, compute func() (val any, bytes int64, pred relstore.Pred, cacheable bool, err error)) (any, bool, error) {
	sh := c.stripeOf(key)
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
			f.val, f.err = val, err
			// Counted before the flight completes, so a caller that reads
			// Stats after GetOrCompute returns always sees its own miss.
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
			sh.mu.Lock()
			delete(sh.flights, tag)
			if err == nil && cacheable {
				sh.store(c, &cacheEntry{key: key, gen: gen, epoch: epoch, fp: fp, pred: pred, val: val, bytes: bytes})
			}
			sh.mu.Unlock()
			close(f.done)
		}()
		defer fault.RecoverTo(&err, "cache.fill")
		if err = faultFill.Hit(); err != nil {
			return
		}
		if val, bytes, pred, cacheable, err = compute(); err == nil && cacheable {
			fp = c.footprint(pred)
		}
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
func (c *ResultCache) Advance(oldGen, newGen uint64, newEpoch int, mask Footprint, dirtyTail []int32, flushAll bool) {
	if flushAll {
		c.flushes.Add(1)
		if obs.Enabled() {
			obsCacheFlush.Inc()
		}
	}
	rec := obs.Enabled()
	for i := range c.stripes {
		sh := &c.stripes[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if !flushAll && e.gen == oldGen && e.fp&mask == 0 && !predHitsAny(e.pred, c.t1, dirtyTail) {
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
	for i := range c.stripes {
		sh := &c.stripes[i]
		sh.mu.Lock()
		s.Entries += len(sh.entries)
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

// store inserts e (replacing any entry under the same key) and evicts
// from the LRU tail until the stripe respects its byte budget. Entries
// larger than the whole stripe budget are not cached. Caller holds the
// stripe lock.
func (sh *cacheStripe) store(c *ResultCache, e *cacheEntry) {
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

func (sh *cacheStripe) removeEntry(e *cacheEntry) {
	delete(sh.entries, e.key)
	sh.bytes -= e.bytes
	sh.unlink(e)
}

func (sh *cacheStripe) unlink(e *cacheEntry) {
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

func (sh *cacheStripe) pushFront(e *cacheEntry) {
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheStripe) moveFront(e *cacheEntry) {
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
