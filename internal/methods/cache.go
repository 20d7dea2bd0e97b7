package methods

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"toposearch/internal/fault"
	"toposearch/internal/obs"
)

// faultFill fires inside the cache's detached fill goroutine (chaos
// harness): a failed or panicking fill must fail every waiter with a
// typed error and never cache anything.
var faultFill = fault.Register("cache.fill")

// CacheStats is a point-in-time snapshot of a ResultCache's counters.
type CacheStats struct {
	// Hits counts lookups answered from a resident entry or a collapsed
	// in-flight computation; Misses counts computations actually run.
	Hits, Misses int64
	// Evictions counts entries dropped to respect the memory bound.
	Evictions int64
	// Invalidated counts entries dropped because a Refresh published a
	// new store generation.
	Invalidated int64
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
// onto a single computation, and Invalidate empties it when a new
// generation is published. The memory bound is split evenly across the
// lock stripes and enforced per stripe with LRU eviction.
type ResultCache struct {
	stripes [8]cacheStripe

	hits, misses, evictions, invalidated, skippedStale atomic.Int64
}

// NewResultCache returns a cache holding at most maxBytes of result
// payload (as estimated by the caller-supplied entry sizes).
func NewResultCache(maxBytes int64) *ResultCache {
	c := &ResultCache{}
	per := max(maxBytes/int64(len(c.stripes)), 1)
	for i := range c.stripes {
		c.stripes[i].cap = per
		c.stripes[i].entries = make(map[string]*cacheEntry)
		c.stripes[i].flights = make(map[string]*flight)
	}
	return c
}

// stripeOf hashes key with 32-bit FNV-1a, inline so a lookup allocates
// nothing.
func (c *ResultCache) stripeOf(key string) *cacheStripe {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.stripes[h%uint32(len(c.stripes))]
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
// compute returns the value and its estimated size. Its cacheable
// return gates storage without affecting delivery: a false value means the
// result is correct for the caller that asked for it but must not be
// tagged (gen, epoch) — the searcher returns false when the edge-log
// epoch advanced while the fill ran, since the fill may then have
// observed base-table rows the tag does not pin.
func (c *ResultCache) GetOrCompute(ctx context.Context, key string, gen uint64, epoch int, compute func() (val any, bytes int64, cacheable bool, err error)) (any, bool, error) {
	sh := c.stripeOf(key)
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
	tag := fmt.Sprintf("%s\x00%d\x00%d", key, gen, epoch)
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
				sh.store(c, &cacheEntry{key: key, gen: gen, epoch: epoch, val: val, bytes: bytes})
			}
			sh.mu.Unlock()
			close(f.done)
		}()
		defer fault.RecoverTo(&err, "cache.fill")
		if err = faultFill.Hit(); err != nil {
			return
		}
		val, bytes, cacheable, err = compute()
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

// Invalidate drops every entry. A Refresh that absorbs edges calls it
// after publishing the new generation: any topology's frequency may
// have drifted, and every result surfaces frequencies.
func (c *ResultCache) Invalidate() {
	rec := obs.Enabled()
	for i := range c.stripes {
		sh := &c.stripes[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			sh.removeEntry(e)
			c.invalidated.Add(1)
			if rec {
				obsCacheInval.Inc()
			}
		}
		sh.mu.Unlock()
	}
}

// Stats snapshots the cache's counters and resident set.
func (c *ResultCache) Stats() CacheStats {
	s := CacheStats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evictions.Load(),
		Invalidated:  c.invalidated.Load(),
		SkippedStale: c.skippedStale.Load(),
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
