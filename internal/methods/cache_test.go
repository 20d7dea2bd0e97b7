package methods

import (
	"context"
	"hash/fnv"
	"testing"
)

// TestCacheHitAllocatesNothing pins the hit path: the lookup hashes the
// key in place and builds the flight tag only on a miss.
func TestCacheHitAllocatesNothing(t *testing.T) {
	c := NewResultCache(1 << 20)
	ctx := context.Background()
	key := CacheKey("fast-top-k", "freq", 5, []string{"desc~kwsel15"}, nil)
	fill := func() (any, int64, bool, error) { return "v", 1, true, nil }
	if _, hit, err := c.GetOrCompute(ctx, key, 1, 0, fill); err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v, want a miss", hit, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, hit, err := c.GetOrCompute(ctx, key, 1, 0, fill); err != nil || !hit {
			t.Fatalf("lookup: hit=%v err=%v, want a hit", hit, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a cache hit allocates %v times, want 0", allocs)
	}
}

// TestStripeOfIsFNV1a checks the inline hash against hash/fnv, so every
// key keeps its stripe and the per-stripe LRU evicts the same entries.
func TestStripeOfIsFNV1a(t *testing.T) {
	c := NewResultCache(1 << 20)
	for _, key := range []string{"", "a", "m=fast-top\x1fr=freq\x1fk=5\x1d", CacheKey("full-top", "rare", 8, []string{"desc~kwsel50"}, []string{"type=mRNA"})} {
		h := fnv.New32a()
		h.Write([]byte(key))
		if got, want := c.stripeOf(key), &c.stripes[h.Sum32()%uint32(len(c.stripes))]; got != want {
			t.Errorf("stripeOf(%q) differs from the FNV-1a stripe", key)
		}
	}
}
