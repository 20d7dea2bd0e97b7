package methods

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/ranking"
)

// checkPartition asserts the ranges invariants: ordered, contiguous,
// covering exactly [0, n).
func checkPartition(t *testing.T, r ranges, n int) {
	t.Helper()
	if len(r) == 0 {
		if n != 0 {
			t.Fatalf("empty partition over domain %d", n)
		}
		return
	}
	lo := int32(0)
	for i, rg := range r {
		if rg[0] != lo {
			t.Fatalf("range %d starts at %d, want %d (partition %v)", i, rg[0], lo, r)
		}
		if rg[1] < rg[0] {
			t.Fatalf("range %d inverted: %v", i, rg)
		}
		lo = rg[1]
	}
	if int(lo) != n || r.domain() != lo {
		t.Fatalf("partition covers [0,%d) (domain %d), want [0,%d)", lo, r.domain(), n)
	}
}

// prefixOf returns the prefix-sum array fromPrefix takes.
func prefixOf(weights []int64) []int64 {
	prefix := make([]int64, len(weights)+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	return prefix
}

func TestEqualPartition(t *testing.T) {
	for _, n := range []int{0, 1, 5, 17, 100} {
		for _, w := range []int{1, 2, 3, 8, 200} {
			checkPartition(t, equalRanges(n, w), n)
		}
	}
}

func TestWeightedBalancesSkew(t *testing.T) {
	// Zipf-like profile: the first positions carry almost all weight.
	n := 1000
	weights := make([]int64, n)
	var total int64
	for i := range weights {
		weights[i] = 1_000_000 / int64(i+1)
		total += weights[i]
	}
	w := 4
	r := fromPrefix(prefixOf(weights), w)
	checkPartition(t, r, n)
	// Every range's weight share must be within 2x of the ideal (the
	// heaviest single position bounds the achievable balance).
	for i, rg := range r {
		var share int64
		for p := rg[0]; p < rg[1]; p++ {
			share += weights[p]
		}
		if share > 2*total/int64(w) {
			t.Errorf("range %d %v holds %d of %d total weight (over 2x the ideal %d)", i, rg, share, total, total/int64(w))
		}
	}
	// An equal-count cut would put ~94% of the weight into range 0;
	// the weighted cut must do much better at the head.
	var head int64
	for p := r[0][0]; p < r[0][1]; p++ {
		head += weights[p]
	}
	if 10*head > 6*total {
		t.Errorf("weighted head range still holds %d%% of the weight", 100*head/total)
	}
}

func TestWeightedDegenerateProfiles(t *testing.T) {
	checkPartition(t, fromPrefix(nil, 4), 0)
	checkPartition(t, fromPrefix(prefixOf(make([]int64, 10)), 4), 10) // all zero -> equalRanges
	one := make([]int64, 10)
	one[7] = 5
	r := fromPrefix(prefixOf(one), 3)
	checkPartition(t, r, 10)
	if got := r.find(7); r[got][0] > 7 || r[got][1] <= 7 {
		t.Errorf("find(7) = %d (%v), does not contain 7", got, r[got])
	}
}

// TestFromPrefixMatchesWeighted checks fromPrefix's binary-searched cuts
// against the weighted cut computed directly from its definition: cut i
// is the smallest position whose weight prefix reaches i/w of the total,
// found by a linear walk over the weights.
func TestFromPrefixMatchesWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		w := 1 + rng.Intn(9)
		weights := make([]int64, n)
		var total int64
		for i := range weights {
			weights[i] = int64(rng.Intn(1000))
			total += weights[i]
		}
		want := equalRanges(n, w)
		if total > 0 {
			want = make(ranges, 0, w)
			lo := 0
			for i := 1; i <= w; i++ {
				hi := n
				if i < w {
					target := total * int64(i) / int64(w)
					var sum int64
					for hi = 0; hi < n; hi++ {
						if sum += weights[hi]; sum >= target {
							break
						}
					}
					if hi < lo {
						hi = lo
					}
				}
				want = append(want, [2]int32{int32(lo), int32(hi)})
				lo = hi
			}
		}
		got := fromPrefix(prefixOf(weights), w)
		checkPartition(t, want, n)
		checkPartition(t, got, n)
		if len(got) != len(want) {
			t.Fatalf("trial %d: fromPrefix %d ranges, weighted reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d range %d: fromPrefix %v, weighted reference %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestFindRoundTrip cuts random weight profiles — zero weights included,
// so some ranges come out empty — and checks that find maps every
// position back into its own range and clamps out-of-domain positions
// to the last one.
func TestFindRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(300)
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = int64(rng.Intn(50))
		}
		w := 1 + rng.Intn(7)
		r := fromPrefix(prefixOf(weights), w)
		if len(r) != w {
			t.Fatalf("trial %d: %d ranges, want %d", trial, len(r), w)
		}
		checkPartition(t, r, n)
		for pos := int32(0); pos < int32(n); pos++ {
			i := r.find(pos)
			if pos < r[i][0] || pos >= r[i][1] {
				t.Fatalf("trial %d: find(%d) = range %d %v", trial, pos, i, r[i])
			}
		}
		if got := r.find(int32(n) + 100); got != len(r)-1 {
			t.Errorf("trial %d: find past domain = %d, want %d", trial, got, len(r)-1)
		}
	}
}

// TestFootprintBucketsCoverAndRoute pins the footprint partition a
// result cache freezes at construction: footprintBuckets weighted
// entity ranges that cover the entity table exactly, route every
// position to its own range, and clamp positions past the domain to
// the last range.
func TestFootprintBucketsCoverAndRoute(t *testing.T) {
	s, err := BuildStore(context.Background(), biozon.Generate(biozon.DefaultConfig(1)), biozon.SchemaGraph(),
		biozon.Protein, biozon.DNA, StoreConfig{Opts: core.DefaultOptions(), PruneThreshold: 2, Scores: ranking.Schemes()})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewResultCache(1<<20, s)
	if err != nil {
		t.Fatal(err)
	}
	r, n := c.buckets, s.T1.NumRows()
	if len(r) != footprintBuckets {
		t.Fatalf("got %d buckets, want %d", len(r), footprintBuckets)
	}
	checkPartition(t, r, n)
	// The buckets are the weighted cut of each entity's 1 + AllTops
	// fan-out, the fan-out counted here by a plain scan of AllTops.
	e1, _ := s.AllTops.Schema.ColIndex("E1")
	fanout := make(map[int64]int64)
	for row := range int32(s.AllTops.NumRows()) {
		fanout[s.AllTops.IntAt(row, e1)]++
	}
	weights := make([]int64, n)
	for pos := range weights {
		weights[pos] = 1 + fanout[s.T1.IntAt(int32(pos), s.T1.Schema.KeyCol)]
	}
	if want := fromPrefix(prefixOf(weights), footprintBuckets); !reflect.DeepEqual(r, want) {
		t.Fatalf("buckets %v, want the fan-out weighted cut %v", r, want)
	}
	for pos := int32(0); pos < int32(n); pos++ {
		if i := r.find(pos); pos < r[i][0] || pos >= r[i][1] {
			t.Fatalf("find(%d) = range %d %v", pos, i, r[i])
		}
	}
	if i := r.find(int32(n) + 100); i != footprintBuckets-1 {
		t.Errorf("position past the domain found range %d, want %d", i, footprintBuckets-1)
	}
	// Every entity matches a nil predicate, so an unconstrained query
	// depends on every non-empty bucket.
	var want Footprint
	for i, rg := range r {
		if rg[1] > rg[0] {
			want |= 1 << uint(i)
		}
	}
	if got := c.footprint(nil); got != want {
		t.Errorf("unconstrained footprint %064b, want %064b", got, want)
	}
}
