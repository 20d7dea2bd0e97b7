package methods

import "testing"

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
	if int(lo) != n {
		t.Fatalf("partition covers [0,%d), want [0,%d)", lo, n)
	}
}

func TestEqualPartition(t *testing.T) {
	for _, n := range []int{0, 1, 5, 17, 100} {
		for _, w := range []int{1, 2, 3, 8, 200} {
			checkPartition(t, equalRanges(n, w), n)
		}
	}
}
