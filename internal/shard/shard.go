// Package shard partitions contiguous position spaces (entity-table
// rows) into ordered [lo, hi) ranges: equal-count windows for the
// parallel scan, and weight-balanced entity shards for the result
// cache's dependency footprints. Every cut is a pure function of its
// inputs, so the same store generation always produces the same
// partition.
package shard

import "sort"

// Ranges is a contiguous partition of a position space [0, n): the
// ranges are ordered, non-overlapping [lo, hi) windows whose
// concatenation reproduces the whole domain. Individual ranges may be
// empty when the weight profile is extremely skewed.
type Ranges [][2]int32

// Equal partitions [0, n) into at most w contiguous ranges of nearly
// equal position count.
func Equal(n, w int) Ranges {
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	out := make(Ranges, 0, w)
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + (n-lo)/(w-i)
		out = append(out, [2]int32{int32(lo), int32(hi)})
		lo = hi
	}
	return out
}

// FromPrefix partitions [0, len(prefix)-1) into w weight-balanced
// contiguous ranges given an integer weight prefix-sum array
// (prefix[0] = 0, prefix[i+1] = prefix[i] + weight_i): cut i lands at
// the smallest position whose prefix reaches i/w of the total. A
// nil/empty or zero-total profile degenerates to Equal.
func FromPrefix(prefix []int64, w int) Ranges {
	n := len(prefix) - 1
	if n < 0 {
		n = 0
	}
	if w < 1 {
		w = 1
	}
	var total int64
	if n > 0 {
		total = prefix[n]
	}
	if total <= 0 {
		return Equal(n, w)
	}
	out := make(Ranges, 0, w)
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
			if hi < lo {
				hi = lo
			}
		}
		out = append(out, [2]int32{int32(lo), int32(hi)})
		lo = hi
	}
	return out
}

// Find returns the index of the range containing position pos. A
// position outside the partition's domain clamps to the nearest range.
func (r Ranges) Find(pos int32) int {
	if len(r) == 0 {
		return 0
	}
	i := sort.Search(len(r), func(j int) bool { return r[j][1] > pos })
	if i == len(r) {
		i = len(r) - 1
	}
	// Skip backwards over empty ranges that Search may land on when pos
	// sits below the whole domain.
	for i > 0 && pos < r[i][0] {
		i--
	}
	return i
}

// Domain returns the partitioned position space size (the hi bound of
// the last range).
func (r Ranges) Domain() int32 {
	if len(r) == 0 {
		return 0
	}
	return r[len(r)-1][1]
}
