package relstore

import "math"

// packed is the sealed storage of one TInt column in frame-of-reference
// encoding: each cell is kept as its unsigned offset from ref, the
// column minimum, at the narrowest width (1, 2 or 4 bytes) that covers
// the column's span max-min, and as a plain int64 when the span needs
// more than 32 bits. Exactly one of the four cell slices is in use,
// selected by width, so a read is one switch on the width and one load.
//
// The column keeps its min and max, so extending it (Compact) picks the
// merged frame from them plus the appended values alone. A packed value
// is immutable once built; the zero value is the empty column.
type packed struct {
	width    uint8 // bytes per cell: 1, 2, 4 or 8 (0 while empty)
	ref      int64 // frame of reference; 0 at width 8 (cells stored as is)
	min, max int64 // cell range; meaningful only when the column is non-empty
	u8       []uint8
	u16      []uint16
	u32      []uint32
	i64      []int64
}

// newPacked returns an empty column framed for values in [lo, hi], with
// capacity for n cells.
func newPacked(lo, hi int64, n int) packed {
	p := packed{ref: lo, min: lo, max: hi}
	// Unsigned subtraction: the span of any int64 range fits a uint64,
	// even {MinInt64, MaxInt64}, where the signed difference overflows.
	switch span := uint64(hi) - uint64(lo); {
	case span <= math.MaxUint8:
		p.width, p.u8 = 1, make([]uint8, 0, n)
	case span <= math.MaxUint16:
		p.width, p.u16 = 2, make([]uint16, 0, n)
	case span <= math.MaxUint32:
		p.width, p.u32 = 4, make([]uint32, 0, n)
	default:
		p.width, p.ref, p.i64 = 8, 0, make([]int64, 0, n)
	}
	return p
}

// pack encodes vals at the narrowest width their range allows.
func pack(vals []int64) packed {
	var p packed
	return p.extend(vals)
}

// len returns the number of cells.
func (p *packed) len() int { return len(p.u8) + len(p.u16) + len(p.u32) + len(p.i64) }

// at returns the cell at position i.
func (p *packed) at(i int32) int64 {
	switch p.width {
	case 1:
		return p.ref + int64(p.u8[i])
	case 2:
		return p.ref + int64(p.u16[i])
	case 4:
		return p.ref + int64(p.u32[i])
	}
	return p.i64[i]
}

// appendTo decodes the cells [lo, hi) onto dst and returns the extended
// slice.
func (p *packed) appendTo(dst []int64, lo, hi int32) []int64 {
	switch p.width {
	case 1:
		for _, x := range p.u8[lo:hi] {
			dst = append(dst, p.ref+int64(x))
		}
	case 2:
		for _, x := range p.u16[lo:hi] {
			dst = append(dst, p.ref+int64(x))
		}
	case 4:
		for _, x := range p.u32[lo:hi] {
			dst = append(dst, p.ref+int64(x))
		}
	default:
		dst = append(dst, p.i64[lo:hi]...)
	}
	return dst
}

// bytes returns the footprint of the cells.
func (p *packed) bytes() int64 { return int64(p.len()) * int64(p.width) }

// encode appends vals, which must lie inside the column's frame.
func (p *packed) encode(vals []int64) {
	switch p.width {
	case 1:
		for _, v := range vals {
			p.u8 = append(p.u8, uint8(v-p.ref))
		}
	case 2:
		for _, v := range vals {
			p.u16 = append(p.u16, uint16(v-p.ref))
		}
	case 4:
		for _, v := range vals {
			p.u32 = append(p.u32, uint32(v-p.ref))
		}
	default:
		p.i64 = append(p.i64, vals...)
	}
}

// extend returns a new column holding p's cells followed by vals, framed
// to cover both; p is left untouched. When the frame is unchanged p's
// cells are copied verbatim, otherwise they are re-encoded in the new
// frame.
func (p *packed) extend(vals []int64) packed {
	if len(vals) == 0 {
		return *p
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	n := p.len()
	if n > 0 {
		lo, hi = min(lo, p.min), max(hi, p.max)
	}
	q := newPacked(lo, hi, n+len(vals))
	if q.width == p.width && q.ref == p.ref {
		// Same frame, so the same slice is live in both; the other three
		// appends copy nothing.
		q.u8 = append(q.u8, p.u8...)
		q.u16 = append(q.u16, p.u16...)
		q.u32 = append(q.u32, p.u32...)
		q.i64 = append(q.i64, p.i64...)
	} else {
		var buf [512]int64
		for i := 0; i < n; i += len(buf) {
			q.encode(p.appendTo(buf[:0], int32(i), int32(min(i+len(buf), n))))
		}
	}
	q.encode(vals)
	return q
}
