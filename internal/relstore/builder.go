package relstore

import "fmt"

// IntTableBuilder assembles an all-integer table as sealed columnar
// arrays in one pass, without the per-row snapshot publication of
// Insert. The materializers of the precomputed topology tables (whose
// schemas are all-TInt) build through it: appending a row is three
// array appends, and bulk-copying an unchanged row range from a
// previous generation is one decode loop per column — the core of the
// diff-aware Refresh materializer. Build packs the finished arrays
// (see packed) and publishes them as one sealed snapshot with the
// primary-key map (when the schema has one) constructed in a single
// pass.
//
// A builder is single-goroutine; the Table it returns follows the
// normal concurrency contract.
type IntTableBuilder struct {
	schema *Schema
	cols   [][]int64
	n      int32
}

// NewIntTableBuilder returns a builder for the schema, which must have
// only TInt columns.
func NewIntTableBuilder(s *Schema) (*IntTableBuilder, error) {
	for _, c := range s.Cols {
		if c.Type != TInt {
			return nil, fmt.Errorf("relstore: IntTableBuilder on %q: column %q is not TInt", s.Name, c.Name)
		}
	}
	return &IntTableBuilder{schema: s, cols: make([][]int64, len(s.Cols))}, nil
}

// Grow pre-allocates capacity for n additional rows.
func (b *IntTableBuilder) Grow(n int) {
	for c := range b.cols {
		if cap(b.cols[c])-len(b.cols[c]) < n {
			grown := make([]int64, len(b.cols[c]), len(b.cols[c])+n)
			copy(grown, b.cols[c])
			b.cols[c] = grown
		}
	}
}

// AppendInts appends one row; vals must have one value per column.
func (b *IntTableBuilder) AppendInts(vals ...int64) {
	for c, v := range vals {
		b.cols[c] = append(b.cols[c], v)
	}
	b.n++
}

// AppendRange bulk-copies rows [lo, hi) of src, which must share the
// builder's column layout (all TInt, same column count). The copy goes
// through the source's column views, so it handles sealed cells of any
// packed width and delta cells alike.
func (b *IntTableBuilder) AppendRange(src *Table, lo, hi int32) {
	if hi <= lo {
		return
	}
	for c := range b.cols {
		v := src.Col(c)
		// Sealed part first (decoded), then the delta tail (copied).
		slo, shi := lo, hi
		if shi > v.sealed {
			shi = v.sealed
		}
		if slo < shi {
			b.cols[c] = v.ints.appendTo(b.cols[c], slo, shi)
		}
		dlo, dhi := lo-v.sealed, hi-v.sealed
		if dlo < 0 {
			dlo = 0
		}
		if dlo < dhi {
			b.cols[c] = append(b.cols[c], v.dints[dlo:dhi]...)
		}
	}
	b.n += hi - lo
}

// NumRows returns the number of rows appended so far.
func (b *IntTableBuilder) NumRows() int { return int(b.n) }

// Build publishes the accumulated rows as a sealed table. When the
// schema has a primary key, the key map is built in one pass and
// duplicate keys are rejected. The builder must not be reused after
// Build.
func (b *IntTableBuilder) Build() (*Table, error) {
	t := NewTable(b.schema)
	st := &tableState{
		sealed: b.n,
		nrows:  b.n,
		base:   make([]sealedColumn, len(b.cols)),
		delta:  make([]column, len(b.cols)),
	}
	for c := range b.cols {
		st.base[c].ints = pack(b.cols[c])
	}
	t.state.Store(st)
	if t.pk != nil {
		keys := b.cols[b.schema.KeyCol]
		m := make(map[int64]int32, len(keys))
		for pos, k := range keys {
			if _, dup := m[k]; dup {
				return nil, fmt.Errorf("relstore: table %q: duplicate primary key %d", b.schema.Name, k)
			}
			m[k] = int32(pos)
		}
		t.pk.sealed.Store(&m)
	}
	return t, nil
}
