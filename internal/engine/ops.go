package engine

import (
	"fmt"
	"sort"

	"toposearch/internal/relstore"
)

// Scan is a full table scan, optionally filtered by a predicate over
// the table's rows (a pushed-down local predicate). A scan can be
// restricted to a row-position window [Lo, Hi), which is how parallel
// plans split one driving table across workers: concatenating the
// outputs of contiguous windows reproduces the full scan's row order
// exactly.
type Scan struct {
	Table *relstore.Table
	Alias string
	Pred  relstore.Pred // nil means no filter
	C     *Counters
	Lo    int32 // first row position (inclusive)
	Hi    int32 // one past the last row position; negative = end of table

	pos int32
	buf relstore.Row
}

// NewScan returns a (filtered) sequential scan of the whole table.
func NewScan(t *relstore.Table, alias string, pred relstore.Pred, c *Counters) *Scan {
	return &Scan{Table: t, Alias: alias, Pred: pred, C: c, Hi: -1}
}

// NewScanRange returns a scan restricted to row positions [lo, hi).
func NewScanRange(t *relstore.Table, alias string, pred relstore.Pred, c *Counters, lo, hi int32) *Scan {
	return &Scan{Table: t, Alias: alias, Pred: pred, C: c, Lo: lo, Hi: hi}
}

// Columns implements Op.
func (s *Scan) Columns() []string { return qualify(s.Alias, s.Table.Schema) }

// Open implements Op.
func (s *Scan) Open() error { s.pos = s.Lo; return nil }

// Next implements Op. The predicate is evaluated positionally against
// the column arrays; only rows that pass are materialized, into a
// buffer reused across calls.
func (s *Scan) Next() (relstore.Row, bool, error) {
	n := int32(s.Table.NumRows())
	if s.Hi >= 0 && s.Hi < n {
		n = s.Hi
	}
	for s.pos < n {
		pos := s.pos
		s.pos++
		if s.C != nil {
			s.C.RowsScanned++
		}
		if s.Pred == nil || s.Pred.EvalAt(s.Table, pos) {
			s.buf = s.Table.AppendRow(s.buf[:0], pos)
			return s.buf, true, nil
		}
	}
	return nil, false, nil
}

// Close implements Op.
func (s *Scan) Close() error { return nil }

// OrderedScan scans a table in the order of an ordered index
// (ascending or descending) — the "idxScan TopoInfo (score order)"
// leaf of the early-termination plans (Figure 15).
type OrderedScan struct {
	Table *relstore.Table
	Alias string
	Col   string
	Desc  bool
	Pred  relstore.Pred
	C     *Counters

	idx   *relstore.OrderedIndex
	order []int32
	pos   int
	buf   relstore.Row
}

// NewOrderedScan returns a scan in index order over column col. Ties
// are visited in insertion order in both directions, so a descending
// score scan is equivalent to ORDER BY score DESC, insertion ASC.
func NewOrderedScan(t *relstore.Table, alias, col string, desc bool, pred relstore.Pred, c *Counters) (*OrderedScan, error) {
	idx, ok := t.OrderedIndexOn(col)
	if !ok {
		return nil, fmt.Errorf("engine: table %q has no ordered index on %q", t.Schema.Name, col)
	}
	return &OrderedScan{Table: t, Alias: alias, Col: col, Desc: desc, Pred: pred, C: c, idx: idx}, nil
}

// Columns implements Op.
func (s *OrderedScan) Columns() []string { return qualify(s.Alias, s.Table.Schema) }

// Open implements Op.
func (s *OrderedScan) Open() error {
	s.pos = 0
	s.order = s.order[:0]
	s.idx.Scan(s.Desc, func(pos int32) bool {
		s.order = append(s.order, pos)
		return true
	})
	return nil
}

// Next implements Op.
func (s *OrderedScan) Next() (relstore.Row, bool, error) {
	for s.pos < len(s.order) {
		pos := s.order[s.pos]
		s.pos++
		if s.C != nil {
			s.C.RowsScanned++
		}
		if s.Pred == nil || s.Pred.EvalAt(s.Table, pos) {
			s.buf = s.Table.AppendRow(s.buf[:0], pos)
			return s.buf, true, nil
		}
	}
	return nil, false, nil
}

// Close implements Op.
func (s *OrderedScan) Close() error { return nil }

// Filter applies a predicate to a window of the child's output tuple:
// the predicate is compiled against a base-table schema whose row
// occupies child columns [Offset, Offset+width).
type Filter struct {
	Child  Op
	Pred   relstore.Pred
	Offset int
}

// NewFilter wraps child with a predicate evaluated at the given offset.
func NewFilter(child Op, pred relstore.Pred, offset int) *Filter {
	return &Filter{Child: child, Pred: pred, Offset: offset}
}

// Columns implements Op.
func (f *Filter) Columns() []string { return f.Child.Columns() }

// Open implements Op.
func (f *Filter) Open() error { return f.Child.Open() }

// Next implements Op.
func (f *Filter) Next() (relstore.Row, bool, error) {
	for {
		r, ok, err := f.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if f.Pred.Eval(r[f.Offset:]) {
			return r, true, nil
		}
	}
}

// Close implements Op.
func (f *Filter) Close() error { return f.Child.Close() }

// Project keeps the listed child columns, in order.
type Project struct {
	Child Op
	Cols  []int

	names []string
	buf   relstore.Row
}

// NewProject returns a projection of the child's columns.
func NewProject(child Op, cols []int) *Project {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = child.Columns()[c]
	}
	return &Project{Child: child, Cols: cols, names: names}
}

// Columns implements Op.
func (p *Project) Columns() []string { return p.names }

// Open implements Op.
func (p *Project) Open() error { return p.Child.Open() }

// Next implements Op.
func (p *Project) Next() (relstore.Row, bool, error) {
	r, ok, err := p.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	p.buf = p.buf[:0]
	for _, c := range p.Cols {
		p.buf = append(p.buf, r[c])
	}
	return p.buf, true, nil
}

// Close implements Op.
func (p *Project) Close() error { return p.Child.Close() }

// Distinct emits the first tuple for each distinct key (a set of child
// columns), preserving input order.
type Distinct struct {
	Child Op
	Key   []int

	seen *rowKeySet
}

// NewDistinct returns a hash-distinct on the key columns.
func NewDistinct(child Op, key []int) *Distinct {
	return &Distinct{Child: child, Key: key}
}

// Columns implements Op.
func (d *Distinct) Columns() []string { return d.Child.Columns() }

// Open implements Op.
func (d *Distinct) Open() error {
	d.seen = newRowKeySet(len(d.Key))
	return d.Child.Open()
}

func keyString(r relstore.Row, key []int) string {
	s := ""
	for _, k := range key {
		s += r[k].String() + "\x00"
	}
	return s
}

// Next implements Op.
func (d *Distinct) Next() (relstore.Row, bool, error) {
	for {
		r, ok, err := d.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if d.seen.Insert(r, d.Key) {
			return r, true, nil
		}
	}
}

// Close implements Op.
func (d *Distinct) Close() error { return d.Child.Close() }

// Sort materializes the child and emits tuples ordered by one column.
type Sort struct {
	Child Op
	Col   int
	Desc  bool
	C     *Counters

	rows []relstore.Row
	pos  int
}

// NewSort returns a materializing sort on the given column.
func NewSort(child Op, col int, desc bool, c *Counters) *Sort {
	return &Sort{Child: child, Col: col, Desc: desc, C: c}
}

// Columns implements Op.
func (s *Sort) Columns() []string { return s.Child.Columns() }

// Open implements Op.
func (s *Sort) Open() error {
	if err := s.Child.Open(); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	s.pos = 0
	for {
		r, ok, err := s.Child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.rows = append(s.rows, r.Clone())
	}
	sort.SliceStable(s.rows, func(i, j int) bool {
		if s.C != nil {
			s.C.Comparisons++
		}
		c := s.rows[i][s.Col].Compare(s.rows[j][s.Col])
		if s.Desc {
			return c > 0
		}
		return c < 0
	})
	return nil
}

// Next implements Op.
func (s *Sort) Next() (relstore.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

// Close implements Op.
func (s *Sort) Close() error { return s.Child.Close() }

// Limit stops after K tuples (FETCH FIRST k ROWS ONLY).
type Limit struct {
	Child Op
	K     int

	n int
}

// NewLimit caps the child's output at k tuples.
func NewLimit(child Op, k int) *Limit { return &Limit{Child: child, K: k} }

// Columns implements Op.
func (l *Limit) Columns() []string { return l.Child.Columns() }

// Open implements Op.
func (l *Limit) Open() error { l.n = 0; return l.Child.Open() }

// Next implements Op.
func (l *Limit) Next() (relstore.Row, bool, error) {
	if l.n >= l.K {
		return nil, false, nil
	}
	r, ok, err := l.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.n++
	return r, true, nil
}

// Close implements Op.
func (l *Limit) Close() error { return l.Child.Close() }

// Concat emits all tuples of each child in turn (UNION ALL). Children
// must have compatible column counts; column names are taken from the
// first child.
type Concat struct {
	Children []Op

	cur int
}

// NewConcat returns the bag union of the children.
func NewConcat(children ...Op) *Concat { return &Concat{Children: children} }

// Columns implements Op.
func (u *Concat) Columns() []string { return u.Children[0].Columns() }

// Open implements Op.
func (u *Concat) Open() error {
	u.cur = 0
	if len(u.Children) == 0 {
		return nil
	}
	return u.Children[0].Open()
}

// Next implements Op.
func (u *Concat) Next() (relstore.Row, bool, error) {
	for u.cur < len(u.Children) {
		r, ok, err := u.Children[u.cur].Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return r, true, nil
		}
		if err := u.Children[u.cur].Close(); err != nil {
			return nil, false, err
		}
		u.cur++
		if u.cur < len(u.Children) {
			if err := u.Children[u.cur].Open(); err != nil {
				return nil, false, err
			}
		}
	}
	return nil, false, nil
}

// Close implements Op.
func (u *Concat) Close() error {
	if u.cur < len(u.Children) {
		return u.Children[u.cur].Close()
	}
	return nil
}
