package engine

import (
	"fmt"

	"toposearch/internal/relstore"
)

// GroupBase adapts a plain operator into a GroupOp in which every input
// tuple forms its own group. It is the bottom of every DGJ stack: the
// score-ordered scan of TopInfo makes each topology one group
// (Figure 15).
type GroupBase struct {
	Child Op

	ord int
}

// NewGroupBase wraps child so each tuple is one group.
func NewGroupBase(child Op) *GroupBase { return &GroupBase{Child: child} }

// Columns implements Op.
func (g *GroupBase) Columns() []string { return g.Child.Columns() }

// Open implements Op.
func (g *GroupBase) Open() error { g.ord = -1; return g.Child.Open() }

// Next implements Op.
func (g *GroupBase) Next() (relstore.Row, bool, error) {
	r, ok, err := g.Child.Next()
	if ok {
		g.ord++
	}
	return r, ok, err
}

// Close implements Op.
func (g *GroupBase) Close() error { return g.Child.Close() }

// AdvanceToNextGroup implements GroupOp. Each group has exactly one
// tuple, which was already consumed, so there is nothing to skip.
func (g *GroupBase) AdvanceToNextGroup() error { return nil }

// GroupOrdinal implements GroupOp.
func (g *GroupBase) GroupOrdinal() int { return g.ord }

// IDGJ is the index nested-loops implementation of the Distinct Group
// Join operator (Section 5.3): it joins a group-ordered outer stream
// with an inner table via a hash-index probe, preserves the group
// structure of the outer (property a), and supports skipping the
// remainder of a group (property b) by discarding the current probe
// state and delegating to the outer.
type IDGJ struct {
	Outer     GroupOp
	OuterCol  int
	Inner     *relstore.Table
	InnerCol  string
	InnerPred relstore.Pred
	C         *Counters

	idx     *relstore.HashIndex
	cols    []string
	orow    relstore.Row
	matches []int32
	buf     relstore.Row
}

// NewIDGJ builds an IDGJ joining outer.OuterCol = inner.InnerCol.
func NewIDGJ(outer GroupOp, outerCol int, inner *relstore.Table, alias, innerCol string, innerPred relstore.Pred, c *Counters) (*IDGJ, error) {
	idx, err := inner.CreateHashIndex(innerCol)
	if err != nil {
		return nil, fmt.Errorf("engine: IDGJ: %w", err)
	}
	return &IDGJ{
		Outer: outer, OuterCol: outerCol, Inner: inner, InnerCol: innerCol,
		InnerPred: innerPred, C: c, idx: idx,
		cols: concatCols(outer.Columns(), qualify(alias, inner.Schema)),
	}, nil
}

// Columns implements Op.
func (j *IDGJ) Columns() []string { return j.cols }

// Open implements Op.
func (j *IDGJ) Open() error {
	j.orow, j.matches = nil, nil
	return j.Outer.Open()
}

// Next implements Op. Like IndexJoin, inner rows are filtered
// positionally and appended straight from the column arrays.
func (j *IDGJ) Next() (relstore.Row, bool, error) {
	for {
		for len(j.matches) > 0 {
			pos := j.matches[0]
			j.matches = j.matches[1:]
			if j.InnerPred != nil && !j.InnerPred.EvalAt(j.Inner, pos) {
				continue
			}
			j.buf = append(j.buf[:0], j.orow...)
			j.buf = j.Inner.AppendRow(j.buf, pos)
			return j.buf, true, nil
		}
		o, ok, err := j.Outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.orow = append(j.orow[:0], o...)
		if j.C != nil {
			j.C.IndexProbes++
		}
		j.matches = j.idx.Lookup(o[j.OuterCol])
	}
}

// Close implements Op.
func (j *IDGJ) Close() error { return j.Outer.Close() }

// AdvanceToNextGroup implements GroupOp: it discontinues the current
// probe loop and advances the outer to its next group.
func (j *IDGJ) AdvanceToNextGroup() error {
	j.matches = nil
	j.orow = j.orow[:0] // keep the buffer for the next group
	return j.Outer.AdvanceToNextGroup()
}

// GroupOrdinal implements GroupOp.
func (j *IDGJ) GroupOrdinal() int { return j.Outer.GroupOrdinal() }

// HDGJ is the hash implementation of the DGJ operator: it materializes
// the outer tuples one group at a time, builds a hash table over the
// group, and scans the inner relation once per group, probing the group
// table. As the paper notes, "the inner relation may be evaluated
// multiple times, once for each group" — that rescan cost is exactly
// what the optimizer's cost model weighs against early termination.
type HDGJ struct {
	Outer     GroupOp
	OuterCol  int
	Inner     *relstore.Table
	InnerCol  int
	InnerPred relstore.Pred
	C         *Counters

	cols    []string
	pending relstore.Row // first tuple of the next group (lookahead)
	havePen bool
	penOrd  int
	done    bool

	groupOrd int
	emit     []relstore.Row // the current group's output; emitted up to next
	next     int
	buf      relstore.Row
}

// NewHDGJ builds an HDGJ joining outer.OuterCol = inner.InnerCol.
func NewHDGJ(outer GroupOp, outerCol int, inner *relstore.Table, alias, innerCol string, innerPred relstore.Pred, c *Counters) (*HDGJ, error) {
	ci, ok := inner.Schema.ColIndex(innerCol)
	if !ok {
		return nil, fmt.Errorf("engine: HDGJ: table %q has no column %q", inner.Schema.Name, innerCol)
	}
	return &HDGJ{
		Outer: outer, OuterCol: outerCol, Inner: inner, InnerCol: ci,
		InnerPred: innerPred, C: c,
		cols: concatCols(outer.Columns(), qualify(alias, inner.Schema)),
	}, nil
}

// Columns implements Op.
func (j *HDGJ) Columns() []string { return j.cols }

// Open implements Op.
func (j *HDGJ) Open() error {
	j.pending, j.havePen, j.done = nil, false, false
	j.emit, j.next = nil, 0
	j.groupOrd = -1
	return j.Outer.Open()
}

// loadGroup pulls every outer tuple of the next group, joins it against
// a fresh scan of the inner relation, and fills the emit queue.
func (j *HDGJ) loadGroup() error {
	j.emit, j.next = j.emit[:0], 0
	var group []relstore.Row
	var ord int
	if j.havePen {
		group = append(group, j.pending)
		ord = j.penOrd
		j.havePen = false
	} else {
		r, ok, err := j.Outer.Next()
		if err != nil {
			return err
		}
		if !ok {
			j.done = true
			return nil
		}
		group = append(group, r.Clone())
		ord = j.Outer.GroupOrdinal()
	}
	for {
		r, ok, err := j.Outer.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if j.Outer.GroupOrdinal() != ord {
			j.pending = r.Clone()
			j.penOrd = j.Outer.GroupOrdinal()
			j.havePen = true
			break
		}
		group = append(group, r.Clone())
	}
	j.groupOrd = ord
	// Build the group hash table and scan the inner relation once.
	ht := make(map[relstore.Value][]relstore.Row, len(group))
	for _, o := range group {
		k := o[j.OuterCol]
		ht[k] = append(ht[k], o)
	}
	ncols := j.Inner.Schema.NumCols()
	j.Inner.ScanPos(func(pos int32) bool {
		if j.C != nil {
			j.C.RowsScanned++
		}
		if j.InnerPred != nil && !j.InnerPred.EvalAt(j.Inner, pos) {
			return true
		}
		for _, o := range ht[j.Inner.ValueAt(pos, j.InnerCol)] {
			out := make(relstore.Row, 0, len(o)+ncols)
			out = append(out, o...)
			out = j.Inner.AppendRow(out, pos)
			j.emit = append(j.emit, out)
		}
		return true
	})
	return nil
}

// Next implements Op.
func (j *HDGJ) Next() (relstore.Row, bool, error) {
	for {
		if j.next < len(j.emit) {
			j.buf = j.emit[j.next]
			j.next++
			return j.buf, true, nil
		}
		if j.done {
			return nil, false, nil
		}
		if err := j.loadGroup(); err != nil {
			return nil, false, err
		}
		if j.done {
			return nil, false, nil
		}
	}
}

// Close implements Op.
func (j *HDGJ) Close() error { return j.Outer.Close() }

// AdvanceToNextGroup implements GroupOp: discard the emit queue for the
// current group. The lookahead tuple (if any) already belongs to the
// next group; when there is none, delegate the skip to the outer.
func (j *HDGJ) AdvanceToNextGroup() error {
	j.emit, j.next = j.emit[:0], 0
	if j.havePen || j.done {
		return nil
	}
	return j.Outer.AdvanceToNextGroup()
}

// GroupOrdinal implements GroupOp.
func (j *HDGJ) GroupOrdinal() int { return j.groupOrd }

// GroupFilter applies a predicate window to a group stream, preserving
// group structure (the sigma operators between DGJ joins in Figure 15).
type GroupFilter struct {
	Child  GroupOp
	Pred   relstore.Pred
	Offset int
}

// NewGroupFilter wraps child with a predicate at the column offset.
func NewGroupFilter(child GroupOp, pred relstore.Pred, offset int) *GroupFilter {
	return &GroupFilter{Child: child, Pred: pred, Offset: offset}
}

// Columns implements Op.
func (f *GroupFilter) Columns() []string { return f.Child.Columns() }

// Open implements Op.
func (f *GroupFilter) Open() error { return f.Child.Open() }

// Next implements Op.
func (f *GroupFilter) Next() (relstore.Row, bool, error) {
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
func (f *GroupFilter) Close() error { return f.Child.Close() }

// AdvanceToNextGroup implements GroupOp.
func (f *GroupFilter) AdvanceToNextGroup() error { return f.Child.AdvanceToNextGroup() }

// GroupOrdinal implements GroupOp.
func (f *GroupFilter) GroupOrdinal() int { return f.Child.GroupOrdinal() }

// DistinctGroups drives a DGJ stack: it emits the first tuple that
// survives the stack for each group, immediately skips the remainder of
// that group, and stops after K groups have produced a result (K <= 0
// means no limit). This realizes the early-termination behaviour of the
// Fast-Top-k-ET plans: one witness tuple proves a topology non-empty,
// and k produced topologies end the query.
type DistinctGroups struct {
	Child GroupOp
	K     int

	emitted int
	buf     relstore.Row
}

// NewDistinctGroups wraps a DGJ stack with first-match-per-group and
// top-k-groups semantics.
func NewDistinctGroups(child GroupOp, k int) *DistinctGroups {
	return &DistinctGroups{Child: child, K: k}
}

// Columns implements Op.
func (d *DistinctGroups) Columns() []string { return d.Child.Columns() }

// Open implements Op.
func (d *DistinctGroups) Open() error { d.emitted = 0; return d.Child.Open() }

// Next implements Op.
func (d *DistinctGroups) Next() (relstore.Row, bool, error) {
	if d.K > 0 && d.emitted >= d.K {
		return nil, false, nil
	}
	r, ok, err := d.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	d.buf = append(d.buf[:0], r...) // clone before advancing invalidates it
	if err := d.Child.AdvanceToNextGroup(); err != nil {
		return nil, false, err
	}
	d.emitted++
	return d.buf, true, nil
}

// Close implements Op.
func (d *DistinctGroups) Close() error { return d.Child.Close() }
