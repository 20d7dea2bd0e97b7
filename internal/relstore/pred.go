package relstore

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Pred is a boolean predicate over rows of one schema. Predicates are
// compiled against a schema up front so evaluation is positional. They
// model the paper's query constraints: keyword containment
// (desc.ct('enzyme')) and structured comparisons (type = 'mRNA').
type Pred interface {
	// Eval reports whether the row satisfies the predicate.
	Eval(r Row) bool
	// EvalAt reports whether the table's row at pos satisfies the
	// predicate, reading cells straight from the column arrays. It is
	// the allocation-free evaluation path scans use: no Row is
	// materialized, no Value is constructed per row.
	EvalAt(t *Table, pos int32) bool
	// Sel estimates the fraction of the table's rows that satisfy the
	// predicate, using table statistics (Section 5.4.3 parameter rho).
	Sel(t *Table) float64
	// String renders the predicate in SQL-ish syntax.
	String() string
}

// True is the predicate satisfied by every row.
type True struct{}

// Eval implements Pred.
func (True) Eval(Row) bool { return true }

// EvalAt implements Pred.
func (True) EvalAt(*Table, int32) bool { return true }

// Sel implements Pred.
func (True) Sel(*Table) float64 { return 1 }

func (True) String() string { return "TRUE" }

type eqPred struct {
	col  int
	name string
	val  Value
}

// Eq returns the predicate col = v.
func Eq(s *Schema, col string, v Value) (Pred, error) {
	c, ok := s.ColIndex(col)
	if !ok {
		return nil, fmt.Errorf("relstore: %s: no column %q", s.Name, col)
	}
	return &eqPred{col: c, name: col, val: v}, nil
}

// MustEq is Eq that panics on error.
func MustEq(s *Schema, col string, v Value) Pred {
	p, err := Eq(s, col, v)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *eqPred) Eval(r Row) bool { return r[p.col].Equal(p.val) }

func (p *eqPred) EvalAt(t *Table, pos int32) bool {
	if t.Schema.Cols[p.col].Type == TInt {
		// The snapshot's intAt inlines here; Table.IntAt is a call.
		return p.val.Kind == TInt && t.loadState().intAt(pos, p.col) == p.val.Int
	}
	return p.val.Kind == TString && t.StrAt(pos, p.col) == p.val.Str
}

func (p *eqPred) Sel(t *Table) float64 {
	st := t.Stats()
	if st.Rows == 0 {
		return 0
	}
	if cs := st.Col(p.col); cs != nil {
		if n, ok := cs.Freq[p.val]; ok {
			return float64(n) / float64(st.Rows)
		}
		if cs.NDV > 0 {
			return 1 / float64(cs.NDV)
		}
	}
	return 0.1
}

func (p *eqPred) String() string { return fmt.Sprintf("%s = %s", p.name, p.val) }

type containsPred struct {
	col  int
	name string
	word string
}

// Contains returns the keyword-containment predicate col.ct('word'),
// true when the column's string value contains word as a whitespace-
// separated token (the paper's desc.ct keyword-search clause).
func Contains(s *Schema, col string, word string) (Pred, error) {
	c, ok := s.ColIndex(col)
	if !ok {
		return nil, fmt.Errorf("relstore: %s: no column %q", s.Name, col)
	}
	if s.Cols[c].Type != TString {
		return nil, fmt.Errorf("relstore: %s.%s: ct() needs a string column", s.Name, col)
	}
	return &containsPred{col: c, name: col, word: word}, nil
}

// MustContains is Contains that panics on error.
func MustContains(s *Schema, col, word string) Pred {
	p, err := Contains(s, col, word)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *containsPred) Eval(r Row) bool {
	return containsToken(r[p.col].Str, p.word)
}

func (p *containsPred) EvalAt(t *Table, pos int32) bool {
	return containsToken(t.StrAt(pos, p.col), p.word)
}

func containsToken(text, word string) bool {
	for len(text) > 0 {
		i := strings.IndexByte(text, ' ')
		var tok string
		if i < 0 {
			tok, text = text, ""
		} else {
			tok, text = text[:i], text[i+1:]
		}
		if tok == word {
			return true
		}
	}
	return false
}

func (p *containsPred) Sel(t *Table) float64 {
	st := t.Stats()
	if st.Rows == 0 {
		return 0
	}
	if cs := st.Col(p.col); cs != nil {
		if n, ok := cs.TokenFreq[p.word]; ok {
			return float64(n) / float64(st.Rows)
		}
	}
	return 0.05
}

func (p *containsPred) String() string { return fmt.Sprintf("%s.ct('%s')", p.name, p.word) }

type cmpPred struct {
	col  int
	name string
	op   string // "<", "<=", ">", ">="
	val  Value
}

// Cmp returns the comparison predicate col op v where op is one of
// "<", "<=", ">", ">=".
func Cmp(s *Schema, col, op string, v Value) (Pred, error) {
	c, ok := s.ColIndex(col)
	if !ok {
		return nil, fmt.Errorf("relstore: %s: no column %q", s.Name, col)
	}
	switch op {
	case "<", "<=", ">", ">=":
	default:
		return nil, fmt.Errorf("relstore: bad comparison operator %q", op)
	}
	return &cmpPred{col: c, name: col, op: op, val: v}, nil
}

func (p *cmpPred) Eval(r Row) bool {
	return p.holds(r[p.col].Compare(p.val))
}

func (p *cmpPred) EvalAt(t *Table, pos int32) bool {
	return p.holds(t.compareValueAt(p.col, pos, p.val))
}

func (p *cmpPred) holds(c int) bool {
	switch p.op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default:
		return c >= 0
	}
}

func (p *cmpPred) Sel(t *Table) float64 {
	st := t.Stats()
	if st.Rows == 0 {
		return 0
	}
	cs := st.Col(p.col)
	if cs == nil || cs.Min.Kind != TInt || cs.Max.Int == cs.Min.Int {
		return 0.33
	}
	// Linear interpolation over the integer range.
	span := float64(cs.Max.Int - cs.Min.Int)
	frac := (float64(p.val.Int) - float64(cs.Min.Int)) / span
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	switch p.op {
	case "<", "<=":
		return frac
	default:
		return 1 - frac
	}
}

func (p *cmpPred) String() string { return fmt.Sprintf("%s %s %s", p.name, p.op, p.val) }

type andPred struct{ ps []Pred }

// And returns the conjunction of predicates; And() is True.
func And(ps ...Pred) Pred {
	switch len(ps) {
	case 0:
		return True{}
	case 1:
		return ps[0]
	}
	return &andPred{ps: ps}
}

func (p *andPred) Eval(r Row) bool {
	for _, q := range p.ps {
		if !q.Eval(r) {
			return false
		}
	}
	return true
}

func (p *andPred) EvalAt(t *Table, pos int32) bool {
	for _, q := range p.ps {
		if !q.EvalAt(t, pos) {
			return false
		}
	}
	return true
}

func (p *andPred) Sel(t *Table) float64 {
	s := 1.0
	for _, q := range p.ps {
		s *= q.Sel(t) // attribute-independence assumption, as in the paper
	}
	return s
}

func (p *andPred) String() string {
	parts := make([]string, len(p.ps))
	for i, q := range p.ps {
		parts[i] = q.String()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

type orPred struct{ ps []Pred }

// Or returns the disjunction of predicates; Or() is unsatisfiable.
func Or(ps ...Pred) Pred {
	if len(ps) == 1 {
		return ps[0]
	}
	return &orPred{ps: ps}
}

func (p *orPred) Eval(r Row) bool {
	for _, q := range p.ps {
		if q.Eval(r) {
			return true
		}
	}
	return false
}

func (p *orPred) EvalAt(t *Table, pos int32) bool {
	for _, q := range p.ps {
		if q.EvalAt(t, pos) {
			return true
		}
	}
	return false
}

func (p *orPred) Sel(t *Table) float64 {
	miss := 1.0
	for _, q := range p.ps {
		miss *= 1 - q.Sel(t)
	}
	return 1 - miss
}

func (p *orPred) String() string {
	if len(p.ps) == 0 {
		return "FALSE"
	}
	parts := make([]string, len(p.ps))
	for i, q := range p.ps {
		parts[i] = q.String()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

type notPred struct{ p Pred }

// Not negates a predicate.
func Not(p Pred) Pred { return &notPred{p: p} }

func (p *notPred) Eval(r Row) bool                 { return !p.p.Eval(r) }
func (p *notPred) EvalAt(t *Table, pos int32) bool { return !p.p.EvalAt(t, pos) }
func (p *notPred) Sel(t *Table) float64            { return 1 - p.p.Sel(t) }
func (p *notPred) String() string                  { return "NOT " + p.p.String() }

// memoPred caches p's verdict per row of t: two bits per row (known,
// holds), packed sixteen rows to a word and set with one atomic OR, so
// concurrent evaluators of one query share it without a lock. Two
// evaluators racing on the same unknown row both run p and OR the same
// bits.
type memoPred struct {
	p    Pred
	t    *Table
	n    uint32 // rows memoized: t's row count when Memo was called
	bits []uint32
}

// Memo wraps p so that EvalAt runs p at most once per row of t: the
// first verdict for a row is remembered and later calls read it back.
// It serves the plans that test the same entity row many times in one
// query (every IndexJoin/IDGJ probe of the inner entity set, every HDGJ
// rescan). Only the rows t holds when Memo is called are memoized; rows
// appended later and positions of any other table go straight to p, as
// do Eval, Sel and String. A memo belongs to one query and must not
// outlive it: it does not see a rolled-back row being replaced.
func Memo(t *Table, p Pred) Pred {
	n := t.NumRows()
	return &memoPred{p: p, t: t, n: uint32(n), bits: make([]uint32, (n+15)/16)}
}

func (m *memoPred) Eval(r Row) bool { return m.p.Eval(r) }

func (m *memoPred) EvalAt(t *Table, pos int32) bool {
	if t != m.t || uint32(pos) >= m.n {
		return m.p.EvalAt(t, pos)
	}
	w := &m.bits[pos>>4]
	shift := uint(pos&15) * 2
	if v := atomic.LoadUint32(w) >> shift; v&1 != 0 {
		return v&2 != 0
	}
	ok := m.p.EvalAt(t, pos)
	v := uint32(1)
	if ok {
		v = 3
	}
	atomic.OrUint32(w, v<<shift)
	return ok
}

func (m *memoPred) Sel(t *Table) float64 { return m.p.Sel(t) }

func (m *memoPred) String() string { return m.p.String() }
