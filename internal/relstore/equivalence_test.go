package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// This file is the golden equivalence suite for the columnar storage
// engine: a miniature reference row store (rows as []Value, exactly the
// seed layout) is loaded with the same data as a columnar Table, and
// every read path — scans, lookups, ordered iteration, statistics,
// predicate evaluation — must return byte-identical results. CI runs
// these with `go test ./internal/relstore/... -run Equivalence`.

// refTable is the reference row store: the pre-columnar layout.
type refTable struct {
	schema *Schema
	rows   []Row
}

func (rt *refTable) insert(r Row) { rt.rows = append(rt.rows, r) }

func (rt *refTable) lookup(c int, v Value) []int32 {
	var out []int32
	for pos, r := range rt.rows {
		if r[c].Equal(v) {
			out = append(out, int32(pos))
		}
	}
	return out
}

// orderedPerm is the reference ordered index: positions stably sorted
// by the column's value.
func (rt *refTable) orderedPerm(c int) []int32 {
	perm := make([]int32, len(rt.rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return rt.rows[perm[a]][c].Compare(rt.rows[perm[b]][c]) < 0
	})
	return perm
}

// descOrder replays OrderedIndex.Scan(desc): runs of equal values in
// descending value order, ties within a run in insertion order.
func (rt *refTable) descOrder(c int) []int32 {
	perm := rt.orderedPerm(c)
	var out []int32
	hi := len(perm)
	for hi > 0 {
		lo := hi - 1
		v := rt.rows[perm[lo]][c]
		for lo > 0 && rt.rows[perm[lo-1]][c].Compare(v) == 0 {
			lo--
		}
		out = append(out, perm[lo:hi]...)
		hi = lo
	}
	return out
}

// stats replays the seed's row-at-a-time statistics pass.
func (rt *refTable) stats(c int) *ColStats {
	cs := &ColStats{Freq: make(map[Value]int)}
	if rt.schema.Cols[c].Type == TString {
		cs.TokenFreq = make(map[string]int)
	}
	first := true
	for _, r := range rt.rows {
		v := r[c]
		if first {
			cs.Min, cs.Max = v, v
			first = false
		} else {
			if v.Compare(cs.Min) < 0 {
				cs.Min = v
			}
			if v.Compare(cs.Max) > 0 {
				cs.Max = v
			}
		}
		if cs.Freq != nil {
			cs.Freq[v]++
			if len(cs.Freq) > maxTrackedValues {
				cs.NDV = len(cs.Freq)
				cs.Freq = nil
			}
		}
		if cs.TokenFreq != nil {
			seen := map[string]bool{}
			for _, tok := range strings.Fields(v.Str) {
				if !seen[tok] {
					seen[tok] = true
					cs.TokenFreq[tok]++
				}
			}
			if len(cs.TokenFreq) > 4*maxTrackedValues {
				cs.TokenFreq = nil
			}
		}
	}
	if cs.Freq != nil {
		cs.NDV = len(cs.Freq)
	} else if cs.NDV == 0 {
		cs.NDV = len(rt.rows)
	}
	return cs
}

// genPair loads the same pseudo-random relation into a columnar Table
// and the reference row store: an int primary key, a low-cardinality
// int column, and a multi-token string column with heavy duplication
// (the shape of the entity tables' desc columns).
func genPair(seed int64, n int) (*Table, *refTable) {
	rng := rand.New(rand.NewSource(seed))
	s := MustSchema("Eq", []Column{
		{Name: "ID", Type: TInt},
		{Name: "grp", Type: TInt},
		{Name: "desc", Type: TString},
	}, "ID")
	vocab := []string{
		"ubiquitin conjugating enzyme", "hypothetical protein",
		"enzyme variant", "mRNA", "zinc finger protein",
		"kinase domain enzyme", "transcription factor",
	}
	t, rt := NewTable(s), &refTable{schema: s}
	for i := 0; i < n; i++ {
		r := Row{
			IntVal(int64(i)),
			IntVal(int64(rng.Intn(7))),
			StrVal(vocab[rng.Intn(len(vocab))]),
		}
		if err := t.Insert(r); err != nil {
			panic(err)
		}
		rt.insert(r)
	}
	return t, rt
}

func TestEquivalenceScan(t *testing.T) {
	tab, ref := genPair(1, 500)
	var got, want []string
	var buf Row
	tab.ScanPos(func(pos int32) bool {
		buf = tab.AppendRow(buf[:0], pos)
		got = append(got, fmt.Sprintf("%d:%v", pos, buf))
		return true
	})
	for pos, r := range ref.rows {
		want = append(want, fmt.Sprintf("%d:%v", pos, r))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Scan diverges from the row store")
	}
	// Cell accessors and row materialization agree with the rows.
	for pos, r := range ref.rows {
		p := int32(pos)
		if tab.IntAt(p, 0) != r[0].Int || tab.IntAt(p, 1) != r[1].Int || tab.StrAt(p, 2) != r[2].Str {
			t.Fatalf("cell accessors diverge at pos %d", pos)
		}
		for c := range r {
			if tab.ValueAt(p, c) != r[c] {
				t.Fatalf("ValueAt(%d,%d) = %v, want %v", pos, c, tab.ValueAt(p, c), r[c])
			}
		}
		if !reflect.DeepEqual(tab.Row(p), r) {
			t.Fatalf("Row(%d) diverges", pos)
		}
		if got := tab.AppendRow(nil, p); !reflect.DeepEqual(got, r) {
			t.Fatalf("AppendRow(%d) diverges", pos)
		}
	}
	// Column views agree too.
	ids, descs := tab.Col(0), tab.Col(2)
	if ids.Len() != len(ref.rows) || descs.Len() != len(ref.rows) {
		t.Fatal("view lengths diverge")
	}
	for pos, r := range ref.rows {
		if ids.Int(int32(pos)) != r[0].Int || descs.Str(int32(pos)) != r[2].Str {
			t.Fatalf("column view diverges at pos %d", pos)
		}
		if ids.Value(int32(pos)) != r[0] || descs.Value(int32(pos)) != r[2] {
			t.Fatalf("view Value diverges at pos %d", pos)
		}
	}
}

func TestEquivalenceLookup(t *testing.T) {
	tab, ref := genPair(2, 400)
	probes := []struct {
		col string
		c   int
		v   Value
	}{
		{"grp", 1, IntVal(3)},
		{"grp", 1, IntVal(99)}, // absent int
		{"desc", 2, StrVal("mRNA")},
		{"desc", 2, StrVal("never interned")}, // absent string
		{"ID", 0, IntVal(17)},
	}
	for round := 0; round < 2; round++ {
		for _, p := range probes {
			got, err := tab.Lookup(p.col, p.v)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if want := ref.lookup(p.c, p.v); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: Lookup(%s=%s) = %v, want %v", round, p.col, p.v, got, want)
			}
		}
		// Round 1 repeats every probe through the hash indexes.
		if round == 0 {
			for _, col := range []string{"ID", "grp", "desc"} {
				if _, err := tab.CreateHashIndex(col); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Primary-key paths agree with a reference scan.
	for _, id := range []int64{0, 123, 399, 400, -1} {
		want := ref.lookup(0, IntVal(id))
		pos, ok := tab.PKPos(id)
		if ok != (len(want) == 1) || (ok && pos != want[0]) {
			t.Fatalf("PKPos(%d) = %d,%v, want %v", id, pos, ok, want)
		}
		if ok && !reflect.DeepEqual(tab.Row(pos), ref.rows[want[0]]) {
			t.Fatalf("Row(PKPos(%d)) diverges", id)
		}
	}
}

func TestEquivalenceOrderedIndex(t *testing.T) {
	for _, col := range []struct {
		name string
		c    int
	}{{"grp", 1}, {"desc", 2}} {
		tab, ref := genPair(3, 300)
		ix, err := tab.CreateOrderedIndex(col.name)
		if err != nil {
			t.Fatal(err)
		}
		// Grow both sides after index creation so the pending-merge
		// path is exercised too.
		rng := rand.New(rand.NewSource(99))
		vocab := []string{"mRNA", "enzyme variant", "late extra token"}
		for i := 0; i < 50; i++ {
			r := Row{IntVal(int64(1000 + i)), IntVal(int64(rng.Intn(7))), StrVal(vocab[rng.Intn(3)])}
			if err := tab.Insert(r); err != nil {
				t.Fatal(err)
			}
			ref.insert(r)
		}
		var asc []int32
		ix.Scan(false, func(pos int32) bool { asc = append(asc, pos); return true })
		if want := ref.orderedPerm(col.c); !reflect.DeepEqual(asc, want) {
			t.Fatalf("%s: ascending order diverges from stable row sort", col.name)
		}
		var desc []int32
		ix.Scan(true, func(pos int32) bool { desc = append(desc, pos); return true })
		if want := ref.descOrder(col.c); !reflect.DeepEqual(desc, want) {
			t.Fatalf("%s: descending order diverges", col.name)
		}
		if ix.Len() != len(ref.rows) {
			t.Fatalf("%s: Len = %d, want %d", col.name, ix.Len(), len(ref.rows))
		}
		for i := 0; i < ix.Len(); i++ {
			if ix.At(i) != asc[i] {
				t.Fatalf("%s: At(%d) diverges", col.name, i)
			}
		}
	}
	// Range agrees with a filtered stable sort.
	tab, ref := genPair(4, 200)
	ix, err := tab.CreateOrderedIndex("grp")
	if err != nil {
		t.Fatal(err)
	}
	var got []int32
	ix.Range(IntVal(2), IntVal(4), func(pos int32) bool { got = append(got, pos); return true })
	var want []int32
	for _, pos := range ref.orderedPerm(1) {
		if v := ref.rows[pos][1].Int; v >= 2 && v <= 4 {
			want = append(want, pos)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Range(2,4) = %v, want %v", got, want)
	}
}

func TestEquivalenceStats(t *testing.T) {
	tab, ref := genPair(5, 600)
	st := tab.Stats()
	if st.Rows != len(ref.rows) {
		t.Fatalf("Rows = %d, want %d", st.Rows, len(ref.rows))
	}
	for c := range ref.schema.Cols {
		got, want := st.Col(c), ref.stats(c)
		if got.NDV != want.NDV || got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("col %d: NDV/Min/Max = %d/%v/%v, want %d/%v/%v",
				c, got.NDV, got.Min, got.Max, want.NDV, want.Min, want.Max)
		}
		if !reflect.DeepEqual(got.Freq, want.Freq) {
			t.Fatalf("col %d: Freq diverges from row-store pass", c)
		}
		if !reflect.DeepEqual(got.TokenFreq, want.TokenFreq) {
			t.Fatalf("col %d: TokenFreq diverges: %v vs %v", c, got.TokenFreq, want.TokenFreq)
		}
	}
}

// TestEquivalenceStatsOverflow checks the histogram caps: a column with
// more than maxTrackedValues distinct values must report the same
// capped NDV and nil Freq as the row-at-a-time pass did.
func TestEquivalenceStatsOverflow(t *testing.T) {
	s := MustSchema("Wide", []Column{{Name: "k", Type: TInt}, {Name: "s", Type: TString}}, "")
	tab := NewTable(s)
	ref := &refTable{schema: s}
	n := maxTrackedValues + 100
	for i := 0; i < n; i++ {
		r := Row{IntVal(int64(i)), StrVal(fmt.Sprintf("tok%d unique", i))}
		if err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
		ref.insert(r)
	}
	for c := 0; c < 2; c++ {
		got, want := tab.Stats().Col(c), ref.stats(c)
		if got.NDV != want.NDV {
			t.Fatalf("col %d: NDV = %d, want %d", c, got.NDV, want.NDV)
		}
		if (got.Freq == nil) != (want.Freq == nil) {
			t.Fatalf("col %d: Freq nil-ness diverges", c)
		}
		if !reflect.DeepEqual(got.TokenFreq, want.TokenFreq) {
			t.Fatalf("col %d: TokenFreq diverges", c)
		}
	}
}

func TestEquivalencePredEval(t *testing.T) {
	tab, ref := genPair(6, 400)
	s := tab.Schema
	preds := []Pred{
		True{},
		MustEq(s, "grp", IntVal(3)),
		MustEq(s, "desc", StrVal("mRNA")),
		MustEq(s, "desc", StrVal("not in dictionary")),
		MustContains(s, "desc", "enzyme"),
		MustContains(s, "desc", "nothere"),
		Not(MustContains(s, "desc", "protein")),
		And(MustContains(s, "desc", "enzyme"), MustEq(s, "grp", IntVal(1))),
		Or(MustEq(s, "grp", IntVal(0)), MustEq(s, "grp", IntVal(6))),
	}
	if p, err := Cmp(s, "ID", "<", IntVal(200)); err == nil {
		preds = append(preds, p)
	} else {
		t.Fatal(err)
	}
	if p, err := Cmp(s, "desc", ">=", StrVal("mRNA")); err == nil {
		preds = append(preds, p)
	} else {
		t.Fatal(err)
	}
	for _, p := range preds {
		for pos, r := range ref.rows {
			if got, want := p.EvalAt(tab, int32(pos)), p.Eval(r); got != want {
				t.Fatalf("%s: EvalAt(%d) = %v, row Eval = %v", p, pos, got, want)
			}
		}
	}
}

// TestEquivalenceConcurrentReaderHammer races many readers over one
// fully built table — scans, cell reads through column views, hash and
// ordered index probes, statistics — and checks every reader observes
// the same totals (run under -race in CI). Ordered reads race the
// pending-merge flush on purpose.
func TestEquivalenceConcurrentReaderHammer(t *testing.T) {
	tab, ref := genPair(7, 800)
	if _, err := tab.CreateHashIndex("grp"); err != nil {
		t.Fatal(err)
	}
	ixo, err := tab.CreateOrderedIndex("desc")
	if err != nil {
		t.Fatal(err)
	}
	// Leave inserts pending so concurrent readers race to flush them.
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		r := Row{IntVal(int64(2000 + i)), IntVal(int64(rng.Intn(7))), StrVal("mRNA")}
		if err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
		ref.insert(r)
	}
	var wantSum int64
	var wantHits int
	for _, r := range ref.rows {
		wantSum += r[1].Int
		if r[1].Int == 3 {
			wantHits++
		}
	}
	wantDesc := ref.descOrder(2)
	pred := MustContains(tab.Schema, "desc", "mRNA")
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 4 {
			case 0: // positional scan through a column view
				grp := tab.Col(1)
				var sum int64
				for pos := 0; pos < grp.Len(); pos++ {
					sum += grp.Int(int32(pos))
				}
				if sum != wantSum {
					t.Errorf("reader %d: view sum = %d, want %d", w, sum, wantSum)
				}
			case 1: // hash probe + predicate scan
				ix, ok := tab.HashIndexOn("grp")
				if !ok {
					t.Errorf("reader %d: index vanished", w)
					return
				}
				if got := len(ix.Lookup(IntVal(3))); got != wantHits {
					t.Errorf("reader %d: Lookup(3) = %d hits, want %d", w, got, wantHits)
				}
				n := 0
				tab.ScanPos(func(pos int32) bool {
					if pred.EvalAt(tab, pos) {
						n++
					}
					return true
				})
			case 2: // ordered scan racing the pending flush
				var got []int32
				ixo.Scan(true, func(pos int32) bool { got = append(got, pos); return true })
				if !reflect.DeepEqual(got, wantDesc) {
					t.Errorf("reader %d: ordered scan diverges under race", w)
				}
			case 3: // stats and row materialization
				st := tab.Stats()
				if st.Rows != len(ref.rows) {
					t.Errorf("reader %d: stats rows = %d", w, st.Rows)
				}
				var r Row
				tab.ScanPos(func(pos int32) bool {
					r = tab.AppendRow(r[:0], pos)
					return r[0].Int == ref.rows[pos][0].Int
				})
			}
		}(w)
	}
	wg.Wait()
}
