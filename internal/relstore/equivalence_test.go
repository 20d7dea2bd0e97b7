package relstore

import (
	"fmt"
	"math"
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

// widthCases put the sealed span of one TInt column on each side of the
// packed width boundaries (2^8, 2^16, 2^32), in negative frames (the
// ranges of TopInfo's rare and domain scores), and across the whole
// int64 range, whose span overflows a signed subtraction. delta is a
// value inserted after sealing, outside the frame except where noted;
// compacted is the width Compact must re-pack the column to.
var widthCases = []struct {
	name      string
	lo, hi    int64
	width     uint8
	delta     int64
	compacted uint8
}{
	{"span-2^8-1", 0, 1<<8 - 1, 1, -1, 2},
	{"span-2^8", 0, 1 << 8, 2, 128, 2}, // delta inside the frame: cells copied verbatim
	{"span-2^16-1", -5, 1<<16 - 6, 2, -6, 4},
	{"span-2^16", 1000, 1000 + 1<<16, 4, 1000 + 1<<32, 8},
	{"span-2^32-1", 1 << 40, 1<<40 + 1<<32 - 1, 4, 1<<40 + 1<<32, 8},
	{"span-2^32", -1 << 40, -1<<40 + 1<<32, 8, math.MinInt64, 8},
	{"score-rare", -38182, -1, 2, 70000, 4},
	{"score-domain", -23, 158, 1, -30, 1}, // frame moves, width holds
	{"int64-extremes", math.MinInt64, math.MaxInt64, 8, 0, 8},
}

func sealedWidth(tab *Table, c int) uint8 { return tab.loadState().base[c].ints.width }

// checkWidthTable compares every read path of tab's value column v
// (column 1; column 0 is the primary key) against the reference rows:
// cell accessors, views and row materialization, Lookup (through the
// hash index when tab has one, a column scan otherwise), the ordered
// index in both directions and over ranges, statistics, and predicate
// evaluation. probes are the values to look up and compare against.
func checkWidthTable(t *testing.T, stage string, tab *Table, ref *refTable, probes []int64) {
	t.Helper()
	if tab.NumRows() != len(ref.rows) {
		t.Fatalf("%s: rows %d, want %d", stage, tab.NumRows(), len(ref.rows))
	}
	view := tab.Col(1)
	var buf Row
	for pos, r := range ref.rows {
		p := int32(pos)
		buf = tab.AppendRow(buf[:0], p)
		if !reflect.DeepEqual(buf, r) || tab.IntAt(p, 1) != r[1].Int || tab.ValueAt(p, 1) != r[1] ||
			view.Int(p) != r[1].Int || view.Value(p) != r[1] {
			t.Fatalf("%s: cell %d = %v / IntAt %d / view %d, want %v",
				stage, pos, buf, tab.IntAt(p, 1), view.Int(p), r)
		}
	}
	for _, v := range probes {
		got, err := tab.Lookup("v", IntVal(v))
		if err != nil {
			t.Fatal(err)
		}
		got = append([]int32(nil), got...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if want := ref.lookup(1, IntVal(v)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Lookup(v=%d) = %v, want %v", stage, v, got, want)
		}
	}
	if ix, ok := tab.OrderedIndexOn("v"); ok {
		var asc, desc []int32
		ix.Scan(false, func(pos int32) bool { asc = append(asc, pos); return true })
		ix.Scan(true, func(pos int32) bool { desc = append(desc, pos); return true })
		if want := ref.orderedPerm(1); !reflect.DeepEqual(asc, want) {
			t.Fatalf("%s: ascending scan diverges", stage)
		}
		if want := ref.descOrder(1); !reflect.DeepEqual(desc, want) {
			t.Fatalf("%s: descending scan diverges", stage)
		}
		sorted := append([]int64(nil), probes...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		mid := sorted[len(sorted)/2]
		for _, w := range [][2]int64{{sorted[0], sorted[len(sorted)-1]}, {sorted[0], mid}, {mid, sorted[len(sorted)-1]}, {mid, mid}} {
			var got, want []int32
			ix.Range(IntVal(w[0]), IntVal(w[1]), func(pos int32) bool { got = append(got, pos); return true })
			for _, pos := range ref.orderedPerm(1) {
				if v := ref.rows[pos][1].Int; v >= w[0] && v <= w[1] {
					want = append(want, pos)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Range(%d, %d) = %v, want %v", stage, w[0], w[1], got, want)
			}
		}
	}
	st := tab.Stats()
	for c := range ref.schema.Cols {
		got, want := st.Col(c), ref.stats(c)
		if got.NDV != want.NDV || got.Min != want.Min || got.Max != want.Max || !reflect.DeepEqual(got.Freq, want.Freq) {
			t.Fatalf("%s: stats col %d = %d/%v/%v, want %d/%v/%v",
				stage, c, got.NDV, got.Min, got.Max, want.NDV, want.Min, want.Max)
		}
	}
	s := tab.Schema
	var preds []Pred
	for _, v := range probes {
		preds = append(preds, MustEq(s, "v", IntVal(v)))
		for _, op := range []string{"<", "<=", ">", ">="} {
			p, err := Cmp(s, "v", op, IntVal(v))
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, p)
		}
	}
	for _, p := range preds {
		for pos, r := range ref.rows {
			if got, want := p.EvalAt(tab, int32(pos)), p.Eval(r); got != want {
				t.Fatalf("%s: %s: EvalAt(%d) = %v, row Eval = %v", stage, p, pos, got, want)
			}
		}
	}
}

// appendRangeCopy rebuilds src through IntTableBuilder.AppendRange in
// pieces cut at each of cuts, so the copy decodes sealed cells, delta
// cells, and a range straddling the two.
func appendRangeCopy(t *testing.T, src *Table, cuts ...int32) *Table {
	t.Helper()
	b, err := NewIntTableBuilder(src.Schema)
	if err != nil {
		t.Fatal(err)
	}
	lo := int32(0)
	for _, hi := range append(cuts, int32(src.NumRows())) {
		b.AppendRange(src, lo, hi)
		lo = hi
	}
	cp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestEquivalenceWidths checks the frame-of-reference packed columns at
// every width boundary against the reference row store: a table sealed
// by IntTableBuilder.Build (with hash and ordered indexes) and one
// sealed by Insert + Compact (without indexes) go through delta inserts
// outside the sealed frame, a TruncateTo rollback, a widening Compact,
// and AppendRange copies from every width, and each stage must read
// back cell for cell what the row store holds.
func TestEquivalenceWidths(t *testing.T) {
	const n = 200
	s := MustSchema("W", []Column{{Name: "ID", Type: TInt}, {Name: "v", Type: TInt}}, "ID")
	for ci, tc := range widthCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			span := uint64(tc.hi) - uint64(tc.lo)
			pool := []int64{tc.lo, tc.hi, tc.lo + 1, tc.hi - 1, tc.lo + int64(span/2)}
			for i := 0; i < 5; i++ {
				pool = append(pool, tc.lo+int64(rng.Uint64()%span))
			}
			probes := append(append([]int64(nil), pool...), tc.delta)
			nextRow := func(id int) Row {
				v := pool[rng.Intn(len(pool))]
				if id < 2 {
					v = pool[id] // both ends of the frame are present
				} else if id >= n && rng.Intn(3) == 0 {
					v = tc.delta
				}
				return Row{IntVal(int64(id)), IntVal(v)}
			}

			ref := &refTable{schema: s}
			b, err := NewIntTableBuilder(s)
			if err != nil {
				t.Fatal(err)
			}
			inserted := NewTable(s)
			for id := 0; id < n; id++ {
				r := nextRow(id)
				ref.insert(r)
				b.AppendInts(r[0].Int, r[1].Int)
				inserted.MustInsert(r...)
			}
			built, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := built.CreateHashIndex("v"); err != nil {
				t.Fatal(err)
			}
			if _, err := built.CreateOrderedIndex("v"); err != nil {
				t.Fatal(err)
			}
			inserted.Compact()
			tabs := map[string]*Table{"built": built, "inserted": inserted}
			for name, tab := range tabs {
				if w := sealedWidth(tab, 1); w != tc.width {
					t.Fatalf("%s: sealed width %d, want %d", name, w, tc.width)
				}
				checkWidthTable(t, name+" sealed", tab, ref, probes)
			}

			insertAll := func(from, to int) {
				for id := from; id < to; id++ {
					r := nextRow(id)
					if id == from {
						r[1] = IntVal(tc.delta)
					}
					ref.insert(r)
					for _, tab := range tabs {
						tab.MustInsert(r...)
					}
				}
			}
			insertAll(n, n+20)
			for name, tab := range tabs {
				checkWidthTable(t, name+" delta", tab, ref, probes)
				cp := appendRangeCopy(t, tab, n/3, n+5)
				if w := sealedWidth(cp, 1); w != tc.compacted {
					t.Fatalf("%s: AppendRange copy width %d, want %d", name, w, tc.compacted)
				}
				checkWidthTable(t, name+" copy of delta", cp, ref, probes)
			}

			ref.rows = ref.rows[:n+5]
			for name, tab := range tabs {
				if err := tab.TruncateTo(n + 5); err != nil {
					t.Fatal(err)
				}
				checkWidthTable(t, name+" truncated", tab, ref, probes)
			}
			insertAll(n+5, n+30)

			for name, tab := range tabs {
				tab.Compact()
				if w := sealedWidth(tab, 1); w != tc.compacted {
					t.Fatalf("%s: compacted width %d, want %d", name, w, tc.compacted)
				}
				checkWidthTable(t, name+" compacted", tab, ref, probes)
				cp := appendRangeCopy(t, tab, n/3, n+5)
				if w := sealedWidth(cp, 1); w != tc.compacted {
					t.Fatalf("%s: AppendRange copy width %d, want %d", name, w, tc.compacted)
				}
				checkWidthTable(t, name+" copy of compacted", cp, ref, probes)
			}
		})
	}
}
