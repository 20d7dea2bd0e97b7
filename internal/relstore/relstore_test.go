package relstore

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func proteinSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("Protein",
		[]Column{{Name: "ID", Type: TInt}, {Name: "desc", Type: TString}}, "ID")
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", []Column{{Name: "a", Type: TInt}}, ""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema("T", nil, ""); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := NewSchema("T", []Column{{Name: "a", Type: TInt}, {Name: "a", Type: TInt}}, ""); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema("T", []Column{{Name: "a", Type: TString}}, "a"); err == nil {
		t.Error("string key accepted")
	}
	if _, err := NewSchema("T", []Column{{Name: "a", Type: TInt}}, "b"); err == nil {
		t.Error("missing key column accepted")
	}
	s, err := NewSchema("T", []Column{{Name: "a", Type: TInt}, {Name: "b", Type: TString}}, "a")
	if err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	if s.KeyCol != 0 {
		t.Errorf("KeyCol = %d, want 0", s.KeyCol)
	}
	if i, ok := s.ColIndex("b"); !ok || i != 1 {
		t.Errorf("ColIndex(b) = %d,%v", i, ok)
	}
	if _, ok := s.ColIndex("zzz"); ok {
		t.Error("ColIndex found a phantom column")
	}
}

func TestSchemaCheckRow(t *testing.T) {
	s := proteinSchema(t)
	if err := s.CheckRow(Row{IntVal(1), StrVal("x")}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.CheckRow(Row{IntVal(1)}); err == nil {
		t.Error("short row accepted")
	}
	if err := s.CheckRow(Row{StrVal("x"), StrVal("y")}); err == nil {
		t.Error("mistyped row accepted")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntVal(1), IntVal(2), -1},
		{IntVal(2), IntVal(2), 0},
		{IntVal(3), IntVal(2), 1},
		{StrVal("a"), StrVal("b"), -1},
		{StrVal("b"), StrVal("b"), 0},
		{IntVal(99), StrVal("a"), -1}, // ints order before strings
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return IntVal(a).Compare(IntVal(b)) == -IntVal(b).Compare(IntVal(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return StrVal(a).Compare(StrVal(b)) == -StrVal(b).Compare(StrVal(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestTableInsertAndPK(t *testing.T) {
	tab := NewTable(proteinSchema(t))
	if err := tab.Insert(Row{IntVal(32), StrVal("ubiquitin conjugating enzyme")}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := tab.Insert(Row{IntVal(32), StrVal("dup")}); err == nil {
		t.Error("duplicate PK accepted")
	}
	if err := tab.Insert(Row{StrVal("x"), StrVal("y")}); err == nil {
		t.Error("mistyped row accepted")
	}
	pos, ok := tab.PKPos(32)
	if !ok || tab.Row(pos)[1].Str != "ubiquitin conjugating enzyme" {
		t.Errorf("PKPos(32) = %v,%v", pos, ok)
	}
	if _, ok := tab.PKPos(99); ok {
		t.Error("PKPos found phantom row")
	}
	if !tab.HasPK(32) || tab.HasPK(99) {
		t.Error("HasPK wrong")
	}
	if tab.NumRows() != 1 {
		t.Errorf("NumRows = %d, want 1", tab.NumRows())
	}
}

func TestHashIndexBeforeAndAfterInsert(t *testing.T) {
	tab := NewTable(proteinSchema(t))
	tab.MustInsert(IntVal(1), StrVal("a"))
	tab.MustInsert(IntVal(2), StrVal("b"))
	ix, err := tab.CreateHashIndex("desc")
	if err != nil {
		t.Fatalf("CreateHashIndex: %v", err)
	}
	// Index built over existing rows.
	if got := ix.Lookup(StrVal("a")); len(got) != 1 || tab.Row(got[0])[0].Int != 1 {
		t.Errorf("Lookup(a) = %v", got)
	}
	// Index maintained on insert.
	tab.MustInsert(IntVal(3), StrVal("a"))
	if got := ix.Lookup(StrVal("a")); len(got) != 2 {
		t.Errorf("after insert Lookup(a) = %v, want 2 positions", got)
	}
	if ix.NumKeys() != 2 {
		t.Errorf("NumKeys = %d, want 2", ix.NumKeys())
	}
	if _, err := tab.CreateHashIndex("nope"); err == nil {
		t.Error("index on phantom column accepted")
	}
	// Idempotent create returns the same index.
	ix2, _ := tab.CreateHashIndex("desc")
	if ix2 != ix {
		t.Error("CreateHashIndex rebuilt an existing index")
	}
}

func TestLookupWithAndWithoutIndex(t *testing.T) {
	tab := NewTable(proteinSchema(t))
	for i := 0; i < 10; i++ {
		tab.MustInsert(IntVal(int64(i)), StrVal(fmt.Sprintf("w%d", i%3)))
	}
	unindexed, err := tab.Lookup("desc", StrVal("w1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateHashIndex("desc"); err != nil {
		t.Fatal(err)
	}
	indexed, err := tab.Lookup("desc", StrVal("w1"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(indexed, func(i, j int) bool { return indexed[i] < indexed[j] })
	if len(unindexed) != len(indexed) {
		t.Fatalf("scan found %d rows, index found %d", len(unindexed), len(indexed))
	}
	for i := range indexed {
		if indexed[i] != unindexed[i] {
			t.Errorf("position %d: index %d != scan %d", i, indexed[i], unindexed[i])
		}
	}
	if _, err := tab.Lookup("nope", IntVal(0)); err == nil {
		t.Error("Lookup on phantom column accepted")
	}
}

func TestOrderedIndexScanAndRange(t *testing.T) {
	s := MustSchema("S", []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TInt}}, "")
	tab := NewTable(s)
	vals := []int64{5, 1, 9, 3, 7, 3}
	for i, v := range vals {
		tab.MustInsert(IntVal(v), IntVal(int64(i)))
	}
	ix, err := tab.CreateOrderedIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	ix.Scan(false, func(pos int32) bool {
		got = append(got, tab.Row(pos)[0].Int)
		return true
	})
	want := []int64{1, 3, 3, 5, 7, 9}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ascending scan = %v, want %v", got, want)
	}
	got = got[:0]
	ix.Scan(true, func(pos int32) bool {
		got = append(got, tab.Row(pos)[0].Int)
		return true
	})
	want = []int64{9, 7, 5, 3, 3, 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("descending scan = %v, want %v", got, want)
	}
	// Maintained on insert.
	tab.MustInsert(IntVal(4), IntVal(99))
	got = got[:0]
	ix.Range(IntVal(3), IntVal(5), func(pos int32) bool {
		got = append(got, tab.Row(pos)[0].Int)
		return true
	})
	want = []int64{3, 3, 4, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Range(3,5) = %v, want %v", got, want)
	}
	// Early stop.
	n := 0
	ix.Scan(false, func(int32) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d, want 2", n)
	}
}

func TestOrderedIndexMatchesSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := MustSchema("S", []Column{{Name: "k", Type: TInt}}, "")
		tab := NewTable(s)
		n := rng.Intn(50)
		half := n / 2
		var vals []int64
		for i := 0; i < half; i++ {
			v := int64(rng.Intn(20))
			vals = append(vals, v)
			tab.MustInsert(IntVal(v))
		}
		ix, _ := tab.CreateOrderedIndex("k")
		for i := half; i < n; i++ { // insert the rest after index creation
			v := int64(rng.Intn(20))
			vals = append(vals, v)
			tab.MustInsert(IntVal(v))
		}
		var got []int64
		ix.Scan(false, func(pos int32) bool {
			got = append(got, tab.Row(pos)[0].Int)
			return true
		})
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if len(got) != len(vals) {
			return false
		}
		for i := range got {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPredicates(t *testing.T) {
	s := MustSchema("P", []Column{
		{Name: "ID", Type: TInt},
		{Name: "desc", Type: TString},
	}, "ID")
	tab := NewTable(s)
	tab.MustInsert(IntVal(1), StrVal("ubiquitin conjugating enzyme"))
	tab.MustInsert(IntVal(2), StrVal("hypothetical protein"))
	tab.MustInsert(IntVal(3), StrVal("enzyme variant"))

	enzyme := MustContains(s, "desc", "enzyme")
	id2 := MustEq(s, "ID", IntVal(2))
	lt3, err := Cmp(s, "ID", "<", IntVal(3))
	if err != nil {
		t.Fatal(err)
	}

	var hits []int64
	var r Row
	tab.ScanPos(func(pos int32) bool {
		r = tab.AppendRow(r[:0], pos)
		if enzyme.Eval(r) {
			hits = append(hits, r[0].Int)
		}
		return true
	})
	if fmt.Sprint(hits) != "[1 3]" {
		t.Errorf("ct('enzyme') hits = %v, want [1 3]", hits)
	}
	if !id2.Eval(tab.Row(1)) || id2.Eval(tab.Row(0)) {
		t.Error("Eq wrong")
	}
	if !lt3.Eval(tab.Row(0)) || lt3.Eval(tab.Row(2)) {
		t.Error("Cmp wrong")
	}
	both := And(enzyme, Not(id2))
	if !both.Eval(tab.Row(0)) || both.Eval(tab.Row(1)) {
		t.Error("And/Not wrong")
	}
	either := Or(id2, MustEq(s, "ID", IntVal(3)))
	if !either.Eval(tab.Row(1)) || !either.Eval(tab.Row(2)) || either.Eval(tab.Row(0)) {
		t.Error("Or wrong")
	}
	if (True{}).Eval(tab.Row(0)) != true {
		t.Error("True wrong")
	}
	// "enzyme" must match as a token, not a substring.
	tab.MustInsert(IntVal(4), StrVal("coenzymeX related"))
	if enzyme.Eval(tab.Row(3)) {
		t.Error("ct matched a substring instead of a token")
	}
}

func TestPredicateErrors(t *testing.T) {
	s := proteinSchema(t)
	if _, err := Eq(s, "nope", IntVal(1)); err == nil {
		t.Error("Eq on phantom column accepted")
	}
	if _, err := Contains(s, "nope", "w"); err == nil {
		t.Error("Contains on phantom column accepted")
	}
	if _, err := Contains(s, "ID", "w"); err == nil {
		t.Error("Contains on int column accepted")
	}
	if _, err := Cmp(s, "ID", "!=", IntVal(1)); err == nil {
		t.Error("bad operator accepted")
	}
}

func TestSelectivityEstimates(t *testing.T) {
	s := MustSchema("P", []Column{
		{Name: "ID", Type: TInt},
		{Name: "desc", Type: TString},
	}, "ID")
	tab := NewTable(s)
	for i := 0; i < 100; i++ {
		d := "common"
		if i%10 == 0 {
			d = "rare token"
		}
		tab.MustInsert(IntVal(int64(i)), StrVal(d))
	}
	rare := MustContains(s, "desc", "rare")
	if got := rare.Sel(tab); got < 0.05 || got > 0.15 {
		t.Errorf("Sel(rare) = %v, want ~0.10", got)
	}
	common := MustContains(s, "desc", "common")
	if got := common.Sel(tab); got < 0.85 || got > 0.95 {
		t.Errorf("Sel(common) = %v, want ~0.90", got)
	}
	one := MustEq(s, "ID", IntVal(5))
	if got := one.Sel(tab); got != 0.01 {
		t.Errorf("Sel(ID=5) = %v, want 0.01", got)
	}
	if got := (True{}).Sel(tab); got != 1 {
		t.Errorf("Sel(TRUE) = %v", got)
	}
	and := And(rare, common)
	if got := and.Sel(tab); got < 0.08*0.85 || got > 0.12*0.95 {
		t.Errorf("Sel(and) = %v, want product", got)
	}
}

func TestStatsMinMaxNDV(t *testing.T) {
	s := MustSchema("S", []Column{{Name: "k", Type: TInt}}, "")
	tab := NewTable(s)
	for _, v := range []int64{7, 3, 3, 9, 1} {
		tab.MustInsert(IntVal(v))
	}
	st := tab.Stats()
	cs := st.Col(0)
	if cs.Min.Int != 1 || cs.Max.Int != 9 {
		t.Errorf("min/max = %d/%d, want 1/9", cs.Min.Int, cs.Max.Int)
	}
	if cs.NDV != 4 {
		t.Errorf("NDV = %d, want 4", cs.NDV)
	}
	// Stats cache is invalidated on insert.
	tab.MustInsert(IntVal(100))
	if got := tab.Stats().Col(0).Max.Int; got != 100 {
		t.Errorf("stale stats: max = %d, want 100", got)
	}
	if st.Col(99) != nil {
		t.Error("Col out of range should be nil")
	}
}

func TestDBCatalog(t *testing.T) {
	db := NewDB()
	s := proteinSchema(t)
	tab, err := db.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(s); err == nil {
		t.Error("duplicate table accepted")
	}
	if db.Table("Protein") != tab {
		t.Error("Table lookup failed")
	}
	if db.Table("nope") != nil {
		t.Error("phantom table found")
	}
	db.MustCreateTable(MustSchema("DNA", []Column{{Name: "ID", Type: TInt}}, "ID"))
	names := db.TableNames()
	if fmt.Sprint(names) != "[DNA Protein]" {
		t.Errorf("TableNames = %v", names)
	}
	db.DropTable("DNA")
	if db.Table("DNA") != nil {
		t.Error("DropTable did not drop")
	}
}

func TestApproxBytesGrows(t *testing.T) {
	tab := NewTable(proteinSchema(t))
	empty := tab.ApproxBytes()
	for i := 0; i < 100; i++ {
		tab.MustInsert(IntVal(int64(i)), StrVal("some description text"))
	}
	full := tab.ApproxBytes()
	if full <= empty {
		t.Errorf("ApproxBytes did not grow: %d -> %d", empty, full)
	}
	if _, err := tab.CreateHashIndex("ID"); err != nil {
		t.Fatal(err)
	}
	if tab.ApproxBytes() <= full {
		t.Error("index did not add to footprint")
	}
}

func TestScanEarlyStop(t *testing.T) {
	tab := NewTable(proteinSchema(t))
	for i := 0; i < 10; i++ {
		tab.MustInsert(IntVal(int64(i)), StrVal("x"))
	}
	n := 0
	tab.ScanPos(func(int32) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("scan visited %d rows, want 3", n)
	}
}

func TestContainsTokenEdgeCases(t *testing.T) {
	cases := []struct {
		text, word string
		want       bool
	}{
		{"", "x", false},
		{"x", "x", true},
		{"a x b", "x", true},
		{"ax xb", "x", false},
		{"x ", "x", true},
		{" x", "x", true},
	}
	for _, c := range cases {
		if got := containsToken(c.text, c.word); got != c.want {
			t.Errorf("containsToken(%q,%q) = %v, want %v", c.text, c.word, got, c.want)
		}
	}
}

func TestConcurrentIndexCreationAndStats(t *testing.T) {
	s := MustSchema("S", []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TInt}}, "")
	tab := NewTable(s)
	for i := 0; i < 200; i++ {
		tab.MustInsert(IntVal(int64(i%17)), IntVal(int64(i)))
	}
	// Many goroutines race to create the same indexes and statistics;
	// everyone must get the same objects (run under -race in CI).
	var wg sync.WaitGroup
	hs := make([]*HashIndex, 16)
	os := make([]*OrderedIndex, 16)
	ss := make([]*TableStats, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := tab.CreateHashIndex("k")
			if err != nil {
				t.Error(err)
				return
			}
			o, err := tab.CreateOrderedIndex("v")
			if err != nil {
				t.Error(err)
				return
			}
			hs[i], os[i], ss[i] = h, o, tab.Stats()
		}(i)
	}
	wg.Wait()
	for i := 1; i < 16; i++ {
		if hs[i] != hs[0] || os[i] != os[0] || ss[i] != ss[0] {
			t.Fatalf("goroutine %d got different index/stats objects", i)
		}
	}
	if got := len(hs[0].Lookup(IntVal(3))); got == 0 {
		t.Error("racing creation produced an empty hash index")
	}
	if hs[0].NumKeys() != 17 {
		t.Errorf("NumKeys = %d, want 17", hs[0].NumKeys())
	}
}

func TestOrderedIndexBatchedInsertStability(t *testing.T) {
	// Inserts after index creation land in the pending buffer; ties
	// must still come out in insertion order in both directions.
	s := MustSchema("S", []Column{{Name: "k", Type: TInt}, {Name: "pos", Type: TInt}}, "")
	tab := NewTable(s)
	tab.MustInsert(IntVal(5), IntVal(0))
	ix, err := tab.CreateOrderedIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		tab.MustInsert(IntVal(5), IntVal(int64(i))) // all ties
	}
	for _, desc := range []bool{false, true} {
		var got []int64
		ix.Scan(desc, func(pos int32) bool {
			got = append(got, tab.Row(pos)[1].Int)
			return true
		})
		want := []int64{0, 1, 2, 3, 4, 5, 6}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("desc=%v: tie order = %v, want %v (insertion order)", desc, got, want)
		}
	}
}
