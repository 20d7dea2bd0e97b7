package engine

import (
	"fmt"
	"testing"

	"toposearch/internal/relstore"
)

// Compile-time interface checks.
var (
	_ GroupOp = (*GroupBase)(nil)
	_ GroupOp = (*IDGJ)(nil)
	_ GroupOp = (*HDGJ)(nil)
	_ GroupOp = (*GroupFilter)(nil)
	_ Op      = (*DistinctGroups)(nil)
	_ Op      = (*Scan)(nil)
	_ Op      = (*OrderedScan)(nil)
	_ Op      = (*Filter)(nil)
	_ Op      = (*Project)(nil)
	_ Op      = (*Distinct)(nil)
	_ Op      = (*Sort)(nil)
	_ Op      = (*Limit)(nil)
	_ Op      = (*Concat)(nil)
	_ Op      = (*HashJoin)(nil)
	_ Op      = (*IndexJoin)(nil)
	_ Op      = (*AntiJoin)(nil)
)

// testDB builds tiny Protein/DNA/LeftTops/TopInfo tables mirroring the
// paper's query shape.
func testDB(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()

	prot := db.MustCreateTable(relstore.MustSchema("Protein", []relstore.Column{
		{Name: "ID", Type: relstore.TInt}, {Name: "desc", Type: relstore.TString}}, "ID"))
	for _, r := range []struct {
		id   int64
		desc string
	}{
		{1, "enzyme alpha"}, {2, "kinase"}, {3, "enzyme beta"}, {4, "receptor"},
	} {
		prot.MustInsert(relstore.IntVal(r.id), relstore.StrVal(r.desc))
	}
	if _, err := prot.CreateHashIndex("ID"); err != nil {
		t.Fatal(err)
	}

	dna := db.MustCreateTable(relstore.MustSchema("DNA", []relstore.Column{
		{Name: "ID", Type: relstore.TInt}, {Name: "type", Type: relstore.TString}}, "ID"))
	for _, r := range []struct {
		id int64
		ty string
	}{
		{10, "mRNA"}, {11, "EST"}, {12, "mRNA"},
	} {
		dna.MustInsert(relstore.IntVal(r.id), relstore.StrVal(r.ty))
	}
	if _, err := dna.CreateHashIndex("ID"); err != nil {
		t.Fatal(err)
	}

	// LeftTops(E1,E2,TID): topology 100 relates (1,10) and (2,11);
	// topology 101 relates (2,11) and (3,12); topology 102 relates (4,11).
	lt := db.MustCreateTable(relstore.MustSchema("LeftTops", []relstore.Column{
		{Name: "E1", Type: relstore.TInt}, {Name: "E2", Type: relstore.TInt},
		{Name: "TID", Type: relstore.TInt}}, ""))
	for _, r := range [][3]int64{
		{1, 10, 100}, {2, 11, 100},
		{2, 11, 101}, {3, 12, 101},
		{4, 11, 102},
	} {
		lt.MustInsert(relstore.IntVal(r[0]), relstore.IntVal(r[1]), relstore.IntVal(r[2]))
	}
	for _, c := range []string{"E1", "E2", "TID"} {
		if _, err := lt.CreateHashIndex(c); err != nil {
			t.Fatal(err)
		}
	}

	// TopInfo(TID, SCORE): scores make 101 best, then 100, then 102.
	ti := db.MustCreateTable(relstore.MustSchema("TopInfo", []relstore.Column{
		{Name: "TID", Type: relstore.TInt}, {Name: "SCORE", Type: relstore.TInt}}, "TID"))
	for _, r := range [][2]int64{{100, 50}, {101, 70}, {102, 10}} {
		ti.MustInsert(relstore.IntVal(r[0]), relstore.IntVal(r[1]))
	}
	if _, err := ti.CreateOrderedIndex("SCORE"); err != nil {
		t.Fatal(err)
	}
	return db
}

func col(r relstore.Row, i int) int64 { return r[i].Int }

func TestScanAndFilter(t *testing.T) {
	db := testDB(t)
	prot := db.MustTable("Protein")
	c := &Counters{}
	enzyme := relstore.MustContains(prot.Schema, "desc", "enzyme")
	rows, err := Drain(NewScan(prot, "P", enzyme, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || col(rows[0], 0) != 1 || col(rows[1], 0) != 3 {
		t.Errorf("filtered scan = %v", rows)
	}
	if c.RowsScanned != 4 {
		t.Errorf("RowsScanned = %d, want 4", c.RowsScanned)
	}
	// Filter as separate op.
	f := NewFilter(NewScan(prot, "P", nil, nil), enzyme, 0)
	rows, err = Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("Filter op = %v", rows)
	}
	if got := f.Columns(); got[0] != "P.ID" || got[1] != "P.desc" {
		t.Errorf("Columns = %v", got)
	}
}

func TestOrderedScan(t *testing.T) {
	db := testDB(t)
	ti := db.MustTable("TopInfo")
	sc, err := NewOrderedScan(ti, "T", "SCORE", true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(sc)
	if err != nil {
		t.Fatal(err)
	}
	var tids []int64
	for _, r := range rows {
		tids = append(tids, col(r, 0))
	}
	if fmt.Sprint(tids) != "[101 100 102]" {
		t.Errorf("desc score order = %v, want [101 100 102]", tids)
	}
	// Ascending.
	asc, _ := NewOrderedScan(ti, "T", "SCORE", false, nil, nil)
	rows, _ = Drain(asc)
	if col(rows[0], 0) != 102 {
		t.Errorf("asc first = %d, want 102", col(rows[0], 0))
	}
	// No index -> error.
	if _, err := NewOrderedScan(ti, "T", "TID", false, nil, nil); err == nil {
		t.Error("OrderedScan without index accepted")
	}
}

func TestProjectDistinctSortLimit(t *testing.T) {
	db := testDB(t)
	lt := db.MustTable("LeftTops")
	// SELECT DISTINCT TID FROM LeftTops ORDER BY TID DESC LIMIT 2.
	scan := NewScan(lt, "LT", nil, nil)
	proj := NewProject(scan, []int{2})
	dist := NewDistinct(proj, []int{0})
	srt := NewSort(dist, 0, true, nil)
	lim := NewLimit(srt, 2)
	rows, err := Drain(lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || col(rows[0], 0) != 102 || col(rows[1], 0) != 101 {
		t.Errorf("result = %v, want [102 101]", rows)
	}
	if proj.Columns()[0] != "LT.TID" {
		t.Errorf("projected name = %v", proj.Columns())
	}
}

func TestHashJoin(t *testing.T) {
	db := testDB(t)
	lt := db.MustTable("LeftTops")
	prot := db.MustTable("Protein")
	scanLT := NewScan(lt, "LT", nil, nil)
	scanP := NewScan(prot, "P", nil, nil)
	j := NewHashJoin(scanLT, 0, scanP, 0, nil) // LT.E1 = P.ID
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("join rows = %d, want 5", len(rows))
	}
	// Every row: E1 == P.ID.
	idIdx := MustColIndex(j, "P.ID")
	for _, r := range rows {
		if col(r, 0) != col(r, idIdx) {
			t.Errorf("join mismatch: %v", r)
		}
	}
	if len(j.Columns()) != 5 {
		t.Errorf("join columns = %v", j.Columns())
	}
}

func TestIndexJoin(t *testing.T) {
	db := testDB(t)
	lt := db.MustTable("LeftTops")
	prot := db.MustTable("Protein")
	c := &Counters{}
	scanLT := NewScan(lt, "LT", nil, c)
	enzyme := relstore.MustContains(prot.Schema, "desc", "enzyme")
	j, err := NewIndexJoin(scanLT, 0, prot, "P", "ID", enzyme, c)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// LeftTops rows with E1 in {1,3} (enzymes): (1,10,100),(3,12,101).
	if len(rows) != 2 {
		t.Fatalf("index join rows = %d, want 2: %v", len(rows), rows)
	}
	if c.IndexProbes != 5 {
		t.Errorf("IndexProbes = %d, want 5 (one per outer tuple)", c.IndexProbes)
	}
	// Missing column errors.
	if _, err := NewIndexJoin(scanLT, 0, prot, "P", "nope", nil, nil); err == nil {
		t.Error("index join on phantom column accepted")
	}
}

func TestAntiJoin(t *testing.T) {
	db := testDB(t)
	lt := db.MustTable("LeftTops")
	// NOT EXISTS over an exceptions-like table holding (2,11,100).
	ex := db.MustCreateTable(relstore.MustSchema("Ex", []relstore.Column{
		{Name: "E1", Type: relstore.TInt}, {Name: "E2", Type: relstore.TInt},
		{Name: "TID", Type: relstore.TInt}}, ""))
	ex.MustInsert(relstore.IntVal(2), relstore.IntVal(11), relstore.IntVal(100))
	outer := NewScan(lt, "LT", nil, nil)
	inner := NewScan(ex, "EX", nil, nil)
	aj := NewAntiJoin(outer, []int{0, 1, 2}, inner, []int{0, 1, 2}, nil)
	rows, err := Drain(aj)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("anti join rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if col(r, 0) == 2 && col(r, 1) == 11 && col(r, 2) == 100 {
			t.Error("excluded row leaked through anti join")
		}
	}
}

func TestConcat(t *testing.T) {
	db := testDB(t)
	prot := db.MustTable("Protein")
	a := NewScan(prot, "P", relstore.MustEq(prot.Schema, "ID", relstore.IntVal(1)), nil)
	b := NewScan(prot, "P", relstore.MustEq(prot.Schema, "ID", relstore.IntVal(3)), nil)
	rows, err := Drain(NewConcat(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || col(rows[0], 0) != 1 || col(rows[1], 0) != 3 {
		t.Errorf("concat = %v", rows)
	}
}

// buildDGJStack assembles the Figure-15(a) plan over the test DB:
// TopInfo (score desc) -> IDGJ LeftTops on TID -> IDGJ Protein(sigma) ->
// IDGJ DNA(sigma).
func buildDGJStack(t *testing.T, db *relstore.DB, protWord, dnaType string, c *Counters) (GroupOp, int) {
	t.Helper()
	ti := db.MustTable("TopInfo")
	lt := db.MustTable("LeftTops")
	prot := db.MustTable("Protein")
	dna := db.MustTable("DNA")
	scan, err := NewOrderedScan(ti, "T", "SCORE", true, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	base := NewGroupBase(scan)
	j1, err := NewIDGJ(base, 0, lt, "LT", "TID", nil, c) // T.TID = LT.TID
	if err != nil {
		t.Fatal(err)
	}
	e1 := MustColIndex(j1, "LT.E1")
	j2, err := NewIDGJ(j1, e1, prot, "P", "ID",
		relstore.MustContains(prot.Schema, "desc", protWord), c)
	if err != nil {
		t.Fatal(err)
	}
	e2 := MustColIndex(j2, "LT.E2")
	j3, err := NewIDGJ(j2, e2, dna, "D", "ID",
		relstore.MustEq(dna.Schema, "type", relstore.StrVal(dnaType)), c)
	if err != nil {
		t.Fatal(err)
	}
	return j3, MustColIndex(j3, "T.TID")
}

func TestIDGJStackTopK(t *testing.T) {
	db := testDB(t)
	c := &Counters{}
	stack, tidIdx := buildDGJStack(t, db, "enzyme", "mRNA", c)
	top := NewDistinctGroups(stack, 2)
	rows, err := Drain(top)
	if err != nil {
		t.Fatal(err)
	}
	// Qualifying pairs: P1(enzyme)-D10(mRNA) via T100; P3(enzyme)-
	// D12(mRNA) via T101. Score order: 101 first, then 100.
	if len(rows) != 2 {
		t.Fatalf("top-2 rows = %d, want 2: %v", len(rows), rows)
	}
	if col(rows[0], tidIdx) != 101 || col(rows[1], tidIdx) != 100 {
		t.Errorf("top-2 TIDs = [%d %d], want [101 100]",
			col(rows[0], tidIdx), col(rows[1], tidIdx))
	}
	// k=1 stops after the best group.
	stack1, tidIdx1 := buildDGJStack(t, db, "enzyme", "mRNA", &Counters{})
	rows, err = Drain(NewDistinctGroups(stack1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || col(rows[0], tidIdx1) != 101 {
		t.Errorf("top-1 = %v", rows)
	}
}

func TestIDGJEarlyTerminationSkipsWork(t *testing.T) {
	db := testDB(t)
	// Unselective predicates: every LeftTops tuple matches, so the ET
	// driver should probe far fewer times than the full join.
	cAll := &Counters{}
	stackAll, _ := buildDGJStack(t, db, "", "", cAll) // empty word matches nothing; use nil preds instead
	_ = stackAll
	// Rebuild with nil predicates for a true "unselective" case.
	ti := db.MustTable("TopInfo")
	lt := db.MustTable("LeftTops")
	prot := db.MustTable("Protein")
	scan, _ := NewOrderedScan(ti, "T", "SCORE", true, nil, nil)
	base := NewGroupBase(scan)
	cET := &Counters{}
	j1, _ := NewIDGJ(base, 0, lt, "LT", "TID", nil, cET)
	j2, _ := NewIDGJ(j1, MustColIndex(j1, "LT.E1"), prot, "P", "ID", nil, cET)
	rows, err := Drain(NewDistinctGroups(j2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(rows))
	}
	// Full enumeration would probe once per LeftTops tuple (5) plus
	// once per TopInfo tuple (3); ET should do at most one LeftTops
	// probe and one Protein probe per group (3 each).
	if cET.IndexProbes > 6 {
		t.Errorf("ET probes = %d, want <= 6", cET.IndexProbes)
	}
}

func TestHDGJMatchesIDGJ(t *testing.T) {
	db := testDB(t)
	ti := db.MustTable("TopInfo")
	lt := db.MustTable("LeftTops")
	prot := db.MustTable("Protein")
	enzyme := relstore.MustContains(prot.Schema, "desc", "enzyme")

	build := func(useHash bool) Op {
		scan, _ := NewOrderedScan(ti, "T", "SCORE", true, nil, nil)
		base := NewGroupBase(scan)
		j1, _ := NewIDGJ(base, 0, lt, "LT", "TID", nil, nil)
		var j2 GroupOp
		if useHash {
			j2h, err := NewHDGJ(j1, MustColIndex(j1, "LT.E1"), prot, "P", "ID", enzyme, nil)
			if err != nil {
				t.Fatal(err)
			}
			j2 = j2h
		} else {
			j2i, err := NewIDGJ(j1, MustColIndex(j1, "LT.E1"), prot, "P", "ID", enzyme, nil)
			if err != nil {
				t.Fatal(err)
			}
			j2 = j2i
		}
		return NewDistinctGroups(j2, 0)
	}
	ir, err := Drain(build(false))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := Drain(build(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(ir) != len(hr) {
		t.Fatalf("IDGJ %d rows vs HDGJ %d rows", len(ir), len(hr))
	}
	for i := range ir {
		// Same group (TID) must be emitted in the same order.
		if col(ir[i], 1) != col(hr[i], 1) {
			t.Errorf("row %d: IDGJ TID %d vs HDGJ TID %d", i, col(ir[i], 1), col(hr[i], 1))
		}
	}
}

func TestHDGJFullDrainWithoutSkip(t *testing.T) {
	db := testDB(t)
	ti := db.MustTable("TopInfo")
	lt := db.MustTable("LeftTops")
	scan, _ := NewOrderedScan(ti, "T", "SCORE", true, nil, nil)
	base := NewGroupBase(scan)
	j, err := NewHDGJ(base, 0, lt, "LT", "TID", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// All 5 LeftTops rows, grouped by topology in score order:
	// 101 (2 rows), 100 (2 rows), 102 (1 row).
	if len(rows) != 5 {
		t.Fatalf("HDGJ drain = %d rows, want 5", len(rows))
	}
	wantOrder := []int64{101, 101, 100, 100, 102}
	for i, r := range rows {
		if col(r, 2+2) != wantOrder[i] { // LT.TID is column 4 (T has 2 cols)
			t.Errorf("row %d TID = %d, want %d", i, col(r, 4), wantOrder[i])
		}
	}
}

func TestGroupFilter(t *testing.T) {
	db := testDB(t)
	ti := db.MustTable("TopInfo")
	lt := db.MustTable("LeftTops")
	scan, _ := NewOrderedScan(ti, "T", "SCORE", true, nil, nil)
	base := NewGroupBase(scan)
	j1, _ := NewIDGJ(base, 0, lt, "LT", "TID", nil, nil)
	// Keep only LeftTops rows with E1 = 2; window starts at LT's offset (2).
	pred := relstore.MustEq(lt.Schema, "E1", relstore.IntVal(2))
	gf := NewGroupFilter(j1, pred, 2)
	rows, err := Drain(NewDistinctGroups(gf, 0))
	if err != nil {
		t.Fatal(err)
	}
	// E1=2 appears in topologies 100 and 101 -> two groups emit.
	if len(rows) != 2 {
		t.Errorf("filtered groups = %d, want 2: %v", len(rows), rows)
	}
	if gf.GroupOrdinal() < 0 {
		t.Error("GroupOrdinal not tracked")
	}
}

func TestGroupBaseSemantics(t *testing.T) {
	db := testDB(t)
	ti := db.MustTable("TopInfo")
	scan, _ := NewOrderedScan(ti, "T", "SCORE", true, nil, nil)
	g := NewGroupBase(scan)
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := g.Next(); !ok {
		t.Fatal("no first tuple")
	}
	if g.GroupOrdinal() != 0 {
		t.Errorf("ordinal = %d, want 0", g.GroupOrdinal())
	}
	if err := g.AdvanceToNextGroup(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := g.Next(); !ok {
		t.Fatal("no second tuple")
	}
	if g.GroupOrdinal() != 1 {
		t.Errorf("ordinal = %d, want 1", g.GroupOrdinal())
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestColIndexErrors(t *testing.T) {
	db := testDB(t)
	scan := NewScan(db.MustTable("Protein"), "P", nil, nil)
	if _, err := ColIndex(scan, "P.nope"); err == nil {
		t.Error("phantom column accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustColIndex did not panic")
		}
	}()
	MustColIndex(scan, "P.nope")
}

func TestCountersAdd(t *testing.T) {
	a := Counters{RowsScanned: 1, IndexProbes: 2, TuplesOut: 3, Comparisons: 4}
	b := Counters{RowsScanned: 10, IndexProbes: 20, TuplesOut: 30, Comparisons: 40}
	a.Add(b)
	if a.RowsScanned != 11 || a.IndexProbes != 22 || a.TuplesOut != 33 || a.Comparisons != 44 {
		t.Errorf("Add = %+v", a)
	}
}

func TestScanRangeWindowsComposeToFullScan(t *testing.T) {
	db := testDB(t)
	prot := db.MustTable("Protein")
	full, err := Drain(NewScan(prot, "P", nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	n := int32(prot.NumRows())
	for _, cut := range []int32{0, 1, n - 1, n} {
		a, err := Drain(NewScanRange(prot, "P", nil, nil, 0, cut))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Drain(NewScanRange(prot, "P", nil, nil, cut, -1))
		if err != nil {
			t.Fatal(err)
		}
		got := append(a, b...)
		if fmt.Sprint(got) != fmt.Sprint(full) {
			t.Errorf("cut=%d: concatenated windows != full scan", cut)
		}
	}
	// Hi past the end clamps to the table size.
	over, err := Drain(NewScanRange(prot, "P", nil, nil, 0, n+100))
	if err != nil {
		t.Fatal(err)
	}
	if len(over) != len(full) {
		t.Errorf("Hi beyond end returned %d rows, want %d", len(over), len(full))
	}
}

func TestDistinctAndAntiJoinPairKeys(t *testing.T) {
	// Two-column keys take the comparable value-pair path of rowKeySet;
	// the result must match the semantics of the string-key fallback.
	db := testDB(t)
	lt := db.MustTable("LeftTops")
	rows, err := Drain(NewDistinct(NewScan(lt, "LT", nil, nil), []int{0, 2}))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int64]bool{}
	for _, r := range rows {
		k := [2]int64{col(r, 0), col(r, 2)}
		if seen[k] {
			t.Fatalf("distinct on (E1, TID) emitted duplicate %v", k)
		}
		seen[k] = true
	}
	ex := db.MustCreateTable(relstore.MustSchema("Ex2", []relstore.Column{
		{Name: "E1", Type: relstore.TInt}, {Name: "E2", Type: relstore.TInt}}, ""))
	ex.MustInsert(relstore.IntVal(2), relstore.IntVal(11))
	anti, err := Drain(NewAntiJoin(
		NewScan(lt, "LT", nil, nil), []int{0, 1},
		NewScan(ex, "EX", nil, nil), []int{0, 1}, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	lt.ScanPos(func(pos int32) bool {
		if !(lt.IntAt(pos, 0) == 2 && lt.IntAt(pos, 1) == 11) {
			want++
		}
		return true
	})
	for _, r := range anti {
		if col(r, 0) == 2 && col(r, 1) == 11 {
			t.Error("pair-keyed anti join leaked the excluded pair")
		}
	}
	if len(anti) != want {
		t.Errorf("anti join rows = %d, want %d", len(anti), want)
	}
}
