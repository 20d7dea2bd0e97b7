package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// This file tests the live-update subsystem of the storage engine:
// delta columns absorbing inserts while readers run, Compact folding
// deltas into the sealed arrays without moving rows, incremental index
// and statistics maintenance, and the dictionary's append-only code
// assignment under concurrent growth. CI runs everything here with
// -race.

// expectRow derives the deterministic row inserted at position pos by
// the live-writer tests, so readers can verify cells without sharing
// state with the writer.
func expectRow(pos int32) Row {
	vocab := [...]string{
		"ubiquitin conjugating enzyme", "hypothetical protein",
		"enzyme variant", "mRNA", "zinc finger protein",
		fmt.Sprintf("unique desc %d", pos), // every 6th row grows the dictionary
	}
	return Row{
		IntVal(int64(pos)),
		IntVal(int64(pos % 7)),
		StrVal(vocab[pos%6]),
	}
}

func liveSchema() *Schema {
	return MustSchema("Live", []Column{
		{Name: "ID", Type: TInt},
		{Name: "grp", Type: TInt},
		{Name: "desc", Type: TString},
	}, "ID")
}

// TestLiveInsertConcurrentReaders races one writer inserting rows (with
// periodic Compacts) against many readers that scan, probe the hash and
// primary-key indexes, walk the ordered index, read column views, and
// pull statistics. Every reader checks prefix consistency: whatever row
// count it observes, all cells below it must match the deterministic
// row content, and index probes must resolve to valid positions.
func TestLiveInsertConcurrentReaders(t *testing.T) {
	const rows = 3000
	tab := NewTable(liveSchema())
	// Seed a sealed region plus live indexes before the race starts.
	for pos := int32(0); pos < 500; pos++ {
		if err := tab.Insert(expectRow(pos)); err != nil {
			t.Fatal(err)
		}
	}
	tab.Compact()
	if _, err := tab.CreateHashIndex("grp"); err != nil {
		t.Fatal(err)
	}
	ixo, err := tab.CreateOrderedIndex("desc")
	if err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer done.Store(true)
		for pos := int32(500); pos < rows; pos++ {
			if err := tab.Insert(expectRow(pos)); err != nil {
				t.Errorf("insert %d: %v", pos, err)
				return
			}
			if pos%701 == 0 {
				tab.Compact()
			}
		}
	}()

	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !done.Load() {
				switch w % 4 {
				case 0: // positional scan: prefix must match the generator
					n := 0
					tab.ScanPos(func(pos int32) bool {
						want := expectRow(pos)
						if tab.IntAt(pos, 0) != want[0].Int || tab.StrAt(pos, 2) != want[2].Str {
							t.Errorf("reader %d: cell mismatch at pos %d", w, pos)
							return false
						}
						n++
						return true
					})
					if n < 500 {
						t.Errorf("reader %d: scan saw %d rows, below the seeded 500", w, n)
					}
				case 1: // hash + pk probes resolve to valid, matching rows
					ix, _ := tab.HashIndexOn("grp")
					g := int64(rng.Intn(7))
					for _, pos := range ix.LookupInt(g) {
						if tab.IntAt(pos, 1) != g {
							t.Errorf("reader %d: probe returned pos %d with grp %d, want %d",
								w, pos, tab.IntAt(pos, 1), g)
						}
					}
					id := int64(rng.Intn(rows))
					if pos, ok := tab.PKPos(id); ok && tab.IntAt(pos, 0) != id {
						t.Errorf("reader %d: PKPos(%d) resolved to row %d", w, id, tab.IntAt(pos, 0))
					}
				case 2: // ordered scan: non-decreasing values, valid positions
					prev := ""
					first := true
					ixo.Scan(false, func(pos int32) bool {
						s := tab.StrAt(pos, 2)
						if !first && s < prev {
							t.Errorf("reader %d: ordered scan went backwards", w)
							return false
						}
						prev, first = s, false
						return true
					})
				case 3: // views and statistics on a consistent snapshot
					grp := tab.Col(1)
					var sum, want int64
					for pos := 0; pos < grp.Len(); pos++ {
						sum += grp.Int(int32(pos))
						want += int64(int32(pos) % 7)
					}
					if sum != want {
						t.Errorf("reader %d: view sum %d, want %d", w, sum, want)
					}
					st := tab.Stats()
					if st.Rows < 500 || st.Col(1).NDV > 7 {
						t.Errorf("reader %d: stats rows=%d ndv=%d", w, st.Rows, st.Col(1).NDV)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: everything must be exact.
	tab.Compact()
	if tab.NumRows() != rows || tab.SealedRows() != rows {
		t.Fatalf("rows = %d sealed = %d, want %d", tab.NumRows(), tab.SealedRows(), rows)
	}
	for pos := int32(0); pos < rows; pos++ {
		if !reflect.DeepEqual(tab.Row(pos), expectRow(pos)) {
			t.Fatalf("row %d diverges after quiesce", pos)
		}
	}
}

// TestCompactEquivalence interleaves inserts and Compacts and checks
// that every read path stays byte-identical to the reference row store
// throughout: positions are stable across Compact, indexes and
// statistics fold their pending state in without drift.
func TestCompactEquivalence(t *testing.T) {
	tab, ref := genPair(11, 300)
	if _, err := tab.CreateHashIndex("grp"); err != nil {
		t.Fatal(err)
	}
	ixo, err := tab.CreateOrderedIndex("desc")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	vocab := []string{"mRNA", "enzyme variant", "compacted token", "zinc finger protein"}
	check := func(stage string) {
		t.Helper()
		if tab.NumRows() != len(ref.rows) {
			t.Fatalf("%s: rows %d, want %d", stage, tab.NumRows(), len(ref.rows))
		}
		for pos, r := range ref.rows {
			if !reflect.DeepEqual(tab.Row(int32(pos)), r) {
				t.Fatalf("%s: row %d diverges", stage, pos)
			}
		}
		ix, _ := tab.HashIndexOn("grp")
		for g := int64(0); g < 7; g++ {
			got := append([]int32(nil), ix.LookupInt(g)...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if want := ref.lookup(1, IntVal(g)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: probe grp=%d diverges: %v vs %v", stage, g, got, want)
			}
		}
		var asc []int32
		ixo.Scan(false, func(pos int32) bool { asc = append(asc, pos); return true })
		if want := ref.orderedPerm(2); !reflect.DeepEqual(asc, want) {
			t.Fatalf("%s: ordered scan diverges", stage)
		}
		st := tab.Stats()
		for c := range ref.schema.Cols {
			got, want := st.Col(c), ref.stats(c)
			if got.NDV != want.NDV || got.Min != want.Min || got.Max != want.Max ||
				!reflect.DeepEqual(got.Freq, want.Freq) ||
				!reflect.DeepEqual(got.TokenFreq, want.TokenFreq) {
				t.Fatalf("%s: stats col %d diverge from row-store pass", stage, c)
			}
		}
	}
	check("initial")
	next := int64(1000)
	for round := 0; round < 4; round++ {
		for i := 0; i < 37; i++ {
			r := Row{IntVal(next), IntVal(int64(rng.Intn(7))), StrVal(vocab[rng.Intn(len(vocab))])}
			next++
			if err := tab.Insert(r); err != nil {
				t.Fatal(err)
			}
			ref.insert(r)
		}
		check(fmt.Sprintf("round %d pre-compact", round))
		sealed := tab.SealedRows()
		tab.Compact()
		if tab.SealedRows() != tab.NumRows() || tab.SealedRows() <= sealed {
			t.Fatalf("round %d: compact left sealed=%d of %d", round, tab.SealedRows(), tab.NumRows())
		}
		if db := tab.DeltaBytes(); db != 0 {
			t.Fatalf("round %d: DeltaBytes = %d after Compact, want 0", round, db)
		}
		check(fmt.Sprintf("round %d post-compact", round))
	}
}

// genPairBytes recomputes from the rows alone what ApproxBytes and
// DeltaBytes must report for a genPair table whose first sealed rows
// are compacted, with a hash index on grp and an ordered index on desc
// that no reader has flushed since: sealed ID and grp cells at the
// packed widths idW and grpW, 8 bytes per delta int cell, 4 per desc
// code, 40 bytes plus the payload per distinct string, 12 per primary
// key, 16 per hash key plus 4 per posting (sealed map and pending map
// counted apart), and 4 per ordered-index entry.
func genPairBytes(rows []Row, sealed int, idW, grpW int64) (total, delta int64) {
	nd := int64(len(rows) - sealed)
	total = int64(sealed)*(idW+grpW) + nd*(8+8) + int64(len(rows))*4
	delta = nd * (8 + 8 + 4)
	seen := map[string]bool{}
	sealedKeys, pendKeys := map[int64]bool{}, map[int64]bool{}
	for i, r := range rows {
		if s := r[2].Str; !seen[s] {
			seen[s] = true
			total += 16 + int64(len(s)) + 24
			if i >= sealed {
				delta += 16 + int64(len(s)) + 24
			}
		}
		keys := sealedKeys
		if i >= sealed {
			keys = pendKeys
			delta += 12 + 4 + 4 // pending primary key, hash posting, ordered entry
		}
		keys[r[1].Int] = true
		total += 12 + 4 + 4 // primary key, hash posting, ordered entry
	}
	total += 16 * int64(len(sealedKeys)+len(pendKeys))
	delta += 16 * int64(len(pendKeys))
	return total, delta
}

// TestApproxBytesDelta checks that memory reporting is exact under
// writes: delta buffers and pending-merge state are counted at their
// int64 width while uncompacted, and Compact re-packs every TInt
// column at the width its merged range needs.
func TestApproxBytesDelta(t *testing.T) {
	tab, ref := genPair(13, 400)
	if _, err := tab.CreateHashIndex("grp"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateOrderedIndex("desc"); err != nil {
		t.Fatal(err)
	}
	tab.Compact()
	check := func(stage string, sealed int, idW, grpW int64) {
		t.Helper()
		total, delta := genPairBytes(ref.rows, sealed, idW, grpW)
		if got := tab.ApproxBytes(); got != total {
			t.Fatalf("%s: ApproxBytes = %d, want %d", stage, got, total)
		}
		if got := tab.DeltaBytes(); got != delta {
			t.Fatalf("%s: DeltaBytes = %d, want %d", stage, got, delta)
		}
	}
	// ID 0..399 spans 9 bits (2 bytes), grp 0..6 fits one byte.
	check("sealed", 400, 2, 1)
	for i := 0; i < 50; i++ {
		r := Row{IntVal(int64(70000 + i)), IntVal(int64(i % 7)), StrVal(fmt.Sprintf("fresh string %d", i))}
		tab.MustInsert(r...)
		ref.insert(r)
	}
	check("delta", 400, 2, 1)
	// ID 0..70049 needs 17 bits: Compact widens the column to 4 bytes.
	tab.Compact()
	check("compacted", 450, 4, 1)
}

// TestDictionaryGrowthProperty is the property test for dictionary
// round-tripping under growth: while a writer interleaves appends of
// new and repeated strings, readers continuously verify that codes
// never alias (two strings sharing a code), never reorder (a string's
// code never changes once assigned), and always round-trip through
// StrAt/CodeAt. Run with -race in CI.
func TestDictionaryGrowthProperty(t *testing.T) {
	s := MustSchema("Dict", []Column{{Name: "s", Type: TString}}, "")
	tab := NewTable(s)
	// strFor is the deterministic string at row pos: every third row
	// repeats an earlier value, the rest are fresh.
	strFor := func(pos int32) string {
		if pos%3 == 1 && pos > 3 {
			return fmt.Sprintf("dict entry %d", (pos-1)/3)
		}
		return fmt.Sprintf("dict entry %d", pos)
	}
	const rows = 4000
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for pos := int32(0); pos < rows; pos++ {
			tab.MustInsert(StrVal(strFor(pos)))
			if pos%997 == 0 {
				tab.Compact()
			}
		}
	}()
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			codeOf := map[string]uint32{} // reader-local: string -> first observed code
			posCode := map[int32]uint32{} // reader-local: pos -> first observed code
			strOf := map[uint32]string{}  // reader-local: code -> string
			for !done.Load() {
				n := int32(tab.NumRows())
				for pos := int32(w); pos < n; pos += 3 {
					s := tab.StrAt(pos, 0)
					c := tab.CodeAt(pos, 0)
					if want := strFor(pos); s != want {
						t.Errorf("reader %d: StrAt(%d) = %q, want %q", w, pos, s, want)
						return
					}
					if prev, ok := codeOf[s]; ok && prev != c {
						t.Errorf("reader %d: string %q changed code %d -> %d", w, s, prev, c)
						return
					}
					codeOf[s] = c
					if prev, ok := posCode[pos]; ok && prev != c {
						t.Errorf("reader %d: pos %d changed code %d -> %d", w, pos, prev, c)
						return
					}
					posCode[pos] = c
					if prev, ok := strOf[c]; ok && prev != s {
						t.Errorf("reader %d: code %d aliases %q and %q", w, c, prev, s)
						return
					}
					strOf[c] = s
					// lookup must agree with the cell's code.
					if got, err := tab.Lookup("s", StrVal(s)); err != nil || len(got) == 0 {
						t.Errorf("reader %d: Lookup(%q) = %v, %v", w, s, got, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Quiesced: full bijection check.
	tab.Compact()
	byCode := map[uint32]string{}
	byStr := map[string]uint32{}
	for pos := int32(0); pos < rows; pos++ {
		s, c := tab.StrAt(pos, 0), tab.CodeAt(pos, 0)
		if s != strFor(pos) {
			t.Fatalf("pos %d: %q, want %q", pos, s, strFor(pos))
		}
		if prev, ok := byCode[c]; ok && prev != s {
			t.Fatalf("code %d aliases %q and %q", c, prev, s)
		}
		if prev, ok := byStr[s]; ok && prev != c {
			t.Fatalf("string %q has codes %d and %d", s, prev, c)
		}
		byCode[c], byStr[s] = s, c
	}
}

// FuzzDictionaryRoundTrip fuzzes interleaved appends and reads over
// arbitrary string payloads: after inserting each string the cell must
// round-trip, codes must stay stable, and equal strings must share a
// code while distinct strings must not.
func FuzzDictionaryRoundTrip(f *testing.F) {
	f.Add([]byte("enzyme\x00enzyme\x00mRNA"), uint8(1))
	f.Add([]byte("a\x00b\x00a\x00c\x00\x00c"), uint8(3))
	f.Add([]byte(""), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, compactEvery uint8) {
		// Split the fuzz payload into strings on NUL bytes.
		var vals []string
		start := 0
		for i := 0; i <= len(raw); i++ {
			if i == len(raw) || raw[i] == 0 {
				vals = append(vals, string(raw[start:i]))
				start = i + 1
			}
		}
		s := MustSchema("Fz", []Column{{Name: "s", Type: TString}}, "")
		tab := NewTable(s)
		codeOf := map[string]uint32{}
		for i, v := range vals {
			tab.MustInsert(StrVal(v))
			pos := int32(i)
			if got := tab.StrAt(pos, 0); got != v {
				t.Fatalf("StrAt(%d) = %q, want %q", pos, got, v)
			}
			c := tab.CodeAt(pos, 0)
			if prev, ok := codeOf[v]; ok {
				if prev != c {
					t.Fatalf("string %q changed code %d -> %d", v, prev, c)
				}
			} else {
				for other, oc := range codeOf {
					if oc == c {
						t.Fatalf("code %d aliases %q and %q", c, other, v)
					}
				}
				codeOf[v] = c
			}
			if compactEvery > 0 && i%int(compactEvery) == 0 {
				tab.Compact()
			}
			// Earlier rows must be untouched by the append.
			if i > 0 {
				probe := int32(i / 2)
				if got := tab.StrAt(probe, 0); got != vals[probe] {
					t.Fatalf("append of row %d disturbed row %d: %q vs %q", i, probe, got, vals[probe])
				}
			}
		}
		// Lookup agrees with the recorded codes for every distinct value.
		for v, c := range codeOf {
			got, ok := tab.dict.lookup(v)
			if !ok || got != c {
				t.Fatalf("dict.lookup(%q) = %d,%v, want %d", v, got, ok, c)
			}
		}
	})
}
