package relstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// Storage-engine benchmarks (run with -benchmem; CI runs them once per
// push). BenchmarkScan/rowstore replays the pre-columnar access pattern
// — one materialized []Value row per visited tuple — against the
// columnar engine's positional path, so the allocs/op reduction of the
// columnar layout stays visible release over release.

const benchRows = 20000

func benchTable(b *testing.B) *Table {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	s := MustSchema("Bench", []Column{
		{Name: "ID", Type: TInt},
		{Name: "grp", Type: TInt},
		{Name: "desc", Type: TString},
	}, "ID")
	vocab := make([]string, 64)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("protein enzyme variant %d hypothetical domain", i)
	}
	t := NewTable(s)
	for i := 0; i < benchRows; i++ {
		t.MustInsert(IntVal(int64(i)), IntVal(int64(rng.Intn(97))), StrVal(vocab[rng.Intn(len(vocab))]))
	}
	return t
}

// widthBenchCases seal the v column of widthBenchTable at each packed
// width by the span of its values; "delta" leaves the last tenth of a
// u16 table's rows uncompacted, so reads cross into the int64 tail.
var widthBenchCases = []struct {
	name string
	span int64
	tail int
}{
	{"u8", 1 << 7, 0},
	{"u16", 1 << 15, 0},
	{"u32", 1 << 31, 0},
	{"int64", 1 << 40, 0},
	{"delta", 1 << 15, benchRows / 10},
}

// widthBenchTable holds benchRows rows of (ID, v) with v drawn from
// [1e6, 1e6+span), sealed by Compact except for the last tail rows, and
// returns a sample of 97 values that occur in v.
func widthBenchTable(b *testing.B, span int64, tail int) (*Table, []int64) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	t := NewTable(MustSchema("Width", []Column{{Name: "ID", Type: TInt}, {Name: "v", Type: TInt}}, "ID"))
	probes := make([]int64, 0, 97)
	for i := 0; i < benchRows; i++ {
		if i == benchRows-tail {
			t.Compact()
		}
		v := 1_000_000 + rng.Int63n(span)
		if len(probes) < cap(probes) {
			probes = append(probes, v)
		}
		t.MustInsert(IntVal(int64(i)), IntVal(v))
	}
	if tail == 0 {
		t.Compact()
	}
	return t, probes
}

// BenchmarkScan measures a predicate scan of the desc column: the
// columnar positional path (EvalAt, no materialization), materializing
// into one reusable buffer (AppendRow), and the row-store pattern of
// materializing every tuple. The per-width cases scan an integer
// equality predicate over a packed column at each sealed width.
func BenchmarkScan(b *testing.B) {
	for _, wc := range widthBenchCases {
		t, probes := widthBenchTable(b, wc.span, wc.tail)
		pred := MustEq(t.Schema, "v", IntVal(probes[0]))
		want, err := t.Lookup("v", IntVal(probes[0]))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(wc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				n := 0
				t.ScanPos(func(pos int32) bool {
					if pred.EvalAt(t, pos) {
						n++
					}
					return true
				})
				if n != len(want) {
					b.Fatal("wrong hit count")
				}
			}
		})
	}
	t := benchTable(b)
	pred := MustContains(t.Schema, "desc", "enzyme")
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			t.ScanPos(func(pos int32) bool {
				if pred.EvalAt(t, pos) {
					n++
				}
				return true
			})
			if n != benchRows {
				b.Fatal("wrong hit count")
			}
		}
	})
	b.Run("scanbuf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			var buf Row
			t.ScanPos(func(pos int32) bool {
				buf = t.AppendRow(buf[:0], pos)
				if pred.Eval(buf) {
					n++
				}
				return true
			})
			if n != benchRows {
				b.Fatal("wrong hit count")
			}
		}
	})
	b.Run("rowstore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for pos := int32(0); pos < int32(t.NumRows()); pos++ {
				if pred.Eval(t.Row(pos)) { // materializes, as the row store did
					n++
				}
			}
			if n != benchRows {
				b.Fatal("wrong hit count")
			}
		}
	})
}

// BenchmarkHashProbe measures equality-index probes: the int64-keyed
// index probed by Value and by raw key, plus the dictionary-code probe
// of a string column. The per-width cases probe a packed column's index
// and read back the matched cells, as an index join does.
func BenchmarkHashProbe(b *testing.B) {
	for _, wc := range widthBenchCases {
		t, probes := widthBenchTable(b, wc.span, wc.tail)
		ix, err := t.CreateHashIndex("v")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(wc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sum int64
			i := 0
			for b.Loop() {
				for _, pos := range ix.LookupInt(probes[i%len(probes)]) {
					sum += t.IntAt(pos, 1)
				}
				i++
			}
			if sum == 0 {
				b.Fatal("probes matched nothing")
			}
		})
	}
	t := benchTable(b)
	grp, err := t.CreateHashIndex("grp")
	if err != nil {
		b.Fatal(err)
	}
	desc, err := t.CreateHashIndex("desc")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("int", func(b *testing.B) {
		b.ReportAllocs()
		var hits int
		for i := 0; i < b.N; i++ {
			hits += len(grp.Lookup(IntVal(int64(i % 97))))
		}
	})
	b.Run("intraw", func(b *testing.B) {
		b.ReportAllocs()
		var hits int
		for i := 0; i < b.N; i++ {
			hits += len(grp.LookupInt(int64(i % 97)))
		}
	})
	b.Run("string", func(b *testing.B) {
		probe := StrVal("protein enzyme variant 7 hypothetical domain")
		b.ReportAllocs()
		var hits int
		for i := 0; i < b.N; i++ {
			hits += len(desc.Lookup(probe))
		}
	})
}

// BenchmarkBuildStore measures the load path: inserting rows with
// duplicated string payloads into a fresh table (dictionary interning
// included), then building the primary indexes.
func BenchmarkBuildStore(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	vocab := make([]string, 64)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("protein enzyme variant %d hypothetical domain", i)
	}
	rows := make([]Row, benchRows)
	for i := range rows {
		rows[i] = Row{IntVal(int64(i)), IntVal(int64(rng.Intn(97))), StrVal(vocab[rng.Intn(len(vocab))])}
	}
	s := MustSchema("BenchBuild", []Column{
		{Name: "ID", Type: TInt},
		{Name: "grp", Type: TInt},
		{Name: "desc", Type: TString},
	}, "ID")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := NewTable(s)
		for _, r := range rows {
			if err := t.Insert(r); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := t.CreateHashIndex("grp"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchRows), "rows")
}
