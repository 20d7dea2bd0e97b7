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

// BenchmarkScan measures a predicate scan of the desc column: the
// columnar positional path (EvalAt, no materialization), materializing
// into one reusable buffer (AppendRow), and the row-store pattern of
// materializing every tuple.
func BenchmarkScan(b *testing.B) {
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
// of a string column.
func BenchmarkHashProbe(b *testing.B) {
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
