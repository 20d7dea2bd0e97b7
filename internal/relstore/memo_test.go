package relstore

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// countingPred counts the EvalAt calls that reach the wrapped predicate.
type countingPred struct {
	Pred
	calls atomic.Int64
}

func (c *countingPred) EvalAt(t *Table, pos int32) bool {
	c.calls.Add(1)
	return c.Pred.EvalAt(t, pos)
}

// memoTable returns a Protein-shaped table of n rows whose desc holds
// one or two of three keywords, so ct('enzyme') is true on some rows
// and false on others.
func memoTable(t *testing.T, seed int64, n int) *Table {
	t.Helper()
	words := []string{"enzyme", "kinase", "protein"}
	rng := rand.New(rand.NewSource(seed))
	tab := NewTable(proteinSchema(t))
	for i := 0; i < n; i++ {
		desc := words[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			desc += " " + words[rng.Intn(3)]
		}
		tab.MustInsert(IntVal(int64(i)), StrVal(desc))
	}
	return tab
}

func TestMemoMatchesInner(t *testing.T) {
	const n = 1003 // not a multiple of the 16 rows a word holds
	tab := memoTable(t, 1, n)
	inner := &countingPred{Pred: Or(MustContains(tab.Schema, "desc", "enzyme"), MustEq(tab.Schema, "ID", IntVal(7)))}
	m := Memo(tab, inner)
	order := rand.New(rand.NewSource(2)).Perm(n)
	var holds int
	for pass := 0; pass < 2; pass++ {
		for _, pos := range order {
			got, want := m.EvalAt(tab, int32(pos)), inner.Pred.EvalAt(tab, int32(pos))
			if got != want {
				t.Fatalf("pass %d row %d: memo %v, inner %v", pass, pos, got, want)
			}
			if got && pass == 0 {
				holds++
			}
		}
	}
	if holds == 0 || holds == n {
		t.Fatalf("predicate holds on %d of %d rows; the test needs both verdicts", holds, n)
	}
	if c := inner.calls.Load(); c != n {
		t.Errorf("inner predicate ran %d times over two passes of %d rows, want %d", c, n, n)
	}
	if m.String() != inner.String() || m.Sel(tab) != inner.Sel(tab) || m.Eval(tab.Row(3)) != inner.Eval(tab.Row(3)) {
		t.Error("Eval, Sel or String do not delegate to the inner predicate")
	}
}

func TestMemoFallback(t *testing.T) {
	const n = 40
	tab := memoTable(t, 3, n)
	other := memoTable(t, 4, n)
	inner := &countingPred{Pred: MustContains(tab.Schema, "desc", "enzyme")}
	m := Memo(tab, inner)
	for pos := int32(0); pos < n; pos++ {
		m.EvalAt(tab, pos)
		m.EvalAt(tab, pos)
	}
	if c := inner.calls.Load(); c != n {
		t.Fatalf("inner predicate ran %d times over %d rows evaluated twice, want %d", c, n, n)
	}

	// Rows appended after Memo: every call reaches the inner predicate.
	tab.MustInsert(IntVal(n), StrVal("enzyme"))
	tab.MustInsert(IntVal(n+1), StrVal("kinase"))
	before := inner.calls.Load()
	for i := 0; i < 2; i++ {
		if !m.EvalAt(tab, n) || m.EvalAt(tab, n+1) {
			t.Fatal("appended rows got the wrong verdict")
		}
	}
	if c := inner.calls.Load() - before; c != 4 {
		t.Errorf("appended rows reached the inner predicate %d times, want 4", c)
	}

	// Another table: every position is evaluated against that table,
	// not read from the memo of tab.
	before = inner.calls.Load()
	for pos := int32(0); pos < n; pos++ {
		if got, want := m.EvalAt(other, pos), inner.Pred.EvalAt(other, pos); got != want {
			t.Fatalf("other table row %d: memo %v, inner %v", pos, got, want)
		}
	}
	if c := inner.calls.Load() - before; c != n {
		t.Errorf("other table reached the inner predicate %d times, want %d", c, n)
	}
	// The two tables disagree somewhere, or the check above proves nothing.
	differ := false
	for pos := int32(0); pos < n; pos++ {
		differ = differ || inner.Pred.EvalAt(tab, pos) != inner.Pred.EvalAt(other, pos)
	}
	if !differ {
		t.Fatal("tables agree on every row; pick other seeds")
	}
}

func TestMemoEvaluatesOncePerRow(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 257} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			tab := memoTable(t, int64(n), n)
			inner := &countingPred{Pred: MustContains(tab.Schema, "desc", "kinase")}
			m := Memo(tab, inner)
			for rep := 0; rep < 5; rep++ {
				for pos := n - 1; pos >= 0; pos-- {
					m.EvalAt(tab, int32(pos))
				}
			}
			if c := inner.calls.Load(); c != int64(n) {
				t.Errorf("inner predicate ran %d times for %d rows, want once per row", c, n)
			}
		})
	}
}

func TestMemoConcurrent(t *testing.T) {
	const n, workers = 2000, 8
	tab := memoTable(t, 5, n)
	inner := &countingPred{Pred: MustContains(tab.Schema, "desc", "protein")}
	want := make([]bool, n)
	for pos := range want {
		want[pos] = inner.Pred.EvalAt(tab, int32(pos))
	}
	m := Memo(tab, inner)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, pos := range rand.New(rand.NewSource(seed)).Perm(n) {
				if m.EvalAt(tab, int32(pos)) != want[pos] {
					errs <- fmt.Sprintf("worker %d: row %d wrong verdict", seed, pos)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// Racing workers may each evaluate a row once; afterwards every row
	// is known and a full pass runs the inner predicate not at all.
	if c := inner.calls.Load(); c < n || c > n*workers {
		t.Errorf("inner predicate ran %d times, want between %d and %d", c, n, n*workers)
	}
	before := inner.calls.Load()
	for pos := int32(0); pos < n; pos++ {
		if m.EvalAt(tab, pos) != want[pos] {
			t.Fatalf("row %d wrong verdict after the concurrent fill", pos)
		}
	}
	if c := inner.calls.Load() - before; c != 0 {
		t.Errorf("a pass after the concurrent fill ran the inner predicate %d times, want 0", c)
	}
}
