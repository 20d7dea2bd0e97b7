// Package engine is the Volcano-style query execution engine the
// evaluation methods run on. It provides the standard physical
// operators the paper's SQL listings need (scans, index scans, filters,
// hash and index nested-loop joins, anti joins for NOT EXISTS,
// distinct, sort, limit, union) plus the paper's new Distinct Group
// Join (DGJ) operator family (Section 5.3): IDGJ (index nested-loops)
// and HDGJ (group-at-a-time hash join), both supporting the
// AdvanceToNextGroup method that enables early termination inside a
// group, and the DistinctGroups driver that emits one tuple per group
// and stops after k groups.
package engine

import (
	"fmt"

	"toposearch/internal/relstore"
)

// Op is the iterator interface implemented by every physical operator
// (the getNext interface of the Volcano model).
type Op interface {
	// Columns returns the qualified output column names, e.g. "P.ID".
	Columns() []string
	// Open prepares the operator for iteration.
	Open() error
	// Next returns the next output tuple; ok=false signals exhaustion.
	// The returned row may be reused by subsequent calls; callers that
	// retain it must clone.
	Next() (relstore.Row, bool, error)
	// Close releases resources. Close after exhaustion is required;
	// re-Open after Close restarts the iterator.
	Close() error
}

// GroupOp is an Op whose output stream is partitioned into ordered
// groups (property (a) of DGJ operators), exposing the
// advanceToNextGroup method (property (b)).
type GroupOp interface {
	Op
	// AdvanceToNextGroup skips the remainder of the current group so
	// the next call to Next returns the first tuple of the next group.
	AdvanceToNextGroup() error
	// GroupOrdinal returns the zero-based index of the group to which
	// the most recently returned tuple belongs.
	GroupOrdinal() int
}

// Counters tallies physical work, for cost-model validation and the
// experiment harness.
type Counters struct {
	RowsScanned int64 // base-table rows read by scans
	IndexProbes int64 // hash/ordered index lookups
	TuplesOut   int64 // tuples produced by the plan root
	Comparisons int64 // sort comparisons
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.RowsScanned += other.RowsScanned
	c.IndexProbes += other.IndexProbes
	c.TuplesOut += other.TuplesOut
	c.Comparisons += other.Comparisons
}

// Work is the scalar work measure used by the benchmarks: rows scanned
// plus index probes.
func (c Counters) Work() int64 { return c.RowsScanned + c.IndexProbes }

// ColIndex locates a qualified column name in an operator's output.
func ColIndex(op Op, name string) (int, error) {
	for i, c := range op.Columns() {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("engine: no column %q in %v", name, op.Columns())
}

// MustColIndex is ColIndex that panics; for statically known plans.
func MustColIndex(op Op, name string) int {
	i, err := ColIndex(op, name)
	if err != nil {
		panic(err)
	}
	return i
}

// Drain runs an operator to exhaustion and returns all tuples (cloned).
func Drain(op Op) ([]relstore.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []relstore.Row
	for {
		r, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, r.Clone())
	}
}

func qualify(alias string, schema *relstore.Schema) []string {
	cols := make([]string, len(schema.Cols))
	for i, c := range schema.Cols {
		cols[i] = alias + "." + c.Name
	}
	return cols
}

func concatCols(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

func concatRows(dst relstore.Row, a, b relstore.Row) relstore.Row {
	dst = dst[:0]
	dst = append(dst, a...)
	dst = append(dst, b...)
	return dst
}
