// Tests for the storage-maintenance policies: the automatic
// compaction trigger (DeltaBytes vs ApproxBytes) and the truncation of
// the applied-edge log below the minimum live searcher cursor.
package toposearch

import (
	"fmt"
	"testing"
)

func maintenanceBatch(n, tag int) []Update {
	var ups []Update
	for i := 0; i < n; i++ {
		p := int64(1_800_000 + tag*1000 + i)
		ups = append(ups,
			InsertEntity(Protein, p, map[string]string{"desc": fmt.Sprintf("maintenance protein %d-%d", tag, i)}),
			InsertRelationship("encodes", p, int64(2_000_000+i%20)),
		)
	}
	return ups
}

func TestAutoCompactPolicy(t *testing.T) {
	db, err := Synthetic(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	db.Compact() // the generator's bulk load leaves pending write state behind
	if d := db.rel.DeltaBytes(); d != 0 {
		t.Fatalf("compacted database has DeltaBytes %d, want 0", d)
	}

	// Policy off: applied rows stay in the delta structures.
	if err := db.ApplyBatch(maintenanceBatch(8, 0)); err != nil {
		t.Fatal(err)
	}
	if d := db.rel.DeltaBytes(); d == 0 {
		t.Fatal("batch with auto-compaction off left no delta state; the policy test cannot observe anything")
	}

	// An effectively-zero threshold compacts right after the batch.
	db.SetAutoCompact(1e-9)
	if err := db.ApplyBatch(maintenanceBatch(8, 1)); err != nil {
		t.Fatal(err)
	}
	if d := db.rel.DeltaBytes(); d != 0 {
		t.Fatalf("DeltaBytes %d after auto-compacting batch, want 0", d)
	}

	// A huge threshold never fires.
	db.SetAutoCompact(0.99)
	if err := db.ApplyBatch(maintenanceBatch(8, 2)); err != nil {
		t.Fatal(err)
	}
	if d := db.rel.DeltaBytes(); d == 0 {
		t.Fatal("DeltaBytes 0 after batch under a 99% threshold; the policy fired when it should not have")
	}
}

// TestAutoCompactAfterShrinkingCompact pins the policy's cached total to
// the post-compaction footprint. Compact re-packs the delta's int64
// cells at their sealed widths, so the total shrinks; a cache still
// holding the pre-compaction total makes the cheap prefilter skip a
// compaction the exact check demands. The threshold sits between the
// two totals, which a twin database from the same seed measures first.
func TestAutoCompactAfterShrinkingCompact(t *testing.T) {
	open := func() *DB {
		db, err := Synthetic(1, 42)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	twin := open()
	if err := twin.ApplyBatch(maintenanceBatch(8, 0)); err != nil {
		t.Fatal(err)
	}
	before := twin.rel.ApproxBytes()
	if err := twin.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := twin.ApplyBatch(maintenanceBatch(8, 1)); err != nil {
		t.Fatal(err)
	}
	d, after := twin.rel.DeltaBytes(), twin.rel.ApproxBytes()
	if after >= before {
		t.Fatalf("footprint %d after compaction and a batch is not below %d before it; the totals cannot be told apart", after, before)
	}
	// d > frac*after, and d < frac*before.
	frac := 2 * float64(d) / float64(before+after)

	db := open()
	db.SetAutoCompact(frac)
	// The bulk load left every row in the delta, so the first batch
	// measures the pre-compaction total and compacts.
	if err := db.ApplyBatch(maintenanceBatch(8, 0)); err != nil {
		t.Fatal(err)
	}
	if got := db.rel.DeltaBytes(); got != 0 {
		t.Fatalf("DeltaBytes %d after the first batch, want it auto-compacted", got)
	}
	if err := db.ApplyBatch(maintenanceBatch(8, 1)); err != nil {
		t.Fatal(err)
	}
	if got := db.rel.DeltaBytes(); got != 0 {
		t.Fatalf("DeltaBytes %d exceeds %.2g of the %d-byte footprint but was not auto-compacted", got, frac, db.rel.ApproxBytes())
	}
}

func TestLogTruncatedBelowMinSearcherCursor(t *testing.T) {
	db, err := Synthetic(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SearcherConfig{MaxLen: 2, PruneThreshold: 8, MaxCombinations: 1024, Parallelism: 2}
	s1, err := db.NewSearcher(Protein, DNA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.NewSearcher(Protein, Unigene, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const edges = 8
	if err := db.ApplyBatch(maintenanceBatch(edges, 0)); err != nil {
		t.Fatal(err)
	}
	if got := db.log.Retained(); got != edges {
		t.Fatalf("log retains %d edges after batch, want %d", got, edges)
	}

	// One searcher refreshing does not allow truncation: the other
	// still needs the edges.
	if _, err := s1.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := db.log.Retained(); got != edges {
		t.Fatalf("log retains %d edges while a searcher lags, want %d", got, edges)
	}

	// Once every live searcher has absorbed them the records go away.
	if _, err := s2.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := db.log.Retained(); got != 0 {
		t.Fatalf("log retains %d edges after all searchers refreshed, want 0", got)
	}

	// Closing a lagging searcher releases its claim.
	if err := db.ApplyBatch(maintenanceBatch(edges, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := db.log.Retained(); got != edges {
		t.Fatalf("log retains %d edges while the lagging searcher is open, want %d", got, edges)
	}
	s2.Close()
	if got := db.log.Retained(); got != 0 {
		t.Fatalf("log retains %d edges after the lagging searcher closed, want 0", got)
	}
	// Refreshing a closed searcher is a harmless no-op.
	if n, err := s2.Refresh(); err != nil || n != 0 {
		t.Fatalf("Refresh on a closed searcher = (%d, %v), want (0, nil)", n, err)
	}
	// The surviving searcher keeps refreshing normally.
	if err := db.ApplyBatch(maintenanceBatch(edges, 2)); err != nil {
		t.Fatal(err)
	}
	if n, err := s1.Refresh(); err != nil || n != edges {
		t.Fatalf("Refresh after close = (%d, %v), want (%d, nil)", n, err, edges)
	}
	if got := db.log.Retained(); got != 0 {
		t.Fatalf("log retains %d edges with one live refreshed searcher, want 0", got)
	}
}
