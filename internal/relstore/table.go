package relstore

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"toposearch/internal/fault"
)

// Injection points at the storage engine's write seams (no-ops unless
// a chaos harness arms them; see internal/fault).
var (
	faultInsert     = fault.Register("relstore.insert")
	faultCompact    = fault.Register("relstore.compact")
	faultCompactMid = fault.Register("relstore.compact.mid")
)

// sealedColumn is the immutable sealed storage of one attribute, indexed
// by row position. TInt columns are frame-of-reference packed at the
// narrowest width their values allow (see packed); TString columns
// store 32-bit codes into the table's shared string dictionary, so
// duplicated string payloads (descriptions, type tags) are stored once
// per distinct value rather than once per row.
type sealedColumn struct {
	ints  packed   // TInt values, one per row
	codes []uint32 // TString dictionary codes, one per row
}

// column is the delta append buffer of one attribute: plain typed
// arrays, so an Insert is one append per cell.
type column struct {
	ints  []int64  // TInt values, one per row
	codes []uint32 // TString dictionary codes, one per row
}

// tableState is one published snapshot of the table's storage: the
// sealed base arrays, the delta append buffers layered on top of them,
// and the string dictionary. Row positions are global — position p is
// base row p when p < sealed and delta row p-sealed otherwise — and
// stay stable across Compact, so index entries and statistics survive
// a delta merge untouched.
//
// Snapshot discipline: the base arrays are immutable. The delta arrays
// and the dictionary are append-only; a writer (serialized by the
// table's write lock) appends new cells and publishes a fresh
// tableState with longer lengths. A reader's loaded snapshot never
// sees indices beyond its own lengths, so in-place growth of a shared
// backing array is invisible to it, and reallocation leaves the old
// array intact. Readers therefore never lock.
type tableState struct {
	sealed int32          // rows in the sealed base arrays
	nrows  int32          // total rows (sealed + delta)
	base   []sealedColumn // sealed columnar arrays; never mutated
	delta  []column       // delta append buffers (see snapshot discipline)
	strs   []string       // dictionary code -> string
	// sealedStrs counts the dictionary entries that existed at the last
	// Compact; the tail strs[sealedStrs:] is delta-era growth, reported
	// separately by ApproxBytes.
	sealedStrs int
}

func (st *tableState) intAt(pos int32, c int) int64 {
	if pos < st.sealed {
		return st.base[c].ints.at(pos)
	}
	return st.delta[c].ints[pos-st.sealed]
}

func (st *tableState) codeAt(pos int32, c int) uint32 {
	if pos < st.sealed {
		return st.base[c].codes[pos]
	}
	return st.delta[c].codes[pos-st.sealed]
}

func (st *tableState) strAt(pos int32, c int) string {
	return st.strs[st.codeAt(pos, c)]
}

// valueAt materializes the cell at (pos, col c) within this snapshot.
func (st *tableState) valueAt(s *Schema, pos int32, c int) Value {
	if s.Cols[c].Type == TInt {
		return Value{Kind: TInt, Int: st.intAt(pos, c)}
	}
	return Value{Kind: TString, Str: st.strAt(pos, c)}
}

// compareValueAt orders the cell of column c at pos against v within
// this snapshot, with the same cross-kind ordering as Value.Compare.
func (st *tableState) compareValueAt(s *Schema, c int, pos int32, v Value) int {
	return st.valueAt(s, pos, c).Compare(v)
}

// compareAt orders the cells of column c at row positions a and b
// within this snapshot.
func (st *tableState) compareAt(s *Schema, c int, a, b int32) int {
	if s.Cols[c].Type == TInt {
		x, y := st.intAt(a, c), st.intAt(b, c)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	ca, cb := st.codeAt(a, c), st.codeAt(b, c)
	if ca == cb {
		return 0 // codes are equality-preserving
	}
	return strings.Compare(st.strs[ca], st.strs[cb])
}

// stringDict is a table-wide string dictionary shared by all TString
// columns. The code->string direction lives in tableState.strs; this
// side holds the string->code intern maps, split like the columns into
// a sealed region (an immutable map read lock-free) and a pending
// region (mutated by writers, read under the mutex). Compact merges
// pending into a fresh sealed map.
type stringDict struct {
	sealed atomic.Pointer[map[string]uint32]
	mu     sync.RWMutex
	pend   map[string]uint32
	npend  atomic.Int32
}

func (d *stringDict) init() {
	m := make(map[string]uint32)
	d.sealed.Store(&m)
}

// intern returns the code for s, assigning the next one when the
// string is new; isNew tells the caller to append s to the snapshot's
// strs array. Only writers call intern (serialized by the table's
// write lock), so the sealed and pending maps can be read plainly.
func (d *stringDict) intern(s string, next uint32) (code uint32, isNew bool) {
	if c, ok := (*d.sealed.Load())[s]; ok {
		return c, false
	}
	if c, ok := d.pend[s]; ok {
		return c, false
	}
	d.mu.Lock()
	if d.pend == nil {
		d.pend = make(map[string]uint32)
	}
	d.pend[s] = next
	d.mu.Unlock()
	d.npend.Add(1)
	return next, true
}

// lookup returns the code of s, or false when s never occurs in the
// table (then no row can match it). Safe for concurrent readers: the
// pending counter is read before the sealed map (observing the seal's
// zero implies the merged map is visible), and the slow path reads the
// sealed pointer and the pending map under one read lock, so a lookup
// racing seal() can never pair a pre-merge sealed map with an
// already-cleared pending map and miss a committed entry.
func (d *stringDict) lookup(s string) (uint32, bool) {
	if d.npend.Load() == 0 {
		c, ok := (*d.sealed.Load())[s]
		return c, ok
	}
	d.mu.RLock()
	c, ok := d.pend[s]
	if !ok {
		c, ok = (*d.sealed.Load())[s]
	}
	d.mu.RUnlock()
	return c, ok
}

// seal merges the pending intern entries into a fresh sealed map
// (writers only, under the table write lock). The sealed-pointer swap
// and the pending clear happen atomically with respect to readers'
// locked slow path.
func (d *stringDict) seal() {
	if d.npend.Load() == 0 {
		return
	}
	old := *d.sealed.Load()
	merged := make(map[string]uint32, len(old)+len(d.pend))
	for s, c := range old {
		merged[s] = c
	}
	for s, c := range d.pend {
		merged[s] = c
	}
	d.mu.Lock()
	d.sealed.Store(&merged)
	d.pend = nil
	d.npend.Store(0)
	d.mu.Unlock()
}

// pkIndex is the primary-key map with the same sealed/pending split as
// the dictionary: probes read the sealed map lock-free and consult the
// pending map only while an uncompacted delta exists.
type pkIndex struct {
	sealed atomic.Pointer[map[int64]int32]
	mu     sync.RWMutex
	pend   map[int64]int32
	npend  atomic.Int32
}

func (ix *pkIndex) init() {
	m := make(map[int64]int32)
	ix.sealed.Store(&m)
}

// has reports whether the key is present (writers may call it plainly;
// readers go through get).
func (ix *pkIndex) has(key int64) bool {
	_, ok := ix.get(key)
	return ok
}

func (ix *pkIndex) get(key int64) (int32, bool) {
	// Same race-free read protocol as stringDict.lookup: counter before
	// sealed pointer, slow path consistent under the read lock.
	if ix.npend.Load() == 0 {
		pos, ok := (*ix.sealed.Load())[key]
		return pos, ok
	}
	ix.mu.RLock()
	pos, ok := ix.pend[key]
	if !ok {
		pos, ok = (*ix.sealed.Load())[key]
	}
	ix.mu.RUnlock()
	return pos, ok
}

func (ix *pkIndex) add(key int64, pos int32) {
	ix.mu.Lock()
	if ix.pend == nil {
		ix.pend = make(map[int64]int32)
	}
	ix.pend[key] = pos
	ix.mu.Unlock()
	ix.npend.Add(1)
}

func (ix *pkIndex) seal() {
	if ix.npend.Load() == 0 {
		return
	}
	old := *ix.sealed.Load()
	merged := make(map[int64]int32, len(old)+len(ix.pend))
	for k, v := range old {
		merged[k] = v
	}
	for k, v := range ix.pend {
		merged[k] = v
	}
	ix.mu.Lock()
	ix.sealed.Store(&merged)
	ix.pend = nil
	ix.npend.Store(0)
	ix.mu.Unlock()
}

// dropPendingAtOrAbove removes pending entries at positions >= limit
// (rollback support; writers only, under the table write lock). Rolled-
// back rows are always un-sealed — the caller serializes Compact
// against the batch — so the sealed map never holds a dropped position.
func (ix *pkIndex) dropPendingAtOrAbove(limit int32) {
	ix.mu.Lock()
	var removed int32
	for k, pos := range ix.pend {
		if pos >= limit {
			delete(ix.pend, k)
			removed++
		}
	}
	ix.mu.Unlock()
	if removed > 0 {
		ix.npend.Add(-removed)
	}
}

func (ix *pkIndex) len() int {
	if ix.npend.Load() == 0 {
		return len(*ix.sealed.Load())
	}
	ix.mu.RLock()
	n := len(*ix.sealed.Load()) + len(ix.pend)
	ix.mu.RUnlock()
	return n
}

// Table is an append-only in-memory relation with optional primary-key,
// hash, and ordered secondary indices.
//
// Storage is columnar and versioned: each column is a sealed typed
// array (frame-of-reference packed integers for TInt, dictionary codes
// for TString) plus a delta append buffer ([]int64 or codes), published
// together as immutable snapshots. Scans walk contiguous memory and a
// tuple is materialized into a Row only by AppendRow (or Row). Hot
// paths read cells through IntAt/StrAt or the Col views and allocate
// nothing per row.
//
// Concurrency contract (the live-update model):
//
//   - Any number of readers may run at any time; they never block.
//   - Insert is safe to run concurrently with readers. Writers are
//     serialized against each other by an internal write lock.
//   - A reader sees a consistent snapshot per access: rows appear
//     atomically in insertion order, and a row's cells never change.
//     Different operators of one query may observe different prefixes
//     of an in-flight insert stream; quiesced states are exact.
//   - Index lookups concurrent with an in-flight Insert may not yet
//     return the newest rows, but never return invalid positions.
//   - Compact merges the delta buffers into the sealed arrays without
//     blocking readers; row positions are stable across Compact.
type Table struct {
	Schema *Schema

	wmu   sync.Mutex // serializes writers: Insert, Compact, index builds
	state atomic.Pointer[tableState]

	dict stringDict
	pk   *pkIndex

	mu      sync.RWMutex // guards hash, ordered registries and stats cache
	hash    map[int]*HashIndex
	ordered map[int]*OrderedIndex

	stats *tableStatsCache // per-column incremental statistics
}

// NewTable creates an empty table for the schema.
func NewTable(s *Schema) *Table {
	t := &Table{
		Schema:  s,
		hash:    make(map[int]*HashIndex),
		ordered: make(map[int]*OrderedIndex),
		stats:   newTableStatsCache(len(s.Cols)),
	}
	t.dict.init()
	if s.KeyCol >= 0 {
		t.pk = &pkIndex{}
		t.pk.init()
	}
	t.state.Store(&tableState{
		base:  make([]sealedColumn, len(s.Cols)),
		delta: make([]column, len(s.Cols)),
	})
	return t
}

// loadState returns the current snapshot.
func (t *Table) loadState() *tableState { return t.state.Load() }

// NumRows returns the current row count.
func (t *Table) NumRows() int { return int(t.loadState().nrows) }

// SealedRows returns how many rows live in the sealed base arrays; the
// remaining NumRows()-SealedRows() rows sit in the delta buffers until
// the next Compact.
func (t *Table) SealedRows() int { return int(t.loadState().sealed) }

// IntAt returns the integer cell at (pos, col c). The column must have
// type TInt.
func (t *Table) IntAt(pos int32, c int) int64 { return t.loadState().intAt(pos, c) }

// StrAt returns the string cell at (pos, col c) without copying. The
// column must have type TString.
func (t *Table) StrAt(pos int32, c int) string { return t.loadState().strAt(pos, c) }

// CodeAt returns the dictionary code of the string cell at (pos, col
// c). Codes are equality-preserving but NOT order-preserving.
func (t *Table) CodeAt(pos int32, c int) uint32 { return t.loadState().codeAt(pos, c) }

// ValueAt materializes the cell at (pos, col c) as a Value. The string
// payload is shared with the dictionary, so this allocates nothing.
func (t *Table) ValueAt(pos int32, c int) Value {
	return t.loadState().valueAt(t.Schema, pos, c)
}

// ColView is a zero-copy read-only view of one column, for tight loops
// that index cells by row position without going through the table. A
// view is a snapshot: rows inserted after Col returns are not visible
// through it (use the table accessors to chase the live tail).
type ColView struct {
	Kind   ColType
	sealed int32
	ints   packed
	dints  []int64
	codes  []uint32
	dcodes []uint32
	strs   []string
}

// Col returns a view of column c.
func (t *Table) Col(c int) ColView {
	st := t.loadState()
	v := ColView{Kind: t.Schema.Cols[c].Type, sealed: st.sealed}
	if v.Kind == TInt {
		v.ints = st.base[c].ints
		v.dints = st.delta[c].ints
	} else {
		v.codes = st.base[c].codes
		v.dcodes = st.delta[c].codes
		v.strs = st.strs
	}
	return v
}

// Len returns the number of rows in the view.
func (v ColView) Len() int {
	if v.Kind == TInt {
		return int(v.sealed) + len(v.dints)
	}
	return int(v.sealed) + len(v.dcodes)
}

// Int returns the integer cell at pos (TInt columns).
func (v ColView) Int(pos int32) int64 {
	if pos < v.sealed {
		return v.ints.at(pos)
	}
	return v.dints[pos-v.sealed]
}

// Code returns the dictionary code at pos (TString columns).
func (v ColView) Code(pos int32) uint32 {
	if pos < v.sealed {
		return v.codes[pos]
	}
	return v.dcodes[pos-v.sealed]
}

// Str returns the string cell at pos (TString columns).
func (v ColView) Str(pos int32) string { return v.strs[v.Code(pos)] }

// Value materializes the cell at pos.
func (v ColView) Value(pos int32) Value {
	if v.Kind == TInt {
		return Value{Kind: TInt, Int: v.Int(pos)}
	}
	return Value{Kind: TString, Str: v.Str(pos)}
}

// appendRowState appends the cells of the row at pos (within st) to dst.
func (t *Table) appendRowState(st *tableState, dst Row, pos int32) Row {
	for c := range t.Schema.Cols {
		if t.Schema.Cols[c].Type == TInt {
			dst = append(dst, Value{Kind: TInt, Int: st.intAt(pos, c)})
		} else {
			dst = append(dst, Value{Kind: TString, Str: st.strAt(pos, c)})
		}
	}
	return dst
}

// AppendRow appends the cells of the row at pos to dst and returns the
// extended slice — the allocation-free way to materialize a tuple into
// a reusable buffer (pass dst[:0] to overwrite a previous row).
func (t *Table) AppendRow(dst Row, pos int32) Row {
	return t.appendRowState(t.loadState(), dst, pos)
}

// Row materializes the row stored at position pos into a fresh Row.
// Position-addressed readers should prefer IntAt/StrAt, Col views, or
// AppendRow with a reusable buffer.
func (t *Table) Row(pos int32) Row {
	return t.AppendRow(make(Row, 0, len(t.Schema.Cols)), pos)
}

// Insert appends a row, maintaining all indices. It rejects rows that
// do not match the schema or that duplicate the primary key. Insert is
// safe to run concurrently with readers; concurrent Inserts serialize
// on the table's write lock. The row lands in the delta buffers until
// the next Compact.
func (t *Table) Insert(r Row) error {
	if err := t.Schema.CheckRow(r); err != nil {
		return err
	}
	// The injection point sits before any mutation: a firing hit (error
	// or panic) rejects the row cleanly, leaving the table untouched —
	// batch-level atomicity is the caller's rollback via TruncateTo.
	if err := faultInsert.Hit(); err != nil {
		return err
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()

	st := t.loadState()
	pos := st.nrows
	if t.pk != nil {
		key := r[t.Schema.KeyCol].Int
		if t.pk.has(key) {
			return fmt.Errorf("relstore: table %q: duplicate primary key %d", t.Schema.Name, key)
		}
	}

	// Build the successor snapshot: same base, delta buffers extended by
	// one cell per column (in-place growth of a shared backing array is
	// invisible to readers holding shorter snapshots), dictionary
	// extended by any newly interned strings.
	ns := &tableState{
		sealed:     st.sealed,
		nrows:      st.nrows + 1,
		base:       st.base,
		delta:      make([]column, len(st.delta)),
		strs:       st.strs,
		sealedStrs: st.sealedStrs,
	}
	copy(ns.delta, st.delta)
	for c := range r {
		if r[c].Kind == TInt {
			ns.delta[c].ints = append(ns.delta[c].ints, r[c].Int)
		} else {
			code, isNew := t.dict.intern(r[c].Str, uint32(len(ns.strs)))
			if isNew {
				ns.strs = append(ns.strs, r[c].Str)
			}
			ns.delta[c].codes = append(ns.delta[c].codes, code)
		}
	}
	t.state.Store(ns)
	if t.pk != nil {
		t.pk.add(r[t.Schema.KeyCol].Int, pos)
	}

	// Incremental index maintenance: the new position lands in each
	// index's pending buffer (merged into the sealed structures by the
	// next Compact). The snapshot is published first, so a concurrent
	// probe that already sees the pending entry can always resolve the
	// position through the table.
	t.mu.RLock()
	for col, ix := range t.hash {
		var key int64
		if t.Schema.Cols[col].Type == TInt {
			key = r[col].Int
		} else {
			key = int64(ns.delta[col].codes[pos-ns.sealed])
		}
		ix.addPending(key, pos)
	}
	for _, ix := range t.ordered {
		ix.add(pos)
	}
	t.mu.RUnlock()
	return nil
}

// MustInsert is Insert that panics on error; for loaders of generated data.
func (t *Table) MustInsert(vals ...Value) {
	if err := t.Insert(Row(vals)); err != nil {
		panic(err)
	}
}

// Compact merges the delta buffers into the sealed base arrays: the
// typed arrays are rewritten once (each TInt column re-packed at the
// width its merged range needs, which may narrow the delta's int64
// cells or widen the sealed ones), the dictionary and primary-key
// pending maps are merged into fresh sealed maps, and every secondary
// index folds its pending entries in. Row positions are stable, so
// statistics and index entries stay valid. Readers are never blocked —
// they keep their snapshots — and Compact serializes with other
// writers. Call it after a burst of Inserts to restore lock-free
// probes and branch-free scans.
func (t *Table) Compact() {
	// A firing error here skips the compaction — a no-op is always a
	// legal outcome of Compact. A panic propagates to the caller's
	// containment boundary with the table untouched.
	if err := faultCompact.Hit(); err != nil {
		return
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()

	st := t.loadState()
	if st.sealed != st.nrows {
		ns := &tableState{
			sealed:     st.nrows,
			nrows:      st.nrows,
			base:       make([]sealedColumn, len(st.base)),
			delta:      make([]column, len(st.base)),
			strs:       st.strs,
			sealedStrs: len(st.strs),
		}
		for c := range st.base {
			if t.Schema.Cols[c].Type == TInt {
				ns.base[c].ints = st.base[c].ints.extend(st.delta[c].ints)
			} else {
				merged := make([]uint32, 0, st.nrows)
				merged = append(merged, st.base[c].codes...)
				merged = append(merged, st.delta[c].codes...)
				ns.base[c].codes = merged
			}
		}
		t.state.Store(ns)
	}

	// Mid-compaction injection: the array merge above has published but
	// the dictionary/index merges below have not run. Every intermediate
	// state is consistent (each merge step is independently atomic and
	// row positions are stable), so a panic here must leave a readable
	// table — exactly what the chaos harness asserts.
	if err := faultCompactMid.Hit(); err != nil {
		return
	}

	t.dict.seal()
	if t.pk != nil {
		t.pk.seal()
	}
	t.mu.RLock()
	for _, ix := range t.hash {
		ix.merge()
	}
	for _, ix := range t.ordered {
		ix.flush()
	}
	t.mu.RUnlock()
}

// TruncateTo rolls the table back to its first n rows — the rollback
// half of batch-atomic application: a mutation batch that fails mid-way
// truncates every touched table to its pre-batch count, leaving no
// trace of the partial batch. Only delta (un-sealed) rows can be
// dropped; the caller guarantees no Compact sealed the doomed rows
// (the DB serializes Compact against mutation batches).
//
// Snapshot discipline under rollback: concurrent readers may hold
// snapshots that include the dropped rows — those snapshots stay fully
// readable (their arrays are never mutated). The successor state
// REBUILDS the delta arrays on fresh backing rather than truncating in
// place, because a future Insert appending into the shared backing
// array would otherwise overwrite cells a mid-batch reader can still
// see. Interned dictionary strings of dropped rows are deliberately
// kept: codes stay consistent, re-inserting the same strings reuses
// them, and an orphan dictionary entry is invisible to queries.
func (t *Table) TruncateTo(n int) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()

	st := t.loadState()
	limit := int32(n)
	if limit >= st.nrows {
		return nil
	}
	if limit < st.sealed {
		return fmt.Errorf("relstore: table %q: cannot truncate to %d below the sealed watermark %d",
			t.Schema.Name, n, st.sealed)
	}

	// Drop the doomed rows' pending primary-key entries (all of them
	// are pending: the rows were never sealed).
	if t.pk != nil {
		t.pk.dropPendingAtOrAbove(limit)
	}

	keep := int(limit - st.sealed)
	ns := &tableState{
		sealed:     st.sealed,
		nrows:      limit,
		base:       st.base,
		delta:      make([]column, len(st.delta)),
		strs:       st.strs,
		sealedStrs: st.sealedStrs,
	}
	for c := range st.delta {
		if len(st.delta[c].ints) > 0 {
			ns.delta[c].ints = append(make([]int64, 0, keep), st.delta[c].ints[:keep]...)
		}
		if len(st.delta[c].codes) > 0 {
			ns.delta[c].codes = append(make([]uint32, 0, keep), st.delta[c].codes[:keep]...)
		}
	}
	t.state.Store(ns)

	t.mu.RLock()
	for _, ix := range t.hash {
		ix.dropAtOrAbove(limit)
	}
	for _, ix := range t.ordered {
		ix.dropAtOrAbove(limit)
	}
	t.mu.RUnlock()

	// Statistics watermarks may cover dropped rows; reset the cache so
	// the next Stats() call rebuilds from the truncated state.
	t.mu.Lock()
	t.stats = newTableStatsCache(len(t.Schema.Cols))
	t.mu.Unlock()
	return nil
}

// keyFor maps a lookup value to the hash-index key space of column c.
// ok=false means no row of the table can equal v (a string absent from
// the dictionary, or a kind mismatch).
func (t *Table) keyFor(c int, v Value) (int64, bool) {
	if t.Schema.Cols[c].Type == TInt {
		if v.Kind != TInt {
			return 0, false
		}
		return v.Int, true
	}
	if v.Kind != TString {
		return 0, false
	}
	code, ok := t.dict.lookup(v.Str)
	return int64(code), ok
}

// compareValueAt orders the cell of column c at pos against v, with the
// same cross-kind ordering as Value.Compare.
func (t *Table) compareValueAt(c int, pos int32, v Value) int {
	return t.ValueAt(pos, c).Compare(v)
}

// PKPos returns the row position of the row with the given primary-key
// value.
func (t *Table) PKPos(id int64) (int32, bool) {
	if t.pk == nil {
		return 0, false
	}
	return t.pk.get(id)
}

// HasPK reports whether a row with the given primary key exists.
func (t *Table) HasPK(id int64) bool {
	if t.pk == nil {
		return false
	}
	return t.pk.has(id)
}

// CreateHashIndex builds (or returns) an equality index on the column.
// It is idempotent and safe to call from concurrent query plans: the
// first caller builds the index under the table's write lock (so no
// concurrent Insert can fall between the build scan and registration),
// later callers get the same index back.
func (t *Table) CreateHashIndex(col string) (*HashIndex, error) {
	c, ok := t.Schema.ColIndex(col)
	if !ok {
		return nil, fmt.Errorf("relstore: table %q: no column %q", t.Schema.Name, col)
	}
	t.mu.RLock()
	ix, have := t.hash[c]
	t.mu.RUnlock()
	if have {
		return ix, nil
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.mu.RLock()
	ix, have = t.hash[c]
	t.mu.RUnlock()
	if have {
		return ix, nil
	}
	st := t.loadState()
	ix = newHashIndex(t, c)
	m := make(map[int64][]int32)
	if t.Schema.Cols[c].Type == TInt {
		for pos := int32(0); pos < st.nrows; pos++ {
			k := st.intAt(pos, c)
			m[k] = append(m[k], pos)
		}
	} else {
		for pos := int32(0); pos < st.nrows; pos++ {
			k := int64(st.codeAt(pos, c))
			m[k] = append(m[k], pos)
		}
	}
	ix.sealed.Store(&m)
	t.mu.Lock()
	t.hash[c] = ix
	t.mu.Unlock()
	return ix, nil
}

// CreateOrderedIndex builds (or returns) an ordered index on the column.
// Like CreateHashIndex it is idempotent under the table's write lock.
func (t *Table) CreateOrderedIndex(col string) (*OrderedIndex, error) {
	c, ok := t.Schema.ColIndex(col)
	if !ok {
		return nil, fmt.Errorf("relstore: table %q: no column %q", t.Schema.Name, col)
	}
	t.mu.RLock()
	ix, have := t.ordered[c]
	t.mu.RUnlock()
	if have {
		return ix, nil
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.mu.RLock()
	ix, have = t.ordered[c]
	t.mu.RUnlock()
	if have {
		return ix, nil
	}
	ix = newOrderedIndex(t, c)
	t.mu.Lock()
	t.ordered[c] = ix
	t.mu.Unlock()
	return ix, nil
}

// HashIndexOn returns the hash index on the column, if one exists.
func (t *Table) HashIndexOn(col string) (*HashIndex, bool) {
	c, ok := t.Schema.ColIndex(col)
	if !ok {
		return nil, false
	}
	t.mu.RLock()
	ix, ok := t.hash[c]
	t.mu.RUnlock()
	return ix, ok
}

// OrderedIndexOn returns the ordered index on the column, if one exists.
func (t *Table) OrderedIndexOn(col string) (*OrderedIndex, bool) {
	c, ok := t.Schema.ColIndex(col)
	if !ok {
		return nil, false
	}
	t.mu.RLock()
	ix, ok := t.ordered[c]
	t.mu.RUnlock()
	return ix, ok
}

// Lookup returns positions of rows whose column equals v, using a hash
// index when available and a column scan otherwise. The fallback walks
// the typed arrays directly: no Value is constructed per row, and for a
// string column the probe is one dictionary lookup plus a code scan.
func (t *Table) Lookup(col string, v Value) ([]int32, error) {
	c, ok := t.Schema.ColIndex(col)
	if !ok {
		return nil, fmt.Errorf("relstore: table %q: no column %q", t.Schema.Name, col)
	}
	t.mu.RLock()
	ix, have := t.hash[c]
	t.mu.RUnlock()
	if have {
		return ix.Lookup(v), nil
	}
	st := t.loadState()
	var out []int32
	if t.Schema.Cols[c].Type == TInt {
		if v.Kind != TInt {
			return nil, nil
		}
		for pos := int32(0); pos < st.nrows; pos++ {
			if st.intAt(pos, c) == v.Int {
				out = append(out, pos)
			}
		}
		return out, nil
	}
	if v.Kind != TString {
		return nil, nil
	}
	code, ok := t.dict.lookup(v.Str)
	if !ok {
		return nil, nil // string never interned: no row can match
	}
	for pos := int32(0); pos < st.nrows; pos++ {
		if st.codeAt(pos, c) == code {
			out = append(out, pos)
		}
	}
	return out, nil
}

// ScanPos visits every row position in insertion order until visit
// returns false, materializing nothing. The scan covers the rows
// present when it started (a snapshot).
func (t *Table) ScanPos(visit func(pos int32) bool) {
	st := t.loadState()
	for pos := int32(0); pos < st.nrows; pos++ {
		if !visit(pos) {
			return
		}
	}
}

// ApproxBytes estimates the storage footprint of the table in bytes:
// the sealed columnar arrays (1, 2, 4 or 8 bytes per TInt cell, the
// width each column's packed frame chose; 4 per TString code), the
// delta append buffers (8 bytes per TInt cell, 4 per TString code),
// the shared string dictionary — sealed and delta-era entries alike
// (header + payload + intern-map entry per distinct string) — the
// primary-key and hash-index entries including their pending-merge
// buffers, and the ordered indexes' permutations plus pending blocks.
// Used to reproduce the paper's space-requirement comparison (Table 1)
// and to keep memory reporting honest while writes are in flight.
func (t *Table) ApproxBytes() int64 {
	st := t.loadState()
	var b int64
	for c := range st.base {
		if t.Schema.Cols[c].Type == TInt {
			b += st.base[c].ints.bytes() + 8*int64(len(st.delta[c].ints))
		} else {
			b += 4 * int64(len(st.base[c].codes)+len(st.delta[c].codes))
		}
	}
	for _, s := range st.strs {
		b += 16 + int64(len(s)) // string header + payload (stored once)
		b += 24                 // intern-map entry (string header + code + overhead)
	}
	if t.pk != nil {
		b += int64(t.pk.len()) * 12
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ix := range t.hash {
		b += ix.approxBytes()
	}
	for _, ix := range t.ordered {
		b += ix.approxBytes()
	}
	return b
}

// DeltaBytes reports the footprint of the not-yet-compacted write
// state alone: delta column buffers (8 bytes per TInt cell, 4 per
// TString code), delta-era dictionary strings, and every pending-merge
// buffer (primary key, hash and ordered indexes). Compact folds all of
// it into the sealed structures, where the TInt cells are re-packed, so
// ApproxBytes can drop by more than DeltaBytes across a Compact.
func (t *Table) DeltaBytes() int64 {
	st := t.loadState()
	var b int64
	for c := range st.delta {
		b += 8*int64(len(st.delta[c].ints)) + 4*int64(len(st.delta[c].codes))
	}
	for _, s := range st.strs[st.sealedStrs:] {
		b += 16 + int64(len(s)) + 24
	}
	if t.pk != nil {
		b += int64(t.pk.npend.Load()) * 12
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ix := range t.hash {
		b += ix.pendingBytes()
	}
	for _, ix := range t.ordered {
		b += ix.pendingBytes()
	}
	return b
}
