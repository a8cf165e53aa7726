// Package storage provides in-memory, row-major physical tables. A Table
// pairs a catalog.TableDef with its rows and is the unit the executor scans.
// Rows are the write format — inserts, the WAL and snapshots append them; the
// executor reads a table through its lazily built columnar image (Columns),
// and a scanned relation is a selection over that frame. Joins, semi-join
// reductions and dedup hash the frame's key columns (internal/colstore's
// position table), so a table carries no hash index.
package storage

import (
	"fmt"
	"sync"

	"resultdb/internal/catalog"
	"resultdb/internal/colstore"
	"resultdb/internal/types"
)

// Table is an in-memory relation: a definition plus rows.
//
// Under the MVCC regime (internal/db), a *Table is one published version of
// a relation: once a version is visible to readers it is never mutated again.
// Writers derive a successor with BeginVersion, apply their batch to the
// draft, and publish the draft as the next version — readers holding the old
// pointer keep a stable, fully consistent row set with zero locking. The row
// prefix is shared between versions (append-only storage), so deriving a
// version is O(1) and appending amortizes exactly like a plain slice.
//
// Direct mutation (Insert/InsertAll on a published table) remains supported
// for the single-threaded bulk-load paths (workload generators, CSV import,
// snapshot restore) that run before any concurrent traffic; it must never be
// used on a table reachable by a concurrent reader. The lazily built columnar
// image (Columns) is internally locked because concurrent readers of the
// *same version* may race to build it.
type Table struct {
	Def  *catalog.TableDef
	Rows []types.Row

	// gen counts invalidations; the column-vector cache is tagged with the
	// generation it was built from and discarded when the table moves on.
	gen uint64

	colMu   sync.Mutex
	cols    *colstore.Frame
	colsGen uint64
}

// NewTable returns an empty table for def.
func NewTable(def *catalog.TableDef) *Table {
	return &Table{Def: def}
}

// BeginVersion derives a mutable successor of a published version: it shares
// t's row prefix (copy-on-write — the parent's header caps what readers can
// see, so appends to the draft never become visible through old snapshots),
// starts one generation later, and carries none of the parent's derived
// caches. The caller applies one mutation batch to the draft and publishes
// it; a draft discarded on error simply never becomes visible.
//
// Only one draft may be derived from the newest version at a time (the
// database's writer lock enforces this): successive versions share one
// growing backing array, and two concurrent drafts of the same parent would
// race on its append region.
func (t *Table) BeginVersion() *Table {
	return &Table{Def: t.Def, Rows: t.Rows, gen: t.gen + 1}
}

// invalidate marks the derived column vectors stale after the row set
// changed. One call per logical mutation batch.
func (t *Table) invalidate() { t.gen++ }

// Generation returns the table's invalidation counter. It changes whenever
// the row set changes, so derived caches can detect staleness in O(1).
func (t *Table) Generation() uint64 { return t.gen }

// insertRow validates and appends a row without invalidating caches; callers
// invalidate once per batch.
func (t *Table) insertRow(row types.Row) error {
	if len(row) != len(t.Def.Columns) {
		return fmt.Errorf("storage: table %q expects %d values, got %d",
			t.Def.Name, len(t.Def.Columns), len(row))
	}
	out := make(types.Row, len(row))
	for i, v := range row {
		col := t.Def.Columns[i]
		if v.IsNull() && col.NotNull {
			return fmt.Errorf("storage: NULL in NOT NULL column %s.%s", t.Def.Name, col.Name)
		}
		cv, err := types.Coerce(v, col.Type)
		if err != nil {
			return fmt.Errorf("storage: column %s.%s: %w", t.Def.Name, col.Name, err)
		}
		out[i] = cv
	}
	t.Rows = append(t.Rows, out)
	return nil
}

// Insert validates and appends a row. Values are coerced to column types;
// arity and NOT NULL violations are errors.
func (t *Table) Insert(row types.Row) error {
	if err := t.insertRow(row); err != nil {
		return err
	}
	t.invalidate()
	return nil
}

// InsertAll appends rows, stopping at the first error. Derived caches are
// invalidated once per batch, not once per row, so bulk loads do not
// repeatedly discard (and any interleaved reader rebuild) the column vectors.
func (t *Table) InsertAll(rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	defer t.invalidate()
	for _, r := range rows {
		if err := t.insertRow(r); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// WireSize returns the total result-set size in bytes under the paper's
// Section 6.1 accounting.
func (t *Table) WireSize() int {
	n := 0
	for _, r := range t.Rows {
		n += r.WireSize()
	}
	return n
}

// Columns returns the table's columnar image (typed vectors, dictionary-
// encoded TEXT, null bitmaps), building it lazily on first use and caching
// it until the next mutation. Safe for concurrent readers: the build is
// guarded by a mutex and tagged with the generation it was built from.
func (t *Table) Columns() *colstore.Frame {
	t.colMu.Lock()
	defer t.colMu.Unlock()
	if t.cols != nil && t.colsGen == t.gen && t.cols.Rows() == len(t.Rows) {
		return t.cols
	}
	kinds := make([]types.Kind, len(t.Def.Columns))
	for i, c := range t.Def.Columns {
		kinds[i] = c.Type
	}
	t.cols = colstore.NewFrame(kinds, t.Rows)
	t.colsGen = t.gen
	return t.cols
}
