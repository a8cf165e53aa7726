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
	"sync/atomic"

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
// Version is the version's identity and the only one the system has: a
// database snapshot is the vector of its tables' versions, and result-cache
// entries and plan verdicts are fingerprinted on that vector. Everything
// derived from the rows — the columnar image (Columns) and the column
// statistics (Stats) — lives in the version, is built at most once under the
// version's own lock, and is garbage-collected with it.
//
// Direct mutation (Insert/InsertAll on a published table) remains supported
// for the single-threaded bulk-load paths (workload generators, CSV import,
// snapshot restore) that run before any concurrent traffic; it must never be
// used on a table reachable by a concurrent reader. It turns the table into a
// new version in place: a fresh Version, no derived state.
type Table struct {
	Def  *catalog.TableDef
	Rows []types.Row

	version uint64

	// mu guards the derived state: concurrent readers of one version may race
	// to build it. builtAt is len(Rows) it was built from (see dropStaleLocked).
	mu      sync.Mutex
	builtAt int
	cols    *colstore.Frame
	stats   any
}

// lastVersion is the process-wide version clock; 0 is never assigned, so it
// can stand for "no such table" in a version vector.
var lastVersion atomic.Uint64

// NewTable returns an empty table for def.
func NewTable(def *catalog.TableDef) *Table {
	return &Table{Def: def, version: lastVersion.Add(1)}
}

// BeginVersion derives a mutable successor of a published version: it shares
// t's row prefix (copy-on-write — the parent's header caps what readers can
// see, so appends to the draft never become visible through old snapshots),
// has its own Version, and starts with no derived state. The caller applies
// one mutation batch to the draft and publishes it; a draft discarded on
// error simply never becomes visible.
//
// Only one draft may be derived from the newest version at a time (the
// database's writer lock enforces this): successive versions share one
// growing backing array, and two concurrent drafts of the same parent would
// race on its append region.
func (t *Table) BeginVersion() *Table {
	return &Table{Def: t.Def, Rows: t.Rows, version: lastVersion.Add(1)}
}

// Version identifies this version of the relation: process-unique, assigned
// in increasing order, never 0. It changes exactly when the row set does — a
// published version keeps its number for life; a direct Insert re-stamps.
func (t *Table) Version() uint64 { return t.version }

// restamp makes t a new version after a direct mutation. One call per logical
// mutation batch.
func (t *Table) restamp() { t.version = lastVersion.Add(1) }

// dropStaleLocked drops derived state built from another row set. Rows only
// grow, so the row count tells: a direct Insert — or a loader appending
// through the Rows field — leaves nothing stale behind.
func (t *Table) dropStaleLocked() {
	if t.builtAt != len(t.Rows) {
		t.cols, t.stats, t.builtAt = nil, nil, len(t.Rows)
	}
}

// insertRow validates and appends a row without re-stamping; callers re-stamp
// once per batch.
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
	t.restamp()
	return nil
}

// InsertAll appends rows, stopping at the first error. The table is
// re-stamped once per batch, not once per row.
func (t *Table) InsertAll(rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	defer t.restamp()
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

// Columns returns the version's columnar image (typed vectors, dictionary-
// encoded TEXT, null bitmaps), built on first use and kept for the version's
// life. Safe for concurrent readers.
func (t *Table) Columns() *colstore.Frame {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropStaleLocked()
	if t.cols == nil {
		kinds := make([]types.Kind, len(t.Def.Columns))
		for i, c := range t.Def.Columns {
			kinds[i] = c.Type
		}
		t.cols = colstore.NewFrame(kinds, t.Rows)
	}
	return t.cols
}

// Stats returns the version's column statistics, calling build on first use
// and keeping its value for the version's life. The slot is typed any because
// internal/stats, which owns the type and the builder, imports this package;
// use stats.Of. Safe for concurrent readers: one of them builds, the others
// wait for that build and share it.
func (t *Table) Stats(build func(*Table) any) any {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropStaleLocked()
	if t.stats == nil {
		t.stats = build(t)
	}
	return t.stats
}
