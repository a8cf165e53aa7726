// Package storage provides in-memory physical tables. A Table pairs a
// catalog.TableDef with the table's contents, and those are columns: a
// colstore.Frame of one typed vector per column (int64/float64/bool slices,
// dictionary-coded TEXT, null bitmaps) and nothing else. An insert coerces a
// row and appends each value to its vector; the executor scans the frame
// (Columns), a scanned relation being a selection over it; whoever needs
// tuples — a snapshot file, a CSV dump — boxes them on demand (Rows). Joins,
// semi-join reductions and dedup hash the frame's key columns (colstore's
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

// Table is an in-memory relation: a definition plus a frame of typed columns.
//
// Under the MVCC regime (internal/db), a *Table is one published version of
// a relation: once a version is visible to readers it is never mutated again.
// Writers derive a successor with BeginVersion, apply their batch to the
// draft, and publish the draft as the next version — readers holding the old
// pointer keep a stable, fully consistent row set with zero locking. Storage
// is append-only and a version shares every vector's prefix with its
// successor, so deriving a version is O(columns) and appending amortizes
// exactly like a plain slice.
//
// Mark is the version's identity and the only one the system has: its
// lineage (Origin) and its length (Rows). A database snapshot is the vector of
// its tables' marks, and result-cache entries are fingerprinted on that
// vector. The one thing derived from the
// contents — the column statistics (Stats) — lives in the version, is derived
// at most once under the version's own lock, and is garbage-collected with
// it. Like the frame, statistics extend: a successor is handed the newest
// statistics built along its lineage (base) and derives its own by folding in
// only the rows it added. base is a value of the statistics package's own,
// holding no frame or table, so it keeps no superseded version alive.
//
// Direct mutation (Insert/InsertAll on a published table) remains supported
// for the single-threaded bulk-load paths (workload generators, CSV import,
// snapshot restore) that run before any concurrent traffic; it must never be
// used on a table reachable by a concurrent reader. It turns the table into a
// new version in place: the same lineage, the same frame grown by the new
// rows (so a longer Mark), its former statistics demoted to base.
type Table struct {
	Def *catalog.TableDef

	origin  uint64 // the lineage: stamped by NewTable, inherited by successors
	cols    *colstore.Frame
	scratch types.Row // the writer's coerced row on its way into cols

	// mu guards stats and base: concurrent readers of one version may race to
	// build, and a writer deriving a successor reads what was built.
	mu    sync.Mutex
	stats any // this version's statistics, once derived
	base  any // the newest statistics of an ancestor, until stats is derived
}

// Mark identifies a table version: the lineage it belongs to and its row
// count. The dialect only appends (INSERT is its one mutation), and the
// published versions of one lineage form one chain, each its predecessor plus
// a tail. So two versions with equal marks hold equal rows, and a version is a
// prefix of another exactly when both share the origin and it is no longer.
// The zero Mark is no version: it stands for "no such table" in a vector.
type Mark struct {
	Origin uint64
	Rows   int
}

// PrefixOf reports whether the version m marks is a prefix of (or equal to)
// the one n marks: the rows of m are the first m.Rows rows of n.
func (m Mark) PrefixOf(n Mark) bool { return m.Origin == n.Origin && m.Rows <= n.Rows }

// lastOrigin is the process-wide lineage clock; 0 is never assigned.
var lastOrigin atomic.Uint64

// NewTable returns an empty table for def, the first version of a new
// lineage. Everything that makes a table other than by appending to one —
// CREATE after a DROP of the same name, a materialized view, a snapshot
// restore — comes through here, so nothing computed against another
// incarnation can match or extend it.
func NewTable(def *catalog.TableDef) *Table {
	kinds := make([]types.Kind, len(def.Columns))
	for i, c := range def.Columns {
		kinds[i] = c.Type
	}
	return &Table{Def: def, origin: lastOrigin.Add(1), cols: colstore.Empty(kinds)}
}

// BeginVersion derives a mutable successor of a published version: its frame
// extends t's (colstore.Frame.Extend — headers of its own over the same
// vectors and dictionaries, so appends to the draft land past what t's
// headers, and therefore old snapshots, can see), it inherits t's lineage, so
// its Mark grows past t's with every row it takes, and it has no statistics
// of its own yet — only t's newest built ones as its base. The caller applies
// one mutation batch to the draft and publishes it; a draft discarded on
// error never becomes visible, and the next draft overwrites what it
// appended (which is why only published versions are ever marked in a
// vector: the chain is the published one).
//
// Only one draft may be derived from the newest version at a time (the
// database's writer lock enforces this): successive versions share growing
// backing arrays, and two concurrent drafts of the same parent would race on
// their append region.
func (t *Table) BeginVersion() *Table {
	t.mu.Lock()
	base := t.stats // the newest statistics built along t's lineage
	if base == nil {
		base = t.base
	}
	t.mu.Unlock()
	return &Table{Def: t.Def, origin: t.origin, cols: t.cols.Extend(), base: base}
}

// Mark identifies this version of the relation (see Mark). A published
// version keeps its mark for life; a direct Insert lengthens it.
func (t *Table) Mark() Mark { return Mark{Origin: t.origin, Rows: t.Len()} }

// restamp makes t a new version after a direct mutation — its Mark already
// grew with its rows — by demoting its statistics to the base of the next
// build. One call per logical mutation batch.
func (t *Table) restamp() {
	t.mu.Lock()
	if t.stats != nil {
		t.base, t.stats = t.stats, nil
	}
	t.mu.Unlock()
}

// insertRow validates, coerces and appends a row without re-stamping; callers
// re-stamp once per batch. The whole row is coerced before any of it is
// appended, so a refused row leaves no trace; row itself is not kept.
func (t *Table) insertRow(row types.Row) error {
	if len(row) != len(t.Def.Columns) {
		return fmt.Errorf("storage: table %q expects %d values, got %d",
			t.Def.Name, len(t.Def.Columns), len(row))
	}
	if t.scratch == nil {
		t.scratch = make(types.Row, len(row))
	}
	for i, v := range row {
		col := t.Def.Columns[i]
		if v.IsNull() && col.NotNull {
			return fmt.Errorf("storage: NULL in NOT NULL column %s.%s", t.Def.Name, col.Name)
		}
		cv, err := types.Coerce(v, col.Type)
		if err != nil {
			return fmt.Errorf("storage: column %s.%s: %w", t.Def.Name, col.Name, err)
		}
		t.scratch[i] = cv
	}
	t.cols.AppendRow(t.scratch)
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
func (t *Table) Len() int { return t.cols.Rows() }

// Columns returns the table's contents: the frame the executor scans. On a
// published version it is immutable and this is a plain field read — no lock,
// no allocation, the same pointer every time.
func (t *Table) Columns() *colstore.Frame { return t.cols }

// Rows boxes the whole table into tuples (colstore.View.Rows), freshly on
// every call: for snapshot files, CSV dumps and tests, not the query path.
func (t *Table) Rows() []types.Row { return (&colstore.View{Frame: t.cols}).Rows() }

// WireSize returns the total result-set size in bytes under the paper's
// Section 6.1 accounting.
func (t *Table) WireSize() int {
	n := 0
	for _, r := range t.Rows() {
		n += r.WireSize()
	}
	return n
}

// Stats returns the version's column statistics, calling build with the base
// it was handed (nil if none) on first use and keeping its value for the
// version's life; the base is then dropped. The slots are typed any because
// internal/stats, which owns the type and the fold, imports this package; use
// stats.Of. Safe for concurrent readers: one of them builds, the others wait
// for that build and share it.
func (t *Table) Stats(build func(t *Table, base any) any) any {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats == nil {
		t.stats = build(t, t.base)
		t.base = nil
	}
	return t.stats
}
