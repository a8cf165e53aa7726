package db

import (
	"fmt"
	"sort"
	"strings"

	"resultdb/internal/catalog"
	"resultdb/internal/storage"
)

// dbState is one immutable published version of the whole database: the
// table set (each *storage.Table itself an immutable published version) and
// the commit position. Readers pin a state with one atomic load and then
// execute entirely lock-free; writers derive the next state under the writer
// lock and publish it with one atomic store. A state, once published, is
// never mutated.
//
// "Which state?" has one answer: the vector of the tables' version marks
// (storage.Mark: lineage and length — a table re-created after a DROP is a
// new lineage, so nothing computed against the old incarnation can match or
// extend it). The result cache fingerprints on it; seq and lsn say only where
// in the commit order the state sits.
type dbState struct {
	// tables maps lower-cased names to published table versions.
	tables map[string]*storage.Table
	// seq is the commit sequence number: +1 per published mutation batch.
	seq uint64
	// lsn is the WAL LSN of the last commit included in this state (0 when
	// no commit log is installed; seeded by recovery via SetRecoveredLSN).
	lsn uint64
}

// Snapshot pins one immutable published database state: a consistent set of
// table versions acquired with a single atomic load (O(1); the O(tables)
// copying happens on the write path). A Snapshot implements engine.Source
// and snapshot.Source, so queries, statistics, checkpoints, and \save all
// read from the same frozen world. Snapshots are cheap, never expire, and
// need no release call — an abandoned snapshot is garbage-collected with
// the table versions only it still references.
type Snapshot struct {
	db *Database
	st *dbState
}

// Snapshot pins the newest committed state. Every read entry point of the
// database acquires one and then runs without any database-wide lock:
// readers never block writers, writers never block readers, and no reader
// ever observes a half-applied batch.
func (d *Database) Snapshot() *Snapshot {
	return &Snapshot{db: d, st: d.state.Load()}
}

// Table resolves a table name in this snapshot (engine.Source).
func (s *Snapshot) Table(name string) (*storage.Table, error) {
	if t, ok := s.st.tables[strings.ToLower(name)]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("db: table %q does not exist", name)
}

// TableNames returns the snapshot's table names (original case), sorted.
func (s *Snapshot) TableNames() []string {
	out := make([]string, 0, len(s.st.tables))
	for _, t := range s.st.tables {
		out = append(out, t.Def.Name)
	}
	sort.Strings(out)
	return out
}

// Seq is the snapshot's commit sequence number: 0 for an empty database,
// +1 per committed mutation batch since.
func (s *Snapshot) Seq() uint64 { return s.st.seq }

// LSN is the WAL position this snapshot covers: the LSN of the last commit
// included in it. 0 when the database has no commit log (or no commit was
// logged yet); recovery seeds it so checkpoints pair the snapshot with the
// exact log position it reflects.
func (s *Snapshot) LSN() uint64 { return s.st.lsn }

// marks returns the state's vector of version marks over the named tables,
// in their order; a name the state does not hold reads the zero Mark, which
// no version is.
func (st *dbState) marks(tables []string) []storage.Mark {
	out := make([]storage.Mark, len(tables))
	for i, name := range tables {
		if t, ok := st.tables[strings.ToLower(name)]; ok {
			out[i] = t.Mark()
		}
	}
	return out
}

// writeTxn accumulates one mutation batch on top of a base state. The table
// map is copied once (O(tables)); mutated tables are replaced by
// copy-on-write drafts (storage.Table.BeginVersion). commit publishes the
// batch atomically; a txn abandoned on error leaves the published state —
// and every concurrent reader — untouched.
type writeTxn struct {
	d      *Database
	base   *dbState
	tables map[string]*storage.Table

	drafts map[string]*storage.Table // draft versions begun this txn
}

// newWriteTxn copies the base state's table map. Called with d.mu held.
func (d *Database) newWriteTxn() *writeTxn {
	base := d.state.Load()
	tx := &writeTxn{
		d:      d,
		base:   base,
		tables: make(map[string]*storage.Table, len(base.tables)+1),
		drafts: make(map[string]*storage.Table),
	}
	for k, v := range base.tables {
		tx.tables[k] = v
	}
	return tx
}

// Table resolves a name within the transaction (pending changes included),
// implementing engine.Source for statements that read while mutating
// (CREATE MATERIALIZED VIEW ... AS SELECT).
func (tx *writeTxn) Table(name string) (*storage.Table, error) {
	if t, ok := tx.tables[strings.ToLower(name)]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("db: table %q does not exist", name)
}

// draft returns the transaction's mutable version of name, deriving it from
// the published version on first use.
func (tx *writeTxn) draft(name string) (*storage.Table, error) {
	key := strings.ToLower(name)
	if t, ok := tx.drafts[key]; ok {
		return t, nil
	}
	cur, ok := tx.tables[key]
	if !ok {
		return nil, fmt.Errorf("db: table %q does not exist", name)
	}
	t := cur.BeginVersion()
	tx.drafts[key] = t
	tx.tables[key] = t
	return t, nil
}

// create registers a new (empty, unpublished) table in the transaction.
func (tx *writeTxn) create(def *catalog.TableDef) (*storage.Table, error) {
	key := strings.ToLower(def.Name)
	if _, ok := tx.tables[key]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", def.Name)
	}
	t := storage.NewTable(def)
	tx.tables[key] = t
	tx.drafts[key] = t
	return t, nil
}

// drop removes a table from the transaction.
func (tx *writeTxn) drop(name string) {
	delete(tx.tables, strings.ToLower(name))
}

// commit publishes the transaction as the next database state, stamped with
// the WAL position of its commit record. Called with d.mu held, after the
// batch applied cleanly and (when a commit log is installed) after its log
// append succeeded — so log order is publish order, and a state no reader
// has seen is never ahead of the log. The store is the whole publication:
// the new table versions are what cached results of the old ones are
// extended to or invalidated by (and derive statistics of their own,
// extending the old ones), so there is nothing else to notify.
func (tx *writeTxn) commit(lsn uint64) {
	if lsn == 0 {
		lsn = tx.base.lsn
	}
	tx.d.state.Store(&dbState{
		tables: tx.tables,
		seq:    tx.base.seq + 1,
		lsn:    lsn,
	})
}

// emptyState returns the state of a freshly created database.
func emptyState() *dbState {
	return &dbState{tables: make(map[string]*storage.Table)}
}
