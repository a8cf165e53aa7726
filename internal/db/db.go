// Package db is the user-facing database facade of the reproduction: a
// main-memory DBMS executing SQL text, with materialized views, multi-cursor
// results, and the paper's SELECT RESULTDB extension in both the native
// semi-join variant (Section 4) and the Decompose-on-top-of-a-standard-plan
// variant (Section 6.3).
package db

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"resultdb/internal/cache"
	"resultdb/internal/catalog"
	"resultdb/internal/colstore"
	"resultdb/internal/engine"
	"resultdb/internal/parallel"
	"resultdb/internal/sqlparse"
	"resultdb/internal/stats"
	"resultdb/internal/storage"
	"resultdb/internal/trace"
	"resultdb/internal/types"
)

// Strategy selects how SELECT RESULTDB is executed.
type Strategy uint8

const (
	// StrategySemiJoin runs the native RESULTDB-SEMIJOIN algorithm
	// (Algorithm 4): fold cycles, Yannakakis reduction, decompose folds.
	StrategySemiJoin Strategy = iota
	// StrategyDecompose runs the single-table plan and splits the joined
	// result with the Decompose operator (the Section 6.3 baseline).
	StrategyDecompose
)

// Mode selects the subdatabase flavor (Section 6, "Query Types").
type Mode uint8

const (
	// ModeRDB returns exactly the projected attributes A_i per relation
	// (Definition 2.2).
	ModeRDB Mode = iota
	// ModeRDBRP additionally returns the join attributes, producing a
	// relationship-preserving subdatabase (Definition 2.3) from which the
	// single-table result can be reconstructed by a post-join.
	ModeRDBRP
)

// Database is a main-memory relational database with multiversioned
// (copy-on-write) storage. Reads and writes are safe for concurrent use and
// never block each other:
//
//   - Every read entry point (Query, QueryWithTrace, ExecUnboxed, EXPLAIN,
//     ANALYZE) pins an immutable published state with one atomic load
//     (Snapshot) and then executes, fills caches, traces, and wire-encodes
//     entirely lock-free. A reader always sees some committed state — never
//     a half-applied batch — no matter how many writers race it.
//   - Mutation statements serialize on the writer lock, apply their batch to
//     copy-on-write drafts, append to the commit log (when installed), and
//     publish the successor state with one atomic store. A failed batch
//     publishes nothing.
//
// BEGIN/COMMIT group statements syntactically (the engine is single-writer;
// each mutation statement is its own atomic commit).
//
// The exported configuration — Strategy and CoreOptions (degree and result
// cache), the only execution values a statement reads — is read at statement
// start without synchronization: configure at Open time or between
// statements. Per-connection settings belong on a Session, which carries its
// own copies. Reduction always makes the paper's plan choices
// (core.DefaultOptions).
type Database struct {
	// mu is the writer lock: it serializes mutation batches (DML/DDL) and
	// the commit-log appends that order them. Readers never take it. All
	// uses of mu live in this file — verify.sh lints against new d.mu
	// references elsewhere in the package.
	mu sync.Mutex

	// state is the current published dbState (see state.go). Written only
	// under mu; read with one atomic load by everyone else.
	state atomic.Pointer[dbState]

	// resultCache is the semantic query-result cache (internal/cache): a
	// byte-budgeted LRU keyed by the canonical statement fingerprint, each
	// entry valid at the table-version vector it was computed at. Always
	// allocated, consulted only when CoreOptions.ResultCache is set.
	resultCache *cache.Cache[*Result]

	// memo maps the raw text of a SELECT to its parsed statement, so a
	// repeated statement is parsed and canonicalised once (see parse).
	memo stmtMemo

	// commitLog, when set, records every successful mutation statement
	// before it is published or acknowledged (see CommitLog). Nil when
	// durability is off — the write path then pays one nil check and nothing
	// else, and SELECT-only traffic never touches it at all.
	commitLog CommitLog

	// Strategy and CoreOptions configure statement execution.
	Strategy    Strategy
	CoreOptions ExecOptions
}

// CommitLog is the durability hook on the write path (implemented by
// internal/durable). Append is called with the database writer lock held,
// after the statements applied cleanly to unpublished drafts and before the
// new state is published — so append order is exactly publish order, and a
// state readers can see is never ahead of the log. It returns the LSN
// assigned to the batch (stamped into the published state, pairing every
// snapshot with the exact log position it covers) and a wait function making
// the batch durable; the database invokes wait after releasing the lock, so
// concurrent committers' fsync waits overlap (group commit) instead of
// serializing behind the lock. A nil wait means the batch is already durable.
type CommitLog interface {
	Append(stmts []string) (lsn uint64, wait func() error, err error)
}

// SetCommitLog installs (or, with nil, removes) the durability hook. Call
// before serving traffic; it is not synchronized against in-flight writes.
func (d *Database) SetCommitLog(l CommitLog) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.commitLog = l
}

// SetRecoveredLSN stamps the current state with the WAL position it was
// recovered to, so snapshots (and the checkpoints taken from them) pair the
// state with the right log position from the first post-recovery commit on.
// Called by the durability subsystem after replay, before serving traffic.
func (d *Database) SetRecoveredLSN(lsn uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state.Load()
	d.state.Store(&dbState{tables: st.tables, seq: st.seq, lsn: lsn})
}

// withWriter runs fn under the writer lock. It exists so sibling files can
// serialize configuration changes against the write path without referencing
// d.mu directly (which verify.sh lints against outside this file).
func (d *Database) withWriter(fn func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fn()
}

// execCtx is everything one read statement needs, captured once at entry:
// the pinned snapshot, the strategy and execution options in effect when it
// started, and its tracer. Capturing them together keeps a statement
// internally consistent and lets a Session substitute its own options
// without touching the database's.
type execCtx struct {
	// src resolves table names: the pinned Snapshot on read paths, the
	// writeTxn for statements that read while mutating (CREATE MATERIALIZED
	// VIEW ... AS SELECT runs inside the writer's transaction).
	src engine.Source
	// snap is the pinned snapshot; non-nil exactly on read paths. The
	// result cache keys lookups and fills on its table versions, and traces
	// annotate with its commit position.
	snap     *Snapshot
	strategy Strategy
	opts     ExecOptions
	// tr records the statement's spans; nil (the default) is untraced.
	tr *trace.Tracer
}

// readCtx pins the newest committed state and captures the database-level
// options for one read statement.
func (d *Database) readCtx() execCtx {
	snap := d.Snapshot()
	return execCtx{src: snap, snap: snap, strategy: d.Strategy, opts: d.CoreOptions}
}

// txnCtx builds the execution context for reads running inside a write
// transaction (materialized-view fills): tables resolve through the txn so
// the statement sees its own batch, and no snapshot is pinned (the cache is
// bypassed — its entries must only ever hold committed states).
func (d *Database) txnCtx(tx *writeTxn) execCtx {
	return execCtx{src: tx, strategy: d.Strategy, opts: d.CoreOptions}
}

// traced returns ec with a fresh tracer for the statement sql, stamped with
// the statement's degree and, on read paths, its snapshot's commit position.
func (ec execCtx) traced(sql string) execCtx {
	ec.tr = trace.New(sql)
	ec.tr.SetParallelism(parallel.Degree(ec.opts.Parallelism))
	if ec.snap != nil {
		ec.tr.SetSnapshot(ec.snap.Seq(), ec.snap.LSN())
	}
	return ec
}

// executor builds the statement's engine executor: tables resolve through
// ec's source, every operator runs at ec's degree and records on ec's
// tracer, and each table's statistics are its version's (statsOf).
func (ec execCtx) executor() *engine.Executor {
	return &engine.Executor{
		Src:         ec.src,
		Parallelism: ec.opts.Parallelism,
		Tracer:      ec.tr,
		StatsOf: func(table string) *stats.Table {
			t, err := ec.src.Table(table)
			if err != nil {
				return nil
			}
			return statsOf(t, ec.tr)
		},
	}
}

// TableStats returns the statistics of a table's newest committed version
// (deriving them if no statement has yet), or nil if the table does not
// exist. Exported for the shell's \stats command.
func (d *Database) TableStats(name string) *stats.Table {
	t, err := d.Snapshot().Table(name)
	if err != nil {
		return nil
	}
	return stats.Of(t)
}

// execAnalyze implements ANALYZE [table]: eagerly derive the statistics of
// one table or all tables. It is a read-only statement — statistics are derived
// from a committed table version and kept in it, so it runs against a
// snapshot and is neither logged to the WAL nor a cache-invalidating
// mutation. Affected reports the number of tables analyzed.
func (d *Database) execAnalyze(s *sqlparse.Analyze) (*Result, error) {
	snap := d.Snapshot()
	if s.Table != "" {
		t, err := snap.Table(s.Table)
		if err != nil {
			return nil, err
		}
		stats.Of(t)
		return &Result{Affected: 1}, nil
	}
	n := 0
	for _, name := range snap.TableNames() {
		if t, err := snap.Table(name); err == nil {
			stats.Of(t)
			n++
		}
	}
	return &Result{Affected: n}, nil
}

// Table resolves a table in the newest committed state (engine.Source).
// Concurrency-sensitive callers resolve through a pinned Snapshot instead;
// Database-level resolution exists for single-threaded embedders and the
// bulk-load paths that fill tables before serving traffic.
func (d *Database) Table(name string) (*storage.Table, error) {
	return d.Snapshot().Table(name)
}

// TableNames lists the newest committed state's tables, sorted
// (snapshot.Source).
func (d *Database) TableNames() []string {
	return d.Snapshot().TableNames()
}

// CreateTable registers a new table from a definition; used by workload
// generators that bypass SQL for bulk loading. The returned table is the
// published version: generators may fill it directly only before the
// database serves concurrent traffic.
func (d *Database) CreateTable(def *catalog.TableDef) (*storage.Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tx := d.newWriteTxn()
	t, err := tx.create(def)
	if err != nil {
		return nil, err
	}
	tx.commit(0)
	return t, nil
}

// Exec parses and executes a single SQL statement.
func (d *Database) Exec(sql string) (*Result, error) {
	st, err := d.parse(sql)
	if err != nil {
		return nil, err
	}
	return d.ExecStatement(st)
}

// ExecScript executes a semicolon-separated script, returning one result per
// statement. Execution stops at the first error.
func (d *Database) ExecScript(sql string) ([]*Result, error) {
	stmts, err := sqlparse.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(stmts))
	for _, st := range stmts {
		r, err := d.ExecStatement(st)
		if err != nil {
			return out, fmt.Errorf("db: statement %q: %w", st.SQL(), err)
		}
		out = append(out, r)
	}
	return out, nil
}

// ExecStatement executes a parsed statement. A panic anywhere in execution
// is confined to the statement and surfaces as an error, so one poisoned
// query cannot take down an embedding process or server.
func (d *Database) ExecStatement(st sqlparse.Statement) (res *Result, err error) {
	defer confine(&res, &err)
	return boxed(d.execAt(d.readCtx(), st, nil))
}

// confine, deferred by an entry point, turns a panic in the statement it
// runs into the statement's error.
func confine(res **Result, err *error) {
	if p := recover(); p != nil {
		*res, *err = nil, fmt.Errorf("db: internal error: %v", p)
	}
}

// execAt executes a parsed statement: reads against ec's snapshot with ec's
// options, mutations through the serialized write path, after which
// onMutated (when non-nil) runs. Sessions and the database, buffered and
// streamed, all dispatch here. The result is unboxed.
func (d *Database) execAt(ec execCtx, st sqlparse.Statement, onMutated func()) (*Result, error) {
	switch s := st.(type) {
	case *selectStmt:
		return d.query(ec, s)
	case *sqlparse.Select:
		return d.query(ec, &selectStmt{Select: s})
	case *sqlparse.CreateTable, *sqlparse.DropTable, *sqlparse.CreateMaterializedView,
		*sqlparse.DropMaterializedView, *sqlparse.Insert:
		res, err := d.execMutation(st)
		if err == nil && onMutated != nil {
			onMutated()
		}
		return res, err
	case *sqlparse.Explain:
		return d.execExplainAt(ec, s)
	case *sqlparse.Analyze:
		return d.execAnalyze(s)
	case *sqlparse.Begin, *sqlparse.Commit, *sqlparse.Rollback:
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("db: unsupported statement %T", st)
	}
}

// execMutation applies one DML/DDL statement and, when a commit log is
// installed, records it and waits for durability before acknowledging. The
// apply, the log append, and the publish happen under one writer-lock hold —
// log order is publish order — while the durability wait runs after unlock
// so concurrent commits share fsyncs.
func (d *Database) execMutation(st sqlparse.Statement) (*Result, error) {
	res, wait, err := d.applyAndLog(st)
	if err != nil {
		return nil, err
	}
	if wait != nil {
		if werr := wait(); werr != nil {
			// Not durable ⇒ not acknowledged. The batch is published (readers
			// may see it) but was never acknowledged; the owner should stop
			// serving (a real disk death is fatal anyway), and recovery will
			// simply not include this unacknowledged batch.
			return nil, fmt.Errorf("db: commit not durable: %w", werr)
		}
	}
	return res, nil
}

// applyAndLog runs one mutation batch through the copy-on-write protocol:
// derive drafts from the current state, apply, append to the commit log,
// publish. A failed apply or append publishes nothing — readers can never
// observe a half-applied statement, and the in-memory state never runs
// ahead of a log that could not record it.
func (d *Database) applyAndLog(st sqlparse.Statement) (*Result, func() error, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tx := d.newWriteTxn()
	var res *Result
	var err error
	switch s := st.(type) {
	case *sqlparse.CreateTable:
		res, err = execCreateTable(tx, s)
	case *sqlparse.DropTable:
		res, err = execDrop(tx, s.Name, s.IfExists, false)
	case *sqlparse.CreateMaterializedView:
		res, err = d.execCreateMatView(tx, s)
	case *sqlparse.DropMaterializedView:
		res, err = execDrop(tx, s.Name, s.IfExists, true)
	case *sqlparse.Insert:
		res, err = execInsert(tx, s)
	default:
		err = fmt.Errorf("db: unsupported mutation %T", st)
	}
	if err != nil {
		return nil, nil, err
	}
	var lsn uint64
	var wait func() error
	if d.commitLog != nil {
		var lerr error
		lsn, wait, lerr = d.commitLog.Append([]string{st.SQL()})
		if lerr != nil {
			return nil, nil, fmt.Errorf("db: commit log append: %w", lerr)
		}
	}
	tx.commit(lsn)
	return res, wait, nil
}

func execCreateTable(tx *writeTxn, s *sqlparse.CreateTable) (*Result, error) {
	cols := make([]catalog.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = catalog.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull}
	}
	def, err := catalog.NewTableDef(s.Name, cols)
	if err != nil {
		return nil, err
	}
	def.PrimaryKey = s.PrimaryKey
	for _, fk := range s.ForeignKeys {
		def.ForeignKeys = append(def.ForeignKeys, catalog.ForeignKey{
			Columns: fk.Columns, RefTable: fk.RefTable, RefColumns: fk.RefColumns,
		})
	}
	if _, err := tx.create(def); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func execDrop(tx *writeTxn, name string, ifExists, mustBeView bool) (*Result, error) {
	t, err := tx.Table(name)
	if err != nil {
		if ifExists {
			return &Result{}, nil
		}
		return nil, err
	}
	if mustBeView && !t.Def.IsView {
		return nil, fmt.Errorf("db: %q is a table, not a materialized view", name)
	}
	if !mustBeView && t.Def.IsView {
		return nil, fmt.Errorf("db: %q is a materialized view; use DROP MATERIALIZED VIEW", name)
	}
	tx.drop(name)
	return &Result{}, nil
}

func execInsert(tx *writeTxn, s *sqlparse.Insert) (*Result, error) {
	t, err := tx.draft(s.Table)
	if err != nil {
		return nil, err
	}
	// Map the column list (or the full schema) to positions.
	targets := make([]int, 0, len(t.Def.Columns))
	if len(s.Columns) == 0 {
		for i := range t.Def.Columns {
			targets = append(targets, i)
		}
	} else {
		for _, name := range s.Columns {
			idx := t.Def.ColumnIndex(name)
			if idx < 0 {
				return nil, fmt.Errorf("db: table %q has no column %q", s.Table, name)
			}
			targets = append(targets, idx)
		}
	}
	n := 0
	row := make(types.Row, len(t.Def.Columns)) // Insert copies it into the vectors
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(targets) {
			return nil, fmt.Errorf("db: INSERT expects %d values, got %d", len(targets), len(exprRow))
		}
		clear(row) // the zero Value is NULL
		for i, e := range exprRow {
			v, err := evalConst(e)
			if err != nil {
				return nil, err
			}
			row[targets[i]] = v
		}
		if err := t.Insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// evalConst evaluates a literal-only expression (INSERT values).
func evalConst(e sqlparse.Expr) (types.Value, error) {
	switch x := e.(type) {
	case *sqlparse.Literal:
		return x.Value, nil
	case *sqlparse.Unary:
		if x.Op == "-" {
			v, err := evalConst(x.E)
			if err != nil {
				return types.Value{}, err
			}
			switch v.Kind() {
			case types.KindInt:
				return types.NewInt(-v.Int()), nil
			case types.KindFloat:
				return types.NewFloat(-v.Float()), nil
			}
		}
	}
	return types.Value{}, fmt.Errorf("db: INSERT values must be literals, got %q", e.SQL())
}

func (d *Database) execCreateMatView(tx *writeTxn, s *sqlparse.CreateMaterializedView) (*Result, error) {
	if s.Query.ResultDB {
		return d.createResultDBView(tx, s)
	}
	rel, err := d.txnCtx(tx).executor().Select(s.Query)
	if err != nil {
		return nil, err
	}
	// Honor explicit select-item aliases (the SPJ fast path resolves plain
	// column references and would otherwise drop the AS names, which MVs
	// need for disambiguation).
	if !anyStar(s.Query.Items) && len(s.Query.Items) == len(rel.Cols) {
		for i, item := range s.Query.Items {
			if item.Alias != "" {
				rel.Cols[i].Rel = ""
				rel.Cols[i].Name = item.Alias
			}
		}
	}
	names := make([]string, len(rel.Cols))
	for i, c := range rel.Cols {
		names[i] = c.Name
	}
	if err := createView(tx, s.Name, names, rel.Vec); err != nil {
		return nil, err
	}
	return &Result{Affected: rel.Len()}, nil
}

// createResultDBView materializes a subdatabase view (use case 2 of the
// paper): one materialized view per output relation, named <view>_<alias>.
// The defining query runs inside the write transaction, so it sees the state
// the view is created against.
func (d *Database) createResultDBView(tx *writeTxn, s *sqlparse.CreateMaterializedView) (*Result, error) {
	res, err := d.queryResultDBAt(d.txnCtx(tx), s.Query, ModeRDBRP)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, set := range res.Sets {
		names := make([]string, len(set.Columns))
		for i, cn := range set.Columns {
			// Strip any "alias." qualifier for storable column names.
			names[i] = cn[strings.LastIndexByte(cn, '.')+1:]
		}
		if err := createView(tx, s.Name+"_"+set.Name, names, setToRelation(set).Vec); err != nil {
			return nil, err
		}
		total += set.NumRows()
	}
	return &Result{Affected: total, Sets: res.Sets, Stats: res.Stats}, nil
}

// createView creates the materialized view name in tx from the relation v
// under the column names and fills it as any table is filled, through
// InsertAll: what a view stores is coerced to its definition. Column names
// must be unique; qualify ambiguous select lists with aliases.
func createView(tx *writeTxn, name string, names []string, v *colstore.View) error {
	cols := make([]catalog.Column, len(names))
	for i, cn := range names {
		kind, err := viewColumnType(v, i)
		if err != nil {
			return fmt.Errorf("db: materialized view %s column %s: %w", name, cn, err)
		}
		cols[i] = catalog.Column{Name: cn, Type: kind}
	}
	def, err := catalog.NewTableDef(name, cols)
	if err != nil {
		return err
	}
	def.IsView = true
	t, err := tx.create(def)
	if err != nil {
		return err
	}
	return t.InsertAll(v.Rows())
}

// viewColumnType is the declared type of a view column filled from column i
// of v: its vector's kind or, for exact values (an aggregate's results), the
// one kind of all the non-NULL ones — INTEGER beside DOUBLE widens to DOUBLE,
// any other mix is an error; TEXT when there is no value to go by.
func viewColumnType(v *colstore.View, i int) (types.Kind, error) {
	col := v.Frame.Col(i)
	kind := vectorKind(col)
	if kind != types.KindNull {
		return kind, nil
	}
	numeric := func(k types.Kind) bool { return k == types.KindInt || k == types.KindFloat }
	for j := 0; j < v.Len(); j++ {
		switch k := col.Value(v.Index(j)).Kind(); {
		case k == types.KindNull || k == kind:
		case kind == types.KindNull:
			kind = k
		case numeric(k) && numeric(kind):
			kind = types.KindFloat
		default:
			return 0, fmt.Errorf("holds both %s and %s values", kind, k)
		}
	}
	if kind == types.KindNull {
		kind = types.KindText
	}
	return kind, nil
}

func anyStar(items []sqlparse.SelectItem) bool {
	for _, it := range items {
		if it.Star {
			return true
		}
	}
	return false
}
