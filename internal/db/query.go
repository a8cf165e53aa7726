package db

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"resultdb/internal/colstore"
	"resultdb/internal/core"
	"resultdb/internal/engine"
	"resultdb/internal/parallel"
	"resultdb/internal/sqlparse"
	"resultdb/internal/stats"
	"resultdb/internal/storage"
	"resultdb/internal/trace"
	"resultdb/internal/types"
)

// Query executes a SELECT. SELECT RESULTDB returns one result set per output
// relation (Definition 2.2); everything else returns a single-table result.
// The statement runs lock-free against a snapshot pinned at entry.
func (d *Database) Query(sel *sqlparse.Select) (*Result, error) {
	return boxed(d.query(d.readCtx(), &selectStmt{Select: sel}))
}

// QueryWithTrace executes a SELECT with execution tracing enabled and returns
// the result together with the structured trace (per-operator spans with
// actual cardinalities, wall times, and transfer bytes). The result is
// bit-identical to Query's; tracing only observes.
func (d *Database) QueryWithTrace(sel *sqlparse.Select) (*Result, *trace.Trace, error) {
	return d.queryWithTrace(d.readCtx(), sel)
}

// queryWithTrace is QueryWithTrace against an execution context.
func (d *Database) queryWithTrace(ec execCtx, sel *sqlparse.Select) (*Result, *trace.Trace, error) {
	ec = ec.traced(sel.SQL())
	res, err := boxed(d.query(ec, &selectStmt{Select: sel}))
	if err != nil {
		return nil, nil, err
	}
	return res, ec.tr.Finish(), nil
}

// query dispatches a SELECT, traced when ec is, consulting the semantic
// result cache when enabled:
//
//   - Untraced queries go through the full cache path (lookup, single-flight
//     collapse of identical concurrent misses, fill) in queryCached.
//   - Traced queries (EXPLAIN, EXPLAIN ANALYZE, QueryWithTrace) always
//     execute — a trace without operator spans would be useless — but probe
//     the cache to annotate the plan with the would-be outcome ("cache: hit",
//     "cache: extendable (+N rows)" for an entry filled before N rows were
//     appended to the statement's tables, or "cache: miss", in the
//     strippable bracket section) and fill it, so EXPLAIN warms the cache
//     for the statement it explains.
//
// All cache traffic is keyed on the snapshot's table marks: an entry is
// served only when it embeds exactly the state this reader pinned, or is
// shown to hold the same result there, and a fill is admitted only when no
// writer published past the snapshot while the query ran (see queryCached).
func (d *Database) query(ec execCtx, sel *selectStmt) (*Result, error) {
	if ec.cache && ec.snap != nil {
		tr := ec.tr
		if !tr.Enabled() {
			return d.queryCached(ec, sel)
		}
		key := cacheKey(ec, sel)
		_, at, live := d.cacheAt(ec.snap, sel)
		switch _, behind, ok := d.resultCache.PeekAt(key, at); {
		case !ok:
			tr.SetCacheStatus("miss")
		case behind == 0:
			tr.SetCacheStatus("hit")
		default:
			tr.SetCacheStatus(fmt.Sprintf("extendable (+%d rows)", behind))
		}
		res, err := d.queryUncached(ec, sel.Select)
		if err == nil {
			d.seal(key, res)
			d.resultCache.PutAt(key, res, cachedResultBytes(res), at, live)
		}
		return res, err
	}
	return d.queryUncached(ec, sel.Select)
}

// queryUncached always executes, bypassing the result cache.
func (d *Database) queryUncached(ec execCtx, sel *sqlparse.Select) (*Result, error) {
	if sel.ResultDB {
		mode := ModeRDB
		if sel.Preserving {
			mode = ModeRDBRP
		}
		return d.queryResultDBAt(ec, sel, mode)
	}
	return d.querySingleTableAt(ec, sel)
}

// QuerySQL parses and executes a SELECT given as text.
func (d *Database) QuerySQL(sql string) (*Result, error) {
	st, err := d.parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*selectStmt)
	if !ok {
		return nil, fmt.Errorf("db: QuerySQL expects a SELECT statement, got %T", st)
	}
	return boxed(d.query(d.readCtx(), sel))
}

// QueryResultDB executes sel with subdatabase semantics regardless of the
// RESULTDB keyword, in the requested mode (RDB per Definition 2.2, RDBRP per
// Definition 2.3). This is the programmatic entry the benchmarks use.
func (d *Database) QueryResultDB(sel *sqlparse.Select, mode Mode) (*Result, error) {
	return boxed(d.queryResultDBAt(d.readCtx(), sel, mode))
}

func (d *Database) querySingleTableAt(ec execCtx, sel *sqlparse.Select) (*Result, error) {
	tr := ec.tr
	tr.SetMode("single-table")
	rel, err := ec.executor().Select(sel)
	if err != nil {
		return nil, err
	}
	set := relToSet("result", rel, rel.ColumnNames())
	if sp := tr.Span("output", "result"); sp != nil {
		sp.Phase = "output"
		sp.RowsIn = rel.Len()
		sp.RowsOut = set.NumRows()
		sp.Bytes = set.WireSize()
	}
	return &Result{Sets: []*ResultSet{set}}, nil
}

func (d *Database) queryResultDBAt(ec execCtx, sel *sqlparse.Select, mode Mode) (*Result, error) {
	if len(sel.OrderBy) > 0 || sel.Limit != nil {
		return nil, fmt.Errorf("db: RESULTDB does not support ORDER BY/LIMIT (which relation would they apply to?)")
	}
	tr := ec.tr
	if mode == ModeRDBRP {
		tr.SetMode("resultdb-preserving")
	} else {
		tr.SetMode("resultdb")
	}
	spec, err := engine.AnalyzeSPJ(stripResultDB(sel), ec.src)
	if err != nil {
		return nil, fmt.Errorf("db: RESULTDB requires a select-project-join query: %w", err)
	}
	outputs := spec.OutputRels()
	if mode == ModeRDBRP {
		outputs = relationshipRels(spec)
	}
	tr.SetOutputs(outputs)
	reduced, stats, err := d.reduceSpec(ec, spec, outputs)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: stats}
	if stats != nil {
		tr.SetStats(stats.String())
	}
	if mode == ModeRDBRP {
		res.PostJoinPlan = buildPostJoinPlan(spec, outputs)
	}
	for _, alias := range outputs {
		var attrs []string
		if mode == ModeRDBRP {
			attrs = core.RelationshipPreservingAttrs(spec, alias)
		} else {
			attrs = dedupAttrs(spec.ProjectionOf(alias))
		}
		rel := reduced[strings.ToLower(alias)]
		set, err := projectSet(alias, rel, attrs, ec.run)
		if err != nil {
			return nil, err
		}
		if sp := tr.Span("output", alias); sp != nil {
			sp.Phase = "output"
			sp.RowsIn = rel.Len()
			sp.RowsOut = set.NumRows()
			sp.Bytes = set.WireSize()
		}
		res.Sets = append(res.Sets, set)
	}
	return res, nil
}

// relationshipRels lists the relations with non-empty A_i* (Definition 2.3):
// those contributing projected attributes or join attributes, in FROM order.
func relationshipRels(spec *engine.SPJSpec) []string {
	var out []string
	for _, r := range spec.Rels {
		if len(spec.ProjectionOf(r.Alias)) > 0 || len(spec.JoinAttrsOf(r.Alias)) > 0 {
			out = append(out, r.Alias)
		}
	}
	return out
}

// reduceSpec computes fully reduced base relations for the query's output
// relations, honoring the context's strategy, with the paper's plan choices
// (core.DefaultOptions). Queries the semi-join algorithm cannot handle
// (cross-relation residual predicates, disconnected join graphs)
// automatically use the Decompose strategy, which is always applicable.
func (d *Database) reduceSpec(ec execCtx, spec *engine.SPJSpec, outputs []string) (map[string]*engine.Relation, *core.Stats, error) {
	ex, tr := ec.executor(), ec.tr
	strategy := ec.strategy
	if len(spec.Residual) > 0 {
		strategy = StrategyDecompose
		tr.Note("cross-relation residual predicates present; using Decompose strategy")
	}
	if strategy == StrategySemiJoin {
		tr.SetStrategy("semijoin")
		tr.Note("strategy: native semi-join reduction")
		rels, err := ex.BaseRelations(spec)
		if err != nil {
			return nil, nil, err
		}
		reduced, stats, err := core.SemiJoinReduce(ex, spec, rels, outputs, core.DefaultOptions())
		if err == nil {
			return reduced, stats, nil
		}
		if !errors.Is(err, core.ErrDisconnected) {
			return nil, nil, err
		}
		// Cross product in the query: fall through to Decompose.
		tr.Note("join graph disconnected (cross product); falling back to Decompose strategy")
	}
	tr.SetStrategy("decompose")
	tr.Note("strategy: single-table plan + Decompose operator")
	joined, err := ex.RunSPJ(spec)
	if err != nil {
		return nil, nil, err
	}
	reduced, err := core.Decompose(ex, joined, outputs)
	if err != nil {
		return nil, nil, err
	}
	if tr.Enabled() {
		tr.Note(fmt.Sprintf("decompose into %d relations + dedup", len(outputs)))
	}
	return reduced, nil, nil
}

// statsOf is stats.Of for a statement that may be traced: if this call is the
// one that derives the version's statistics, the fold is timed and charged to
// the statement's trace as a build (from row 0) or an extension (of an
// ancestor's statistics by the rows added since) — EXPLAIN ANALYZE shows it
// next to the cache outcome.
func statsOf(t *storage.Table, tr *trace.Tracer) *stats.Table {
	if !tr.Enabled() {
		return stats.Of(t)
	}
	return t.Stats(func(t *storage.Table, base any) any {
		start := time.Now()
		b, _ := base.(*stats.Table)
		s := stats.Fold(t, b)
		if b == nil {
			tr.AddStatsBuild(start)
		} else {
			tr.AddStatsExtension(start, s.Rows-b.Rows)
		}
		return s
	}).(*stats.Table)
}

// PostJoin reconstructs the single-table result from a previously computed
// relationship-preserving subdatabase result (Definition 2.3). sets must
// come from QueryResultDB(sel, ModeRDBRP) of the same query. It derives the
// plan a shipped result would carry from sel and runs it like
// ExecutePostJoinPlan does.
func (d *Database) PostJoin(sel *sqlparse.Select, res *Result) (*ResultSet, error) {
	spec, err := engine.AnalyzeSPJ(stripResultDB(sel), d.Snapshot())
	if err != nil {
		return nil, err
	}
	returned := make([]string, len(res.Sets))
	for i, set := range res.Sets {
		returned[i] = set.Name
	}
	return boxedSet(executePostJoin(buildPostJoinPlan(spec, returned), res.Sets))
}

// stripResultDB returns sel with the ResultDB flag cleared (shallow copy),
// so the analyzer and single-table executor treat it as an ordinary query.
func stripResultDB(sel *sqlparse.Select) *sqlparse.Select {
	if !sel.ResultDB {
		return sel
	}
	clone := *sel
	clone.ResultDB = false
	return &clone
}

func dedupAttrs(attrs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range attrs {
		key := strings.ToLower(a)
		if !seen[key] {
			seen[key] = true
			out = append(out, a)
		}
	}
	return out
}

// projectSet projects a reduced full-width relation onto the chosen
// attributes and removes duplicates (set semantics of Definition 2.2). Both
// steps run at run's degree with deterministic output.
func projectSet(alias string, rel *engine.Relation, attrs []string, run parallel.Run) (*ResultSet, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		idx, err := rel.ColIndex(alias, a)
		if err != nil {
			return nil, err
		}
		cols[i] = idx
	}
	return relToSet(alias, rel.ProjectDistinctPar(cols, run), attrs), nil
}

// setToRelation rebuilds an alias-qualified relation from a result set so it
// can participate in a post-join: the set's own view under a schema whose
// kinds are read off the frame. Only a column that holds exact values (a
// decoded inline-text block, or a set NewResultSet made from rows) is typed
// here, so the join gathers its codes, not its strings.
func setToRelation(set *ResultSet) *engine.Relation {
	cols := make([]engine.ColRef, len(set.Columns))
	for i, c := range set.Columns {
		cols[i] = engine.ColRef{Rel: set.Name, Name: c, Kind: columnKind(set.Vec, i)}
	}
	frame := set.Vec.Frame
	typed := make([]colstore.Column, len(cols))
	for i := range typed {
		typed[i] = frame.Col(i)
		if exact, ok := typed[i].(*colstore.AnyColumn); ok {
			typed[i] = exact.Typed(cols[i].Kind)
		}
	}
	return &engine.Relation{Cols: cols, Vec: &colstore.View{Frame: colstore.FrameOf(frame.Rows(), typed), Sel: set.Vec.Sel}}
}

// columnKind is the kind of column i's non-NULL values: what its typed vector
// holds, or, for an exact-value column, the kind of its first selected
// non-NULL value; TEXT when there is none.
func columnKind(v *colstore.View, i int) types.Kind {
	col := v.Frame.Col(i)
	if kind := vectorKind(col); kind != types.KindNull {
		return kind
	}
	for j := 0; j < v.Len(); j++ {
		if x := col.Value(v.Index(j)); !x.IsNull() {
			return x.Kind()
		}
	}
	return types.KindText
}

// vectorKind is the kind a typed vector holds; KindNull for an exact-value
// column, which holds whatever it was given.
func vectorKind(col colstore.Column) types.Kind {
	switch col.(type) {
	case *colstore.Int64Column:
		return types.KindInt
	case *colstore.Float64Column:
		return types.KindFloat
	case *colstore.BoolColumn:
		return types.KindBool
	case *colstore.TextColumn:
		return types.KindText
	}
	return types.KindNull
}
