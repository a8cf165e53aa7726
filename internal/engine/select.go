package engine

import (
	"fmt"
	"sort"
	"strings"

	"resultdb/internal/colstore"
	"resultdb/internal/parallel"
	"resultdb/internal/sqlparse"
	"resultdb/internal/stats"
	"resultdb/internal/trace"
	"resultdb/internal/types"
)

// Executor evaluates SELECT statements against a Source.
type Executor struct {
	Src Source
	// DPJoinOrder switches the SPJ join ordering from the greedy heuristic
	// to the DPsize optimal search (see JoinAllDP). Greedy is the default.
	DPJoinOrder bool
	// Parallelism is the degree of intra-query parallelism for joins,
	// filters, and semi-joins: 0 resolves via RESULTDB_PARALLELISM or
	// GOMAXPROCS, 1 forces serial execution. Results are identical at any
	// degree (deterministic morsel merge).
	Parallelism int
	// CostBased switches the greedy SPJ join ordering from raw cardinality
	// to the statistics-driven estimate (joinAllStats), when StatsOf is also
	// set. DPJoinOrder takes precedence. The joined row multiset is
	// identical either way; row order may differ with the join order.
	CostBased bool
	// StatsOf resolves table statistics by table name (nil results are
	// tolerated: columns without stats fall back to worst-case NDVs).
	StatsOf func(table string) *stats.Table
	// Tracer, when non-nil, records per-operator spans (scan, join,
	// filter, project cardinalities and timings). Nil (the default) is the
	// disabled fast path: operators skip all recording on a single nil
	// check.
	Tracer *trace.Tracer
}

// Select evaluates sel and returns the single-table result. RESULTDB
// queries are not handled here (internal/db routes them to internal/core);
// the ResultDB flag is ignored so the same AST can be executed both ways.
func (e *Executor) Select(sel *sqlparse.Select) (*Relation, error) {
	if hasAggregates(sel.Items) || len(sel.GroupBy) > 0 || sel.Having != nil {
		if e.Tracer.Enabled() {
			e.Tracer.Note("sequential pipeline (non-SPJ query: outer join, aggregate, or computed select list)")
		}
		rel, err := e.selectGrouped(sel)
		// The grouped pipeline evaluates its join input through Select,
		// which records the inner strategy; the statement as a whole is
		// the sequential pipeline.
		e.Tracer.SetStrategy("sequential")
		return rel, err
	}
	if !hasOuterJoin(sel) {
		spec, err := AnalyzeSPJ(sel, e.Src)
		if err == nil {
			e.Tracer.SetStrategy("spj")
			joined, err := e.RunSPJ(spec)
			if err != nil {
				return nil, err
			}
			out, err := projectAttrs(joined, spec.Projection)
			if err != nil {
				return nil, err
			}
			if sel.Distinct {
				out = out.Distinct()
			}
			if sp := e.Tracer.Span("project", projectionLabel(spec)); sp != nil {
				sp.RowsIn = joined.Len()
				sp.RowsOut = out.Len()
				if sel.Distinct {
					sp.Detail = "distinct"
				}
			}
			return e.finish(out, sel)
		}
		// Analysis can fail for legitimate non-SPJ shapes (computed select
		// items); the sequential path below handles those. Genuine errors
		// (unknown columns) resurface there.
	}
	return e.selectSequential(sel)
}

// finish applies ORDER BY and LIMIT to the projected relation: the sort
// compares boxed rows and gathers the relation in the sorted order, LIMIT
// keeps a prefix of the selection.
func (e *Executor) finish(rel *Relation, sel *sqlparse.Select) (*Relation, error) {
	if len(sel.OrderBy) > 0 {
		keys := make([]int, len(sel.OrderBy))
		desc := make([]bool, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			cr, ok := o.Expr.(*sqlparse.ColumnRef)
			if !ok {
				return nil, fmt.Errorf("engine: ORDER BY supports column references only")
			}
			idx, err := rel.ColIndex(cr.Table, cr.Column)
			if err != nil {
				return nil, fmt.Errorf("engine: ORDER BY column must appear in the select list: %w", err)
			}
			keys[i] = idx
			desc[i] = o.Desc
		}
		rel = rel.sortBy(keys, desc)
	}
	if sel.Limit != nil && int64(rel.Len()) > *sel.Limit {
		rel = rel.Narrow(allPositions(int(*sel.Limit)))
	}
	return rel, nil
}

// sortBy returns r stably ordered by the given key columns (ascending unless
// desc).
func (r *Relation) sortBy(keys []int, desc []bool) *Relation {
	rows := r.Rows()
	order := allPositions(len(rows))
	sort.SliceStable(order, func(i, j int) bool {
		a, b := rows[order[i]], rows[order[j]]
		for k, col := range keys {
			c := types.Compare(a[col], b[col])
			if c == 0 {
				continue
			}
			if desc[k] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	f := colstore.GatherView(r.Vec, allCols(len(r.Cols)), order, 0)
	return &Relation{Cols: r.Cols, Vec: &colstore.View{Frame: f}}
}

// allPositions lists the row positions 0..n-1.
func allPositions(n int) []int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// RunSPJ executes the join part of an analyzed SPJ query: scan with pushed
// filters, greedy hash-join order by live cardinality, then residual
// predicates. The output schema contains every column of every relation,
// alias-qualified.
func (e *Executor) RunSPJ(spec *SPJSpec) (*Relation, error) {
	rels, err := e.BaseRelations(spec)
	if err != nil {
		return nil, err
	}
	var joined *Relation
	switch {
	case e.DPJoinOrder:
		joined, err = JoinAllDP(spec.JoinPreds, rels, e.Parallelism, e.Tracer)
	case e.CostBased && e.StatsOf != nil:
		joined, err = joinAllStats(spec, rels, e.StatsOf, e.Parallelism, e.Tracer)
	default:
		joined, err = JoinAll(spec.JoinPreds, rels, e.Parallelism, e.Tracer)
	}
	if err != nil {
		return nil, err
	}
	if len(spec.Residual) > 0 {
		before := joined.Len()
		joined, err = e.filter(joined, sqlparse.AndAll(spec.Residual))
		if err != nil {
			return nil, err
		}
		if sp := e.Tracer.Span("residual-filter", ""); sp != nil {
			sp.Phase = "join"
			sp.Detail = sqlparse.AndAll(spec.Residual).SQL()
			sp.RowsIn = before
			sp.RowsOut = joined.Len()
		}
	}
	return joined, nil
}

// projectionLabel renders the projected attribute list for trace spans.
func projectionLabel(spec *SPJSpec) string {
	var proj []string
	for _, a := range spec.Projection {
		proj = append(proj, a.String())
	}
	return strings.Join(proj, ", ")
}

// JoinAll joins all relations: start from the smallest, repeatedly add
// the connected relation with the smallest cardinality (falling back to a
// Cartesian product when the residual graph is disconnected). Cycle edges
// whose endpoints are already joined are applied inside the same step via
// composite keys, so every equi predicate is enforced exactly once.
//
// rels is keyed by lower-cased alias. It is also the post-join operator of
// the paper (Section 6.4): internal/core hands it the reduced relations.
// Each hash join runs at degree par (0 = auto, 1 = serial) and records one
// span on tr (nil = tracing disabled).
func JoinAll(preds []JoinPred, rels map[string]*Relation, par int, tr *trace.Tracer) (*Relation, error) {
	remaining := make(map[string]*Relation, len(rels))
	for k, v := range rels {
		remaining[k] = v
	}

	// Pick the smallest relation as the seed; cardinality ties break towards
	// the lexicographically smaller alias so the join order (and therefore
	// every traced cardinality) is deterministic across runs.
	var curAlias string
	for alias, rel := range remaining {
		if curAlias == "" ||
			rel.Len() < remaining[curAlias].Len() ||
			rel.Len() == remaining[curAlias].Len() && alias < curAlias {
			curAlias = alias
		}
	}
	cur := remaining[curAlias]
	delete(remaining, curAlias)
	inSet := map[string]bool{curAlias: true}

	connected := func(alias string) bool {
		for _, j := range preds {
			l, r := strings.ToLower(j.LeftRel), strings.ToLower(j.RightRel)
			if l == alias && inSet[r] || r == alias && inSet[l] {
				return true
			}
		}
		return false
	}

	for len(remaining) > 0 {
		// Choose the next relation: smallest among connected ones, else
		// smallest overall; ties break towards the smaller alias (see the
		// seed choice above).
		next := ""
		nextConnected := false
		for alias, rel := range remaining {
			c := connected(alias)
			switch {
			case next == "":
				next, nextConnected = alias, c
			case c && !nextConnected:
				next, nextConnected = alias, c
			case c == nextConnected && rel.Len() < remaining[next].Len():
				next = alias
			case c == nextConnected && rel.Len() == remaining[next].Len() && alias < next:
				next = alias
			}
		}
		nrel := remaining[next]
		delete(remaining, next)
		var err error
		cur, err = joinStep(cur, inSet, next, nrel, preds, par, tr, 0)
		if err != nil {
			return nil, err
		}
		inSet[next] = true
	}
	return cur, nil
}

// joinStep joins `next` into the current intermediate result, applying every
// predicate between next and the joined set in one hash join (cycle edges
// included, via composite keys). estOut, when non-zero, is the planner's
// estimated output cardinality, recorded in the span's strippable bracket.
func joinStep(cur *Relation, inSet map[string]bool, next string, nrel *Relation, preds []JoinPred, par int, tr *trace.Tracer, estOut int) (*Relation, error) {
	// Gather every join predicate between `next` and the joined set.
	var lCols, rCols []int
	for _, j := range preds {
		l, r := strings.ToLower(j.LeftRel), strings.ToLower(j.RightRel)
		var side JoinPred
		switch {
		case inSet[l] && r == next:
			side = j
		case inSet[r] && l == next:
			side = j.Reverse()
		default:
			continue
		}
		li, err := cur.ColIndex(side.LeftRel, side.LeftCol)
		if err != nil {
			return nil, err
		}
		ri, err := nrel.ColIndex(side.RightRel, side.RightCol)
		if err != nil {
			return nil, err
		}
		lCols = append(lCols, li)
		rCols = append(rCols, ri)
	}
	if err := crossCheck(lCols, rCols); err != nil {
		return nil, err
	}
	before := cur.Len()
	var sp *trace.Span
	if tr.Enabled() {
		op := "hash-join"
		if len(lCols) == 0 {
			op = "cross-join"
		}
		sp = tr.Span(op, next)
		sp.Phase = "join"
		sp.Keys = len(lCols)
		sp.RowsIn = before
		sp.RowsBuild = nrel.Len()
		sp.EstOut = estOut
	}
	cur = HashJoin(cur, nrel, lCols, rCols, par, sp)
	if sp != nil {
		sp.RowsOut = cur.Len()
		tr.AddRowsJoined(cur.Len())
	}
	return cur, nil
}

// BaseRelations scans every relation of an analyzed query with its
// pushed-down filters applied (the σ_F step). Keys are lower-cased aliases.
// internal/core reduces exactly these relations.
func (e *Executor) BaseRelations(spec *SPJSpec) (map[string]*Relation, error) {
	rels := make(map[string]*Relation, len(spec.Rels))
	for _, r := range spec.Rels {
		rel, err := e.baseRelation(r, spec.Filters[r.Alias])
		if err != nil {
			return nil, err
		}
		rels[strings.ToLower(r.Alias)] = rel
	}
	return rels, nil
}

// filter returns rel narrowed to the rows satisfying cond. The compiled
// predicate is evaluated over the boxed rows in parallel chunks (bound
// expressions are pure after binding); the passing positions are merged in
// input order.
func (e *Executor) filter(rel *Relation, cond sqlparse.Expr) (*Relation, error) {
	if cond == nil {
		return rel, nil
	}
	b := &binder{cols: rel.Cols, sub: e.subRunner()}
	check, err := b.bind(cond)
	if err != nil {
		return nil, err
	}
	rows := rel.Rows()
	kept, err := parallel.MapErr(len(rows), e.Parallelism, func(lo, hi int) ([]int32, error) {
		kept := make([]int32, 0, hi-lo)
		for j := lo; j < hi; j++ {
			v, err := check(rows[j])
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				kept = append(kept, int32(j))
			}
		}
		return kept, nil
	})
	if err != nil {
		return nil, err
	}
	return rel.Narrow(kept), nil
}

func (e *Executor) subRunner() SubqueryRunner {
	return func(sub *sqlparse.Select) (*Relation, error) {
		if sub.ResultDB {
			return nil, fmt.Errorf("engine: RESULTDB is not allowed in subqueries")
		}
		return e.Select(sub)
	}
}

// selectSequential executes FROM items left to right (required for outer
// joins, whose result depends on join order), then WHERE, projection,
// DISTINCT, ORDER BY, LIMIT.
func (e *Executor) selectSequential(sel *sqlparse.Select) (*Relation, error) {
	if e.Tracer.Enabled() {
		e.Tracer.SetStrategy("sequential")
		e.Tracer.Note("sequential pipeline (non-SPJ query: outer join, aggregate, or computed select list)")
	}
	var cur *Relation
	for _, item := range sel.From {
		base, err := e.baseRelation(RelRef{Alias: item.Ref.Name(), Table: item.Ref.Table}, nil)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			cur = base
		} else {
			cur = crossJoin(cur, base, e.Parallelism, nil) // comma join
		}
		for _, j := range item.Joins {
			right, err := e.baseRelation(RelRef{Alias: j.Ref.Name(), Table: j.Ref.Table}, nil)
			if err != nil {
				return nil, err
			}
			cur, err = joinOn(cur, right, j.On, j.Type == sqlparse.JoinLeftOuter, e.subRunner(), e.Parallelism)
			if err != nil {
				return nil, err
			}
		}
	}
	if cur == nil {
		return nil, fmt.Errorf("engine: query has no FROM clause")
	}
	var err error
	cur, err = e.filter(cur, sel.Where)
	if err != nil {
		return nil, err
	}
	out, err := e.projectItems(cur, sel.Items)
	if err != nil {
		return nil, err
	}
	if sel.Distinct {
		out = out.Distinct()
	}
	return e.finish(out, sel)
}

// projectAttrs projects an alias-qualified relation onto resolved attributes.
func projectAttrs(rel *Relation, attrs []Attr) (*Relation, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		idx, err := rel.ColIndex(a.Rel, a.Col)
		if err != nil {
			return nil, err
		}
		cols[i] = idx
	}
	return rel.Project(cols), nil
}

// projectItems evaluates a general select list (stars, columns, computed
// expressions) against rel.
func (e *Executor) projectItems(rel *Relation, items []sqlparse.SelectItem) (*Relation, error) {
	var outCols []ColRef
	var evals []boundExpr
	b := &binder{cols: rel.Cols, sub: e.subRunner()}
	for _, item := range items {
		switch {
		case item.Star && item.Table == "":
			for i, c := range rel.Cols {
				idx := i
				outCols = append(outCols, c)
				evals = append(evals, func(r types.Row) (types.Value, error) { return r[idx], nil })
			}
		case item.Star:
			positions := rel.ColumnsOf(item.Table)
			if len(positions) == 0 {
				return nil, fmt.Errorf("engine: unknown relation %q in %s.*", item.Table, item.Table)
			}
			for _, pos := range positions {
				idx := pos
				outCols = append(outCols, rel.Cols[pos])
				evals = append(evals, func(r types.Row) (types.Value, error) { return r[idx], nil })
			}
		default:
			ev, err := b.bind(item.Expr)
			if err != nil {
				return nil, err
			}
			col := ColRef{Name: item.Alias}
			if cr, ok := item.Expr.(*sqlparse.ColumnRef); ok {
				col.Rel = cr.Table
				if col.Name == "" {
					col.Name = cr.Column
				}
			}
			if col.Name == "" {
				col.Name = item.Expr.SQL()
			}
			outCols = append(outCols, col)
			evals = append(evals, ev)
		}
	}
	in := rel.Rows()
	rows := types.MakeRows(len(in), len(evals))
	for j, row := range in {
		for i, ev := range evals {
			v, err := ev(row)
			if err != nil {
				return nil, err
			}
			rows[j][i] = v
		}
	}
	return FromRows(outCols, rows), nil
}

// aggregate evaluates one aggregate call over the rows of a group.
func (e *Executor) aggregate(f *sqlparse.FuncCall, rows []types.Row, b *binder) (types.Value, types.Kind, error) {
	if f.Name == "COUNT" && f.Star {
		return types.NewInt(int64(len(rows))), types.KindInt, nil
	}
	if len(f.Args) != 1 {
		return types.Value{}, 0, fmt.Errorf("engine: %s expects one argument", f.Name)
	}
	ev, err := b.bind(f.Args[0])
	if err != nil {
		return types.Value{}, 0, err
	}
	switch f.Name {
	case "COUNT":
		var n int64
		for _, row := range rows {
			v, err := ev(row)
			if err != nil {
				return types.Value{}, 0, err
			}
			if !v.IsNull() {
				n++
			}
		}
		return types.NewInt(n), types.KindInt, nil
	case "SUM", "AVG":
		var sum float64
		var n int64
		allInt := true
		for _, row := range rows {
			v, err := ev(row)
			if err != nil {
				return types.Value{}, 0, err
			}
			if v.IsNull() {
				continue
			}
			if v.Kind() != types.KindInt {
				allInt = false
			}
			sum += v.Float()
			n++
		}
		if n == 0 {
			return types.Null(), types.KindNull, nil
		}
		if f.Name == "AVG" {
			return types.NewFloat(sum / float64(n)), types.KindFloat, nil
		}
		if allInt {
			return types.NewInt(int64(sum)), types.KindInt, nil
		}
		return types.NewFloat(sum), types.KindFloat, nil
	case "MIN", "MAX":
		var best types.Value
		first := true
		for _, row := range rows {
			v, err := ev(row)
			if err != nil {
				return types.Value{}, 0, err
			}
			if v.IsNull() {
				continue
			}
			if first {
				best = v
				first = false
				continue
			}
			c := types.Compare(v, best)
			if f.Name == "MIN" && c < 0 || f.Name == "MAX" && c > 0 {
				best = v
			}
		}
		if first {
			return types.Null(), types.KindNull, nil
		}
		return best, best.Kind(), nil
	}
	return types.Value{}, 0, fmt.Errorf("engine: unsupported function %s", f.Name)
}

func hasAggregates(items []sqlparse.SelectItem) bool {
	for _, item := range items {
		if item.Expr != nil && sqlparse.HasAggregate(item.Expr) {
			return true
		}
	}
	return false
}

func hasOuterJoin(sel *sqlparse.Select) bool {
	for _, item := range sel.From {
		for _, j := range item.Joins {
			if j.Type != sqlparse.JoinInner {
				return true
			}
		}
	}
	return false
}
