package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"resultdb/internal/colstore"
	"resultdb/internal/parallel"
	"resultdb/internal/sqlparse"
	"resultdb/internal/stats"
	"resultdb/internal/trace"
	"resultdb/internal/types"
)

// Executor evaluates SELECT statements against a Source. It is also how one
// statement executes everywhere else: internal/core's reduction, folds and
// Decompose take the statement's executor for its degree, tracer and
// statistics.
type Executor struct {
	Src Source
	// Parallelism is the degree of intra-query parallelism for joins,
	// filters, semi-joins and DISTINCT: 0 resolves to GOMAXPROCS, 1 forces
	// serial execution. Results are identical at any degree (deterministic
	// morsel merge).
	Parallelism int
	// StatsOf resolves table statistics by table name. When set, the greedy
	// SPJ join order scores candidates by estimated join output instead of
	// raw cardinality (see JoinAll), and internal/core plans reduction with
	// the cost model (see AliasStats). Nil results are tolerated: columns
	// without stats fall back to worst-case NDVs.
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
				out = out.Distinct(e.Parallelism)
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
// compares the key columns' values and gathers the relation in the sorted
// order, LIMIT keeps a prefix of the selection.
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
// desc): the key columns' values are boxed once, a permutation is sorted over
// them, and every column is gathered in that order.
func (r *Relation) sortBy(keys []int, desc []bool) *Relation {
	vals := make([][]types.Value, len(keys))
	for k, col := range keys {
		vals[k] = make([]types.Value, r.Len())
		for j := range vals[k] {
			vals[k][j] = r.Vec.Frame.Col(col).Value(r.Vec.Index(j))
		}
	}
	order := allPositions(r.Len())
	sort.SliceStable(order, func(i, j int) bool {
		for k := range keys {
			c := types.Compare(vals[k][order[i]], vals[k][order[j]])
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
// filters, greedy hash-join order (JoinAll, by estimated output with the
// executor's statistics), then residual predicates. The output schema
// contains every column of every relation, alias-qualified.
func (e *Executor) RunSPJ(spec *SPJSpec) (*Relation, error) {
	rels, err := e.BaseRelations(spec)
	if err != nil {
		return nil, err
	}
	joined, err := e.JoinAll(spec, rels, nil)
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

// AliasStats maps each of spec's aliases (lower-cased) to its table's
// statistics, or is nil when the executor has no StatsOf. An alias whose
// table has none (a view dropped mid-flight, say) is absent; the cost model
// counts its key columns as all-distinct.
func (e *Executor) AliasStats(spec *SPJSpec) map[string]*stats.Table {
	if e.StatsOf == nil {
		return nil
	}
	out := make(map[string]*stats.Table, len(spec.Rels))
	for _, r := range spec.Rels {
		if st := e.StatsOf(r.Table); st != nil {
			out[strings.ToLower(r.Alias)] = st
		}
	}
	return out
}

// JoinAll joins all relations greedily: start from the smallest, repeatedly
// add the best-scoring relation connected to the joined set (falling back to
// a Cartesian product when the residual graph is disconnected, as late as
// possible). A candidate's score is its estimated join output when
// statistics are given — the containment model |A ⋈ B| ≈ |A|·|B| /
// Π_p max(ndv_A(p), ndv_B(p)), base-table NDVs capped by the actual
// cardinalities, see estJoin — and its cardinality without them (the client
// post-join). Ties break towards the lexicographically smaller alias, so the
// join order (and therefore every traced cardinality) is deterministic across
// runs. Cycle edges whose endpoints are already joined are applied inside the
// same step via composite keys, so every equi predicate is enforced exactly
// once.
//
// The joined rows are positions until the end (see joined): a step reads its
// key columns through them, and the output gathers each of its columns once —
// the attributes project lists, in that order, or every column of every
// relation, in join order, when project is nil. A lone relation is returned
// as it is, projected.
//
// JoinAll joins on spec's join predicates, with the statistics of spec's
// relations (AliasStats); rels is keyed by lower-cased alias. JoinAll is also
// the post-join operator of the paper (Section 6.4): internal/core hands it
// the reduced relations under a spec of their predicates alone, which names
// no table. The join order never changes the joined row multiset, only its
// row order. Each hash join runs at the executor's degree and records one
// span on its tracer, with the estimate when there is one.
func (e *Executor) JoinAll(spec *SPJSpec, rels map[string]*Relation, project []Attr) (*Relation, error) {
	preds, st, par, tr := spec.JoinPreds, e.AliasStats(spec), e.Parallelism, e.Tracer
	remaining := make(map[string]*Relation, len(rels))
	for k, v := range rels {
		remaining[k] = v
	}

	// Pick the smallest relation as the seed, ties towards the smaller alias.
	var curAlias string
	for alias, rel := range remaining {
		if curAlias == "" ||
			rel.Len() < remaining[curAlias].Len() ||
			rel.Len() == remaining[curAlias].Len() && alias < curAlias {
			curAlias = alias
		}
	}
	seed := remaining[curAlias]
	cur := &joined{rels: []*Relation{seed}, cols: seed.Cols, n: seed.Len()}
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
		// Choose the next relation: the best score among connected ones,
		// else among all.
		next := ""
		nextConnected := false
		nextScore := 0.0
		for alias, rel := range remaining {
			c, score := connected(alias), float64(rel.Len())
			if st != nil {
				score = estJoin(cur, inSet, alias, rel, preds, st)
			}
			switch {
			case next == "":
			case c && !nextConnected:
			case c != nextConnected:
				continue
			case score < nextScore:
			case score == nextScore && alias < next:
			default:
				continue
			}
			next, nextConnected, nextScore = alias, c, score
		}
		estOut := 0
		if st != nil {
			estOut = int(nextScore + 0.5)
		}
		nrel := remaining[next]
		delete(remaining, next)
		if err := cur.join(inSet, next, nrel, preds, par, tr, estOut); err != nil {
			return nil, err
		}
		inSet[next] = true
	}
	var cols []int // nil: every column
	if project != nil {
		cols = make([]int, len(project))
	}
	for i, a := range project {
		idx, err := colIndex(cur.cols, a.Rel, a.Col)
		if err != nil {
			return nil, err
		}
		cols[i] = idx
	}
	return cur.relation(cols, par), nil
}

// estJoin estimates |cur ⋈ rel| for the candidate alias: |cur|·|rel| through
// stats.JoinRows once per predicate linking it to the joined set, each key
// column's NDV its base-table NDV from st capped by its relation's actual
// cardinality (stats.KeyNDV; a candidate no predicate links is a cross
// product).
func estJoin(cur *joined, inSet map[string]bool, alias string, rel *Relation, preds []JoinPred, st map[string]*stats.Table) float64 {
	ndvOf := func(cols []ColRef, n, col int) float64 {
		c := cols[col]
		return stats.KeyNDV(float64(n), st[strings.ToLower(c.Rel)].NDV(c.Name))
	}
	est := float64(cur.n) * float64(rel.Len())
	for _, j := range preds {
		l, r := strings.ToLower(j.LeftRel), strings.ToLower(j.RightRel)
		var side JoinPred
		switch {
		case inSet[l] && r == alias:
			side = j
		case inSet[r] && l == alias:
			side = j.Reverse()
		default:
			continue
		}
		li, err := colIndex(cur.cols, side.LeftRel, side.LeftCol)
		if err != nil {
			continue
		}
		ri, err := rel.ColIndex(side.RightRel, side.RightCol)
		if err != nil {
			continue
		}
		est = stats.JoinRows(est, ndvOf(cur.cols, cur.n, li), ndvOf(rel.Cols, rel.Len(), ri))
	}
	return est
}

// joined is JoinAll's intermediate result, kept as positions: the base
// relations joined so far, in join order, and for each the logical positions
// of its rows in the n joined rows. Before the first join pos is nil and the
// seed is the joined rows, every row in order. No column is gathered until a
// step needs it as a key, or the output does.
type joined struct {
	rels []*Relation
	pos  [][]int32
	cols []ColRef // the schema: every relation's columns, in join order
	n    int
}

// at returns the relation k and its column col that schema column c is.
func (j *joined) at(c int) (k, col int) {
	for k, r := range j.rels {
		if c < len(r.Cols) {
			return k, c
		}
		c -= len(r.Cols)
	}
	panic("engine: joined column out of range")
}

// key addresses the schema columns cols of the joined rows: the seed's own
// view while it is alone, else those columns alone gathered through their
// relations' positions.
func (j *joined) key(cols []int, par int) colstore.Key {
	if j.pos == nil {
		return j.rels[0].Key(cols)
	}
	kc := make([]colstore.Column, len(cols))
	for i, c := range cols {
		k, col := j.at(c)
		kc[i] = colstore.GatherView(j.rels[k].Vec, []int{col}, j.pos[k], par).Col(0)
	}
	return colstore.ViewKey(&colstore.View{Frame: colstore.FrameOf(j.n, kc)}, allCols(len(cols)))
}

// join joins nrel, under alias next, into the joined rows, applying every
// predicate between next and the joined set in one hash join (cycle edges
// included, via composite keys) built on the smaller side, as HashJoin
// builds — or as a Cartesian product when none links them. estOut, when
// non-zero, is the planner's estimated output cardinality, recorded in the
// span's strippable bracket.
func (j *joined) join(inSet map[string]bool, next string, nrel *Relation, preds []JoinPred, par int, tr *trace.Tracer, estOut int) error {
	// Gather every join predicate between `next` and the joined set.
	var lCols, rCols []int
	for _, p := range preds {
		l, r := strings.ToLower(p.LeftRel), strings.ToLower(p.RightRel)
		var side JoinPred
		switch {
		case inSet[l] && r == next:
			side = p
		case inSet[r] && l == next:
			side = p.Reverse()
		default:
			continue
		}
		li, err := colIndex(j.cols, side.LeftRel, side.LeftCol)
		if err != nil {
			return err
		}
		ri, err := nrel.ColIndex(side.RightRel, side.RightCol)
		if err != nil {
			return err
		}
		lCols = append(lCols, li)
		rCols = append(rCols, ri)
	}
	if err := crossCheck(lCols, rCols); err != nil {
		return err
	}
	var sp *trace.Span
	if tr.Enabled() {
		op := "hash-join"
		if len(lCols) == 0 {
			op = "cross-join"
		}
		sp = tr.Span(op, next)
		sp.Phase = "join"
		sp.Keys = len(lCols)
		sp.RowsIn = j.n
		sp.RowsBuild = nrel.Len()
		sp.EstOut = estOut
	}
	var lpos, rpos []int32
	if len(lCols) == 0 {
		lpos, rpos = crossPositions(j.n, nrel.Len(), par, sp)
	} else {
		lpos, rpos = equiPositions(j.key(lCols, par), nrel.Key(rCols), nrel.Len() > j.n, par, sp)
	}
	j.extend(nrel, lpos, rpos, par)
	if sp != nil {
		sp.RowsOut = j.n
	}
	return nil
}

// extend makes the joined rows those of the join with nrel whose row i is
// joined row lpos[i] and nrel's row rpos[i]: every relation's positions are
// read through lpos, and rpos are nrel's.
func (j *joined) extend(nrel *Relation, lpos, rpos []int32, par int) {
	if j.pos == nil {
		j.pos = [][]int32{lpos}
	} else {
		pos := make([][]int32, len(j.pos))
		parallel.Each(len(pos), par, func(k int) {
			pos[k] = make([]int32, len(lpos))
			for i, p := range lpos {
				pos[k][i] = j.pos[k][p]
			}
		})
		j.pos = pos
	}
	j.pos = append(j.pos, rpos)
	j.rels = append(j.rels, nrel)
	j.cols = concatCols(j.cols, nrel.Cols)
	j.n = len(lpos)
}

// relation materializes the joined rows' schema columns cols, in that order
// (nil: every column in schema order), gathering each distinct column once:
// one gather per relation, of its columns among cols, through its positions.
// Before the first join it is the seed itself, projected.
func (j *joined) relation(cols []int, par int) *Relation {
	if j.pos == nil {
		if cols == nil {
			return j.rels[0]
		}
		return j.rels[0].Project(cols)
	}
	if cols == nil {
		cols = allCols(len(j.cols))
	}
	out := make([]colstore.Column, len(cols))
	for k, rel := range j.rels {
		var mine []int // rel's columns among cols, each once
		for _, c := range cols {
			if kc, col := j.at(c); kc == k && !slices.Contains(mine, col) {
				mine = append(mine, col)
			}
		}
		if len(mine) == 0 {
			continue
		}
		f := colstore.GatherView(rel.Vec, mine, j.pos[k], par)
		for i, c := range cols {
			if kc, col := j.at(c); kc == k {
				out[i] = f.Col(slices.Index(mine, col))
			}
		}
	}
	schema := make([]ColRef, len(cols))
	for i, c := range cols {
		schema[i] = j.cols[c]
	}
	return &Relation{Cols: schema, Vec: &colstore.View{Frame: colstore.FrameOf(j.n, out)}}
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

// filter returns rel narrowed to the rows satisfying cond (see keep).
func (e *Executor) filter(rel *Relation, cond sqlparse.Expr) (*Relation, error) {
	if cond == nil {
		return rel, nil
	}
	kept, err := e.keep(rel.Vec, e.binder(rel.Cols), []sqlparse.Expr{cond})
	if err != nil {
		return nil, err
	}
	return rel.Narrow(kept), nil
}

// binder returns a binder over the schema cols whose IN (SELECT ...)
// predicates run their subquery on e.
func (e *Executor) binder(cols []ColRef) *binder {
	return &binder{cols: cols, sub: func(sub *sqlparse.Select) (*Relation, error) {
		if sub.ResultDB {
			return nil, fmt.Errorf("engine: RESULTDB is not allowed in subqueries")
		}
		return e.Select(sub)
	}}
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
			cur, err = e.joinOn(cur, right, j.On, j.Type == sqlparse.JoinLeftOuter)
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
	out, err := e.projectItems(cur, sel.Items, e.binder(cur.Cols))
	if err != nil {
		return nil, err
	}
	if sel.Distinct {
		out = out.Distinct(e.Parallelism)
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

// projItem is one output column of project: column src of the input, or,
// when ev is set, an expression computed per row.
type projItem struct {
	col ColRef
	src int
	ev  boundExpr
}

// item binds e as the output column col: the input column it resolves to
// (whose kind col takes), or else a computed expression.
func (b *binder) item(col ColRef, e sqlparse.Expr) (projItem, error) {
	idx, ok, err := b.column(e)
	if err != nil {
		return projItem{}, err
	}
	if ok {
		col.Kind = b.cols[idx].Kind
		return projItem{col: col, src: idx}, nil
	}
	ev, err := b.bind(e)
	return projItem{col: col, ev: ev}, err
}

// projectItems evaluates a general select list (stars, columns, computed
// expressions) against rel, whose schema b binds.
func (e *Executor) projectItems(rel *Relation, items []sqlparse.SelectItem, b *binder) (*Relation, error) {
	var out []projItem
	for _, item := range items {
		switch {
		case item.Star:
			positions := allCols(len(rel.Cols))
			if item.Table != "" {
				if positions = rel.ColumnsOf(item.Table); len(positions) == 0 {
					return nil, fmt.Errorf("engine: unknown relation %q in %s.*", item.Table, item.Table)
				}
			}
			for _, pos := range positions {
				out = append(out, projItem{col: rel.Cols[pos], src: pos})
			}
		default:
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
			it, err := b.item(col, item.Expr)
			if err != nil {
				return nil, err
			}
			out = append(out, it)
		}
	}
	return e.project(rel, out, b)
}

// project returns rel's rows under the columns items describe, bound by b.
// Input columns are the same vectors (and dictionaries) under the same
// selection — Relation.Project — unless an item is computed: then its values,
// evaluated through the cursor row by row, become one new column
// (typedColumn) and the input columns are gathered dense beside it.
func (e *Executor) project(rel *Relation, items []projItem, b *binder) (*Relation, error) {
	n := rel.Len()
	out := &Relation{Cols: make([]ColRef, len(items))}
	var srcs []int
	vals := make([][]types.Value, len(items)) // of the computed items
	for i, it := range items {
		out.Cols[i] = it.col
		if it.ev == nil {
			srcs = append(srcs, it.src)
		} else {
			vals[i] = make([]types.Value, n)
		}
	}
	if len(srcs) == len(items) {
		out.Vec = rel.Project(srcs).Vec
		return out, nil
	}
	row := make(types.Row, len(rel.Cols))
	load := b.cursor(row, rel.Vec.Frame, 0)
	for j := 0; j < n; j++ {
		load(rel.Vec.Index(j))
		for i, it := range items {
			if it.ev == nil {
				continue
			}
			var err error
			if vals[i][j], err = it.ev(row); err != nil {
				return nil, err
			}
		}
	}
	shared := rel.Vec.Frame.Project(srcs)
	if rel.Vec.Sel != nil {
		shared = colstore.GatherView(rel.Vec, srcs, allPositions(n), e.Parallelism)
	}
	cols := make([]colstore.Column, len(items))
	next := 0
	for i, it := range items {
		if it.ev == nil {
			cols[i] = shared.Col(next)
			next++
			continue
		}
		cols[i], out.Cols[i].Kind = typedColumn(vals[i])
	}
	out.Vec = &colstore.View{Frame: colstore.FrameOf(n, cols)}
	return out, nil
}

// typedColumn wraps computed values in the vector of their kind — the first
// non-NULL value's; an exact-value column when a later value is of another.
func typedColumn(vals []types.Value) (colstore.Column, types.Kind) {
	kind := types.KindNull
	for _, v := range vals {
		if !v.IsNull() {
			kind = v.Kind()
			break
		}
	}
	return (&colstore.AnyColumn{Vals: vals}).Typed(kind), kind
}

// accum is the running state of one aggregate call in one group.
type accum struct {
	n     int64 // rows counted: every one for COUNT(*), else the non-NULL arguments
	sum   float64
	float bool        // SUM saw an argument that is not an INTEGER
	best  types.Value // MIN, MAX
}

// aggregate evaluates the aggregate calls aggs over rel's rows, row j in group
// gid[j] of groups, in one loop: each argument is read through the cursor and
// folded into its call's accumulator for that group. NULL arguments are
// skipped; COUNT counts, SUM of INTEGERs stays INTEGER, AVG is DOUBLE, MIN and
// MAX order by types.Compare, and all but COUNT are NULL over no values.
// results[i][g] is aggs[i] in group g.
func (e *Executor) aggregate(rel *Relation, aggs []*sqlparse.FuncCall, gid []int32, groups int) ([][]types.Value, error) {
	b := e.binder(rel.Cols)
	args := make([]boundExpr, len(aggs)) // nil: COUNT(*)
	for i, f := range aggs {
		switch f.Name {
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
		default:
			return nil, fmt.Errorf("engine: unsupported function %s", f.Name)
		}
		if f.Name == "COUNT" && f.Star {
			continue
		}
		if len(f.Args) != 1 {
			return nil, fmt.Errorf("engine: %s expects one argument", f.Name)
		}
		var err error
		if args[i], err = b.bind(f.Args[0]); err != nil {
			return nil, err
		}
	}
	acc := make([]accum, len(aggs)*groups)
	row := make(types.Row, len(rel.Cols))
	load := b.cursor(row, rel.Vec.Frame, 0)
	for j, g := range gid {
		load(rel.Vec.Index(j))
		for i, f := range aggs {
			a := &acc[i*groups+int(g)]
			if args[i] == nil {
				a.n++
				continue
			}
			v, err := args[i](row)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			a.n++
			switch f.Name {
			case "SUM", "AVG":
				if !numeric(v) {
					return nil, fmt.Errorf("engine: %s on non-numeric %s", f.Name, v.Kind())
				}
				a.float = a.float || v.Kind() != types.KindInt
				a.sum += v.Float()
			case "MIN", "MAX":
				if c := types.Compare(v, a.best); a.n == 1 || f.Name == "MIN" && c < 0 || f.Name == "MAX" && c > 0 {
					a.best = v
				}
			}
		}
	}
	results := make([][]types.Value, len(aggs))
	for i, f := range aggs {
		results[i] = make([]types.Value, groups)
		for g := range results[i] {
			a := &acc[i*groups+g]
			switch {
			case f.Name == "COUNT":
				results[i][g] = types.NewInt(a.n)
			case a.n == 0: // stays NULL
			case f.Name == "AVG":
				results[i][g] = types.NewFloat(a.sum / float64(a.n))
			case f.Name == "SUM" && a.float:
				results[i][g] = types.NewFloat(a.sum)
			case f.Name == "SUM":
				results[i][g] = types.NewInt(int64(a.sum))
			default:
				results[i][g] = a.best
			}
		}
	}
	return results, nil
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
