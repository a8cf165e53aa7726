// Package reference evaluates select-project-join queries the way
// Definitions 2.2 and 2.3 of the paper read, and nothing more: filter every
// base table row by row, join the survivors pairwise into the denormalized
// single-table result, and derive each output relation by projection and
// duplicate elimination. What a single-table statement has beyond that — LEFT
// OUTER JOIN ... ON, computed select items, GROUP BY, aggregates, HAVING, IN
// (SELECT ...) — is evaluated just as plainly: nested loops over boxed rows,
// groups kept in a list, one aggregate at a time over its group's rows. There
// are no semi-joins, no folding, no selections, no position tables, no
// parallelism and no tracing, so it shares no operator and no representation
// with the engine: a base table is read cell by cell (colstore.Column.Value,
// not the boxing kernel the engine's results come from) into the reference's
// own rows-only relation, and the only things it takes from internal/engine
// are schema-level — query analysis (which conjunct is a filter, which a join
// predicate), the column descriptor, and the bound expression that defines
// expression semantics.
//
// It is the reference the differential tests compare the engine against and
// must be imported from _test.go files only (verify.sh enforces that).
// Results are sets: row order carries no meaning, and ORDER BY and LIMIT are
// left to the caller.
package reference

import (
	"errors"
	"fmt"
	"strings"

	"resultdb/internal/engine"
	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
)

// ErrUnsupported marks a FROM/WHERE that is not a plain select-project-join
// (an outer join, say): a subdatabase is not defined over it, and SingleTable
// evaluates it by nested loops instead.
var ErrUnsupported = errors.New("reference: not a plain select-project-join")

// Set is one named output relation.
type Set struct {
	Name    string
	Columns []string
	Rows    []types.Row
}

// relation is the reference's own intermediate result: a schema and boxed
// tuples, nothing else.
type relation struct {
	cols []engine.ColRef
	rows []types.Row
}

// colIndex resolves alias.name against the schema (case-insensitively); an
// empty alias matches any.
func (r *relation) colIndex(alias, name string) (int, error) {
	for i, c := range r.cols {
		if (alias == "" || strings.EqualFold(c.Rel, alias)) && strings.EqualFold(c.Name, name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("reference: unknown column %s.%s", alias, name)
}

// Subdatabase evaluates sel with subdatabase semantics: one set per output
// relation holding its projected attributes (Definition 2.2), or, when
// preserving, one set per relation that contributes projected or join
// attributes, holding both (Definition 2.3). The RESULTDB flags on sel are
// ignored.
func Subdatabase(src engine.Source, sel *sqlparse.Select, preserving bool) ([]Set, error) {
	spec, joined, err := join(src, sel)
	if err != nil {
		return nil, err
	}
	var sets []Set
	for _, r := range spec.Rels {
		attrs := spec.ProjectionOf(r.Alias)
		if preserving {
			attrs = append(append([]string(nil), attrs...), spec.JoinAttrsOf(r.Alias)...)
		}
		attrs = dedupFold(attrs)
		if len(attrs) == 0 {
			continue
		}
		cols := make([]int, len(attrs))
		for i, a := range attrs {
			if cols[i], err = joined.colIndex(r.Alias, a); err != nil {
				return nil, err
			}
		}
		sets = append(sets, Set{Name: r.Alias, Columns: attrs, Rows: projectDistinct(joined.rows, cols, true)})
	}
	return sets, nil
}

// SingleTable evaluates sel as an ordinary query: FROM and WHERE (input),
// grouped when it aggregates (group), projected to the select list and
// deduplicated under SELECT DISTINCT. ORDER BY and LIMIT are ignored: the
// result is the set they would order and cut.
func SingleTable(src engine.Source, sel *sqlparse.Select) (Set, error) {
	in, err := input(src, sel)
	if err != nil {
		return Set{}, err
	}
	var bySQL map[string]int
	having, err := inline(src, sel.Having)
	if err != nil {
		return Set{}, err
	}
	aggregates := having != nil || len(sel.GroupBy) > 0
	for _, item := range sel.Items {
		aggregates = aggregates || item.Expr != nil && sqlparse.HasAggregate(item.Expr)
	}
	if aggregates {
		if in, bySQL, err = group(in, sel, having); err != nil {
			return Set{}, err
		}
	}
	// The select list: a star is every column (of one alias) in FROM order.
	set := Set{Name: "result"}
	var evals []func(types.Row) (types.Value, error)
	for _, item := range sel.Items {
		if !item.Star {
			ev, err := engine.BindExpr(in.cols, bySQL, item.Expr)
			if err != nil {
				return Set{}, err
			}
			evals = append(evals, ev)
			set.Columns = append(set.Columns, item.Expr.SQL())
			continue
		}
		for _, alias := range aliases(sel) {
			for i, c := range in.cols {
				if strings.EqualFold(c.Rel, alias) && (item.Table == "" || strings.EqualFold(alias, item.Table)) {
					evals = append(evals, func(r types.Row) (types.Value, error) { return r[i], nil })
					set.Columns = append(set.Columns, c.Rel+"."+c.Name)
				}
			}
		}
	}
	rows := make([]types.Row, len(in.rows))
	for j, row := range in.rows {
		rows[j] = make(types.Row, len(evals))
		for i, ev := range evals {
			if rows[j][i], err = ev(row); err != nil {
				return Set{}, err
			}
		}
	}
	all := make([]int, len(evals))
	for i := range all {
		all[i] = i
	}
	set.Rows = projectDistinct(rows, all, sel.Distinct)
	return set, nil
}

// aliases lists the relation aliases of sel in FROM order.
func aliases(sel *sqlparse.Select) []string {
	var out []string
	for _, item := range sel.From {
		out = append(out, item.Ref.Name())
		for _, j := range item.Joins {
			out = append(out, j.Ref.Name())
		}
	}
	return out
}

// inline returns e with every IN (SELECT ...) under its ANDs, ORs and NOTs
// replaced by the IN list of the values the reference computes for the
// subquery — the same three-valued membership test, over literals.
func inline(src engine.Source, e sqlparse.Expr) (sqlparse.Expr, error) {
	switch x := e.(type) {
	case *sqlparse.Binary:
		l, err := inline(src, x.L)
		if err != nil {
			return nil, err
		}
		r, err := inline(src, x.R)
		return &sqlparse.Binary{Op: x.Op, L: l, R: r}, err
	case *sqlparse.Unary:
		in, err := inline(src, x.E)
		return &sqlparse.Unary{Op: x.Op, E: in}, err
	case *sqlparse.InSubquery:
		set, err := SingleTable(src, x.Query)
		if err != nil || len(set.Columns) != 1 {
			return nil, fmt.Errorf("reference: IN subquery over %d columns: %v", len(set.Columns), err)
		}
		list := &sqlparse.InList{E: x.E, Not: x.Not}
		for _, row := range set.Rows {
			list.List = append(list.List, &sqlparse.Literal{Value: row[0]})
		}
		return list, nil
	}
	return e, nil
}

// input evaluates FROM and WHERE of sel into every column of every relation:
// the pairwise join of the analysis when they are select-project-join (join),
// otherwise the FROM items left to right by nested loops — a comma is the
// cross product, JOIN ... ON keeps the pairs ON is TRUE for, and LEFT OUTER
// pads a left row that kept none with NULLs — and then WHERE.
func input(src engine.Source, sel *sqlparse.Select) (*relation, error) {
	where, err := inline(src, sel.Where)
	if err != nil {
		return nil, err
	}
	star := &sqlparse.Select{Items: []sqlparse.SelectItem{{Star: true}}, From: sel.From, Where: where}
	if _, joined, err := join(src, star); !errors.Is(err, ErrUnsupported) {
		return joined, err
	}
	var cur *relation
	add := func(ref sqlparse.TableRef, on sqlparse.Expr, outer bool) error {
		base, err := scan(src, engine.RelRef{Alias: ref.Name(), Table: ref.Table}, nil)
		if err != nil || cur == nil {
			cur = base
			return err
		}
		out := &relation{cols: append(append([]engine.ColRef(nil), cur.cols...), base.cols...)}
		keep := func(types.Row) (bool, error) { return true, nil }
		if on, err = inline(src, on); err != nil {
			return err
		}
		if on != nil {
			if keep, err = engine.BindPredicate(out.cols, on); err != nil {
				return err
			}
		}
		for _, l := range cur.rows {
			matched := false
			for _, r := range base.rows {
				row := append(append(types.Row(nil), l...), r...)
				ok, err := keep(row)
				if err != nil {
					return err
				}
				if ok {
					matched = true
					out.rows = append(out.rows, row)
				}
			}
			if outer && !matched {
				out.rows = append(out.rows, append(append(types.Row(nil), l...), make(types.Row, len(base.cols))...))
			}
		}
		cur = out
		return nil
	}
	for _, item := range sel.From {
		if err := add(item.Ref, nil, false); err != nil {
			return nil, err
		}
		for _, j := range item.Joins {
			if err := add(j.Ref, j.On, j.Type == sqlparse.JoinLeftOuter); err != nil {
				return nil, err
			}
		}
	}
	if cur == nil {
		return nil, fmt.Errorf("reference: query has no FROM clause")
	}
	if where != nil {
		cur.rows, err = filter(cur, []sqlparse.Expr{where})
	}
	return cur, err
}

// group partitions in's rows by the GROUP BY expressions (everything is one
// group without them, even no rows), computes every aggregate call of the
// select list and HAVING over each group's rows, and returns one row per
// group that HAVING is TRUE for — the key values, then the aggregate values —
// with the map from SQL text to column the select list is bound under.
func group(in *relation, sel *sqlparse.Select, having sqlparse.Expr) (*relation, map[string]int, error) {
	out, bySQL := &relation{}, map[string]int{}
	keyOf := make([]func(types.Row) (types.Value, error), len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		var err error
		if keyOf[i], err = engine.BindExpr(in.cols, nil, g); err != nil {
			return nil, nil, err
		}
		col := engine.ColRef{Name: g.SQL()}
		if cr, ok := g.(*sqlparse.ColumnRef); ok {
			idx, _ := in.colIndex(cr.Table, cr.Column)
			col = in.cols[idx]
		}
		out.cols, bySQL[g.SQL()] = append(out.cols, col), i
	}
	var aggs []*sqlparse.FuncCall
	collect := func(x sqlparse.Expr) {
		if f, ok := x.(*sqlparse.FuncCall); ok {
			if _, seen := bySQL[f.SQL()]; !seen {
				aggs, bySQL[f.SQL()] = append(aggs, f), len(out.cols)
				out.cols = append(out.cols, engine.ColRef{Name: f.SQL()})
			}
		}
	}
	for _, item := range sel.Items {
		sqlparse.WalkExpr(item.Expr, collect)
	}
	sqlparse.WalkExpr(having, collect)

	type members struct {
		key  types.Row
		rows []types.Row
	}
	var groups []*members
	if len(sel.GroupBy) == 0 {
		groups = []*members{{}} // the empty key: one group of everything, even of no rows
	}
rows:
	for _, row := range in.rows {
		key := make(types.Row, len(keyOf))
		for i, of := range keyOf {
			var err error
			if key[i], err = of(row); err != nil {
				return nil, nil, err
			}
		}
		for _, g := range groups {
			if g.key.Equal(key) {
				g.rows = append(g.rows, row)
				continue rows
			}
		}
		groups = append(groups, &members{key: key, rows: []types.Row{row}})
	}
	for _, g := range groups {
		row := append(types.Row(nil), g.key...)
		for _, f := range aggs {
			v, err := aggregate(f, in.cols, g.rows)
			if err != nil {
				return nil, nil, err
			}
			row = append(row, v)
		}
		out.rows = append(out.rows, row)
	}
	if having != nil {
		keep, err := engine.BindExpr(out.cols, bySQL, having)
		if err != nil {
			return nil, nil, err
		}
		kept := out.rows[:0]
		for _, row := range out.rows {
			v, err := keep(row)
			if err != nil {
				return nil, nil, err
			}
			if v.Kind() == types.KindBool && v.Bool() {
				kept = append(kept, row)
			}
		}
		out.rows = kept
	}
	return out, bySQL, nil
}

// aggregate evaluates one aggregate call over the rows of a group: NULL
// arguments are skipped, COUNT counts, SUM of INTEGERs is an INTEGER, AVG a
// DOUBLE, and all but COUNT are NULL over no values.
func aggregate(f *sqlparse.FuncCall, cols []engine.ColRef, rows []types.Row) (types.Value, error) {
	if f.Star {
		return types.NewInt(int64(len(rows))), nil
	}
	arg, err := engine.BindExpr(cols, nil, f.Args[0])
	if err != nil {
		return types.Value{}, err
	}
	var vals []types.Value
	for _, row := range rows {
		v, err := arg(row)
		if err != nil {
			return types.Value{}, err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	if f.Name == "COUNT" {
		return types.NewInt(int64(len(vals))), nil
	}
	if len(vals) == 0 {
		return types.Null(), nil
	}
	best, ints, sum, exact := vals[0], true, 0.0, int64(0)
	for _, v := range vals {
		switch c := types.Compare(v, best); {
		case f.Name == "MIN" && c < 0, f.Name == "MAX" && c > 0:
			best = v
		case f.Name == "SUM", f.Name == "AVG":
			if v.Kind() == types.KindInt {
				exact += v.Int()
			} else {
				ints = false
			}
			sum += v.Float()
		}
	}
	switch {
	case f.Name == "AVG":
		return types.NewFloat(sum / float64(len(vals))), nil
	case f.Name == "SUM" && ints:
		return types.NewInt(exact), nil
	case f.Name == "SUM":
		return types.NewFloat(sum), nil
	}
	return best, nil
}

// join computes the denormalized result of sel: every column of every
// relation, alias-qualified, for every combination of rows that satisfies
// the filters, the join predicates and the residual predicates.
func join(src engine.Source, sel *sqlparse.Select) (*engine.SPJSpec, *relation, error) {
	plain := *sel
	plain.ResultDB, plain.Preserving = false, false
	spec, err := engine.AnalyzeSPJ(&plain, src)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	var cur *relation
	joinedAliases := map[string]bool{}
	remaining := append([]engine.RelRef(nil), spec.Rels...)
	for len(remaining) > 0 {
		// Next relation: the first one a join predicate connects to what is
		// joined so far, so a cross product happens only where the query has one.
		pick := 0
		for i, r := range remaining {
			if len(predsBetween(spec.JoinPreds, joinedAliases, r.Alias)) > 0 {
				pick = i
				break
			}
		}
		r := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		base, err := scan(src, r, spec.Filters[r.Alias])
		if err != nil {
			return nil, nil, err
		}
		if cur == nil {
			cur = base
		} else if cur, err = joinPair(cur, base, predsBetween(spec.JoinPreds, joinedAliases, r.Alias)); err != nil {
			return nil, nil, err
		}
		joinedAliases[strings.ToLower(r.Alias)] = true
	}
	if cur == nil {
		return nil, nil, fmt.Errorf("reference: query has no FROM clause")
	}
	if len(spec.Residual) > 0 {
		if cur.rows, err = filter(cur, spec.Residual); err != nil {
			return nil, nil, err
		}
	}
	return spec, cur, nil
}

// scan reads one base table under its alias and keeps the rows that satisfy
// every pushed-down filter conjunct.
func scan(src engine.Source, r engine.RelRef, filters []sqlparse.Expr) (*relation, error) {
	t, err := src.Table(r.Table)
	if err != nil {
		return nil, err
	}
	f := t.Columns()
	rel := &relation{cols: make([]engine.ColRef, f.NumCols()), rows: make([]types.Row, f.Rows())}
	for i, c := range t.Def.Columns {
		rel.cols[i] = engine.ColRef{Rel: r.Alias, Name: c.Name, Kind: c.Type}
	}
	for i := range rel.rows {
		rel.rows[i] = make(types.Row, f.NumCols())
		for c := range rel.rows[i] {
			rel.rows[i][c] = f.Col(c).Value(i)
		}
	}
	if len(filters) > 0 {
		if rel.rows, err = filter(rel, filters); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// filter keeps the rows for which every conjunct is TRUE. Conjuncts are
// evaluated in order and a row is dropped at the first that is not TRUE
// (NULL or FALSE), so later conjuncts never see it.
func filter(rel *relation, conds []sqlparse.Expr) ([]types.Row, error) {
	preds := make([]func(types.Row) (bool, error), len(conds))
	for i, c := range conds {
		var err error
		if preds[i], err = engine.BindPredicate(rel.cols, c); err != nil {
			return nil, err
		}
	}
	var out []types.Row
rows:
	for _, row := range rel.rows {
		for _, keep := range preds {
			ok, err := keep(row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue rows
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// predsBetween returns the join predicates with one side in the joined set
// and the other on alias, oriented joined-side-left.
func predsBetween(preds []engine.JoinPred, joined map[string]bool, alias string) []engine.JoinPred {
	var out []engine.JoinPred
	for _, p := range preds {
		switch {
		case joined[strings.ToLower(p.LeftRel)] && strings.EqualFold(p.RightRel, alias):
			out = append(out, p)
		case joined[strings.ToLower(p.RightRel)] && strings.EqualFold(p.LeftRel, alias):
			out = append(out, p.Reverse())
		}
	}
	return out
}

// joinPair joins l and r on the conjunction of preds (left side in l, right
// side in r); without predicates it is the cross product. r's rows are
// bucketed by key hash and every candidate pair is confirmed value by value.
// NULL keys never match.
func joinPair(l, r *relation, preds []engine.JoinPred) (*relation, error) {
	lCols, rCols := make([]int, len(preds)), make([]int, len(preds))
	for i, p := range preds {
		var err error
		if lCols[i], err = l.colIndex(p.LeftRel, p.LeftCol); err != nil {
			return nil, err
		}
		if rCols[i], err = r.colIndex(p.RightRel, p.RightCol); err != nil {
			return nil, err
		}
	}
	out := &relation{cols: append(append([]engine.ColRef(nil), l.cols...), r.cols...)}
	buckets := map[uint64][]types.Row{}
	for _, rr := range r.rows {
		if !hasNull(rr, rCols) {
			h := rr.HashKey(rCols)
			buckets[h] = append(buckets[h], rr)
		}
	}
	for _, lr := range l.rows {
		if hasNull(lr, lCols) {
			continue
		}
		for _, rr := range buckets[lr.HashKey(lCols)] {
			if lr.Project(lCols).Equal(rr.Project(rCols)) {
				out.rows = append(out.rows, append(append(types.Row(nil), lr...), rr...))
			}
		}
	}
	return out, nil
}

func hasNull(row types.Row, cols []int) bool {
	for _, c := range cols {
		if row[c].IsNull() {
			return true
		}
	}
	return false
}

// projectDistinct projects rows onto cols, keeping the first of every group
// of equal projected rows when distinct is set (NULLs group together).
func projectDistinct(rows []types.Row, cols []int, distinct bool) []types.Row {
	seen := map[uint64][]types.Row{}
	var out []types.Row
rows:
	for _, row := range rows {
		p := row.Project(cols)
		if distinct {
			h := p.Hash()
			for _, q := range seen[h] {
				if q.Equal(p) {
					continue rows
				}
			}
			seen[h] = append(seen[h], p)
		}
		out = append(out, p)
	}
	return out
}

// dedupFold removes case-insensitive duplicates, keeping first occurrences.
func dedupFold(names []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range names {
		if k := strings.ToLower(n); !seen[k] {
			seen[k] = true
			out = append(out, n)
		}
	}
	return out
}
