// Package reference evaluates select-project-join queries the way
// Definitions 2.2 and 2.3 of the paper read, and nothing more: filter every
// base table row by row, join the survivors pairwise into the denormalized
// single-table result, and derive each output relation by projection and
// duplicate elimination. There are no semi-joins, no folding, no selections,
// no parallelism and no tracing, so it shares no operator and no
// representation with the engine: a base table is read cell by cell
// (colstore.Column.Value, not the boxing kernel the engine's results come
// from) into the reference's own rows-only relation, and the only things it
// takes from internal/engine are schema-level — query analysis (which
// conjunct is a filter, which a join predicate), the column descriptor, and
// the bound expression that defines predicate semantics.
//
// It is the reference the differential tests compare the engine against and
// must be imported from _test.go files only (verify.sh enforces that).
// Results are sets: row order carries no meaning.
package reference

import (
	"errors"
	"fmt"
	"strings"

	"resultdb/internal/engine"
	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
)

// ErrUnsupported marks a statement outside the reference's scope: anything
// that is not a plain select-project-join (outer joins, aggregates, computed
// select items, ORDER BY, LIMIT).
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

// colIndex resolves alias.name against the schema (case-insensitively).
func (r *relation) colIndex(alias, name string) (int, error) {
	for i, c := range r.cols {
		if strings.EqualFold(c.Rel, alias) && strings.EqualFold(c.Name, name) {
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

// SingleTable evaluates sel as an ordinary SPJ query: the join projected to
// the select list, deduplicated under SELECT DISTINCT.
func SingleTable(src engine.Source, sel *sqlparse.Select) (Set, error) {
	if len(sel.OrderBy) > 0 || sel.Limit != nil {
		return Set{}, fmt.Errorf("%w: ORDER BY/LIMIT", ErrUnsupported)
	}
	spec, joined, err := join(src, sel)
	if err != nil {
		return Set{}, err
	}
	set := Set{Name: "result"}
	cols := make([]int, len(spec.Projection))
	for i, a := range spec.Projection {
		if cols[i], err = joined.colIndex(a.Rel, a.Col); err != nil {
			return Set{}, err
		}
		set.Columns = append(set.Columns, a.String())
	}
	set.Rows = projectDistinct(joined.rows, cols, sel.Distinct)
	return set, nil
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
