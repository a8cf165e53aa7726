package engine

import (
	"fmt"

	"resultdb/internal/colstore"
	"resultdb/internal/sqlparse"
)

// selectGrouped handles aggregate queries, with or without GROUP BY, with the
// operators every other query runs on: the grouping expressions of the
// joined, filtered input are projected into key columns, the position table
// numbers the groups (one implicit group when there is no GROUP BY), one loop
// accumulates every distinct aggregate call by group number, and the result
// is a frame — the key columns at each group's first row, then one column per
// aggregate call — that HAVING filters and the select list projects like any
// other relation: the binder resolves an aggregate call or a grouping
// expression to its column by SQL text.
//
// GROUP BY is an extension beyond the paper's SPJ scope (its future-work
// item 2); RESULTDB itself remains SPJ-only.
func (e *Executor) selectGrouped(sel *sqlparse.Select) (*Relation, error) {
	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("engine: cannot mix * with aggregates/GROUP BY")
		}
	}
	// Evaluate the joined, filtered input with all columns available.
	inner := &sqlparse.Select{
		Items: []sqlparse.SelectItem{{Star: true}},
		From:  sel.From,
		Where: sel.Where,
	}
	joined, err := e.Select(inner)
	if err != nil {
		return nil, err
	}
	if sel.Distinct && len(sel.GroupBy) == 0 {
		joined = joined.Distinct(e.Parallelism)
	}

	bySQL := map[string]int{}
	in := e.binder(joined.Cols)
	keyItems := make([]projItem, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		if keyItems[i], err = in.item(ColRef{Name: g.SQL()}, g); err != nil {
			return nil, fmt.Errorf("engine: GROUP BY: %w", err)
		}
		if keyItems[i].ev == nil {
			keyItems[i].col = joined.Cols[keyItems[i].src]
		}
		bySQL[g.SQL()] = i
	}
	keys, err := e.project(joined, keyItems, in)
	if err != nil {
		return nil, err
	}
	// No GROUP BY: one implicit group, even over no rows — its (empty) key
	// gathered from no row at all.
	first, gid := []int32{-1}, make([]int32, joined.Len())
	if len(sel.GroupBy) > 0 {
		first = colstore.GroupPositions(keys.Key(allCols(len(keys.Cols))), e.Parallelism, gid)
	}

	// Every distinct aggregate call of the select list and HAVING, once.
	var aggs []*sqlparse.FuncCall
	collect := func(x sqlparse.Expr) {
		if f, ok := x.(*sqlparse.FuncCall); ok {
			if _, seen := bySQL[f.SQL()]; !seen {
				bySQL[f.SQL()] = len(sel.GroupBy) + len(aggs)
				aggs = append(aggs, f)
			}
		}
	}
	for _, item := range sel.Items {
		sqlparse.WalkExpr(item.Expr, collect)
	}
	sqlparse.WalkExpr(sel.Having, collect)
	results, err := e.aggregate(joined, aggs, gid, len(first))
	if err != nil {
		return nil, err
	}

	grouped := &Relation{Cols: keys.Cols}
	aggCols := make([]colstore.Column, len(aggs))
	for i, f := range aggs {
		col, kind := typedColumn(results[i])
		aggCols[i] = col
		grouped.Cols = append(grouped.Cols, ColRef{Name: f.SQL(), Kind: kind})
	}
	grouped.Vec = &colstore.View{Frame: colstore.Zip(
		colstore.GatherView(keys.Vec, allCols(len(keys.Cols)), first, e.Parallelism),
		colstore.FrameOf(len(first), aggCols))}

	b := e.binder(grouped.Cols)
	b.bySQL = bySQL
	if sel.Having != nil {
		kept, err := e.keep(grouped.Vec, b, []sqlparse.Expr{sel.Having})
		if err != nil {
			return nil, fmt.Errorf("engine: HAVING: %w", err)
		}
		grouped = grouped.Narrow(kept)
	}
	out, err := e.projectItems(grouped, sel.Items, b)
	if err != nil {
		return nil, err
	}
	if sel.Distinct && len(sel.GroupBy) > 0 {
		out = out.Distinct(e.Parallelism)
	}
	return e.finish(out, sel)
}
