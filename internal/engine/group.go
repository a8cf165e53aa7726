package engine

import (
	"fmt"

	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
)

// selectGrouped handles aggregate queries, with or without GROUP BY: the
// joined, filtered input is partitioned by the grouping expressions (one
// implicit group when there are none), every select item is evaluated per
// group (aggregates over the group's rows, other expressions over the
// grouping key), and HAVING filters the groups.
//
// GROUP BY is an extension beyond the paper's SPJ scope (its future-work
// item 2); RESULTDB itself remains SPJ-only.
func (e *Executor) selectGrouped(sel *sqlparse.Select) (*Relation, error) {
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
		joined = joined.Distinct()
	}
	b := &binder{cols: joined.Cols, sub: e.subRunner()}
	rows := joined.Rows()

	// Partition by the grouping key.
	keyEvals := make([]boundExpr, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		keyEvals[i], err = b.bind(g)
		if err != nil {
			return nil, fmt.Errorf("engine: GROUP BY: %w", err)
		}
	}
	type group struct {
		key  types.Row
		rows []types.Row
	}
	var groups []*group
	if len(sel.GroupBy) == 0 {
		groups = []*group{{rows: rows}}
	} else {
		index := map[uint64][]*group{}
		for _, row := range rows {
			key := make(types.Row, len(keyEvals))
			for i, ev := range keyEvals {
				key[i], err = ev(row)
				if err != nil {
					return nil, err
				}
			}
			h := key.Hash()
			var g *group
			for _, cand := range index[h] {
				if cand.key.Equal(key) {
					g = cand
					break
				}
			}
			if g == nil {
				g = &group{key: key}
				index[h] = append(index[h], g)
				groups = append(groups, g)
			}
			g.rows = append(g.rows, row)
		}
	}

	// Output schema: one column per select item.
	var outCols []ColRef
	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("engine: cannot mix * with aggregates/GROUP BY")
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
	}

	groupBySQL := map[string]int{}
	for i, g := range sel.GroupBy {
		groupBySQL[g.SQL()] = i
	}

	var outRows []types.Row
	for _, g := range groups {
		row := make(types.Row, len(sel.Items))
		for i, item := range sel.Items {
			v, err := e.evalGroupExpr(item.Expr, g.key, groupBySQL, g.rows, b)
			if err != nil {
				return nil, err
			}
			row[i] = v
			if !v.IsNull() && outCols[i].Kind == types.KindNull {
				outCols[i].Kind = v.Kind()
			}
		}
		if sel.Having != nil {
			hv, err := e.evalGroupExpr(sel.Having, g.key, groupBySQL, g.rows, b)
			if err != nil {
				return nil, fmt.Errorf("engine: HAVING: %w", err)
			}
			if !truthy(hv) {
				continue
			}
		}
		outRows = append(outRows, row)
	}
	out := FromRows(outCols, outRows)
	if sel.Distinct && len(sel.GroupBy) > 0 {
		out = out.Distinct()
	}
	return e.finish(out, sel)
}

// evalGroupExpr evaluates an expression in grouped context: aggregate calls
// run over the group's rows, grouping expressions resolve to the group key,
// and scalar operators recurse. A column reference that is neither grouped
// nor inside an aggregate is an error (the usual SQL rule).
func (e *Executor) evalGroupExpr(expr sqlparse.Expr, key types.Row,
	groupBySQL map[string]int, rows []types.Row, b *binder) (types.Value, error) {
	if i, ok := groupBySQL[expr.SQL()]; ok {
		return key[i], nil
	}
	switch x := expr.(type) {
	case *sqlparse.Literal:
		return x.Value, nil
	case *sqlparse.FuncCall:
		v, _, err := e.aggregate(x, rows, b)
		return v, err
	case *sqlparse.Binary:
		l, err := e.evalGroupExpr(x.L, key, groupBySQL, rows, b)
		if err != nil {
			return types.Value{}, err
		}
		r, err := e.evalGroupExpr(x.R, key, groupBySQL, rows, b)
		if err != nil {
			return types.Value{}, err
		}
		return applyBinary(x.Op, l, r)
	case *sqlparse.Unary:
		v, err := e.evalGroupExpr(x.E, key, groupBySQL, rows, b)
		if err != nil {
			return types.Value{}, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return v, nil
			}
			if v.Kind() != types.KindBool {
				return types.Value{}, fmt.Errorf("engine: NOT on %s", v.Kind())
			}
			return types.NewBool(!v.Bool()), nil
		case "-":
			switch v.Kind() {
			case types.KindInt:
				return types.NewInt(-v.Int()), nil
			case types.KindFloat:
				return types.NewFloat(-v.Float()), nil
			}
			return types.Value{}, fmt.Errorf("engine: unary minus on %s", v.Kind())
		}
		return types.Value{}, fmt.Errorf("engine: unknown unary %q", x.Op)
	case *sqlparse.ColumnRef:
		return types.Value{}, fmt.Errorf(
			"engine: column %s must appear in GROUP BY or inside an aggregate", x.SQL())
	default:
		return types.Value{}, fmt.Errorf("engine: unsupported expression %q in grouped context", expr.SQL())
	}
}

// applyBinary evaluates one binary operator on already-computed operands
// (grouped context has no row to defer to).
func applyBinary(op sqlparse.BinaryOp, l, r types.Value) (types.Value, error) {
	switch op {
	case sqlparse.OpAnd, sqlparse.OpOr:
		if l.IsNull() || r.IsNull() {
			return types.Null(), nil
		}
		if op == sqlparse.OpAnd {
			return types.NewBool(l.Bool() && r.Bool()), nil
		}
		return types.NewBool(l.Bool() || r.Bool()), nil
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		if l.IsNull() || r.IsNull() {
			return types.Null(), nil
		}
		c := types.Compare(l, r)
		var ok bool
		switch op {
		case sqlparse.OpEq:
			ok = c == 0
		case sqlparse.OpNe:
			ok = c != 0
		case sqlparse.OpLt:
			ok = c < 0
		case sqlparse.OpLe:
			ok = c <= 0
		case sqlparse.OpGt:
			ok = c > 0
		case sqlparse.OpGe:
			ok = c >= 0
		}
		return types.NewBool(ok), nil
	default:
		if l.IsNull() || r.IsNull() {
			return types.Null(), nil
		}
		return arith(op, l, r)
	}
}
