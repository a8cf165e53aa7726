package engine

import (
	"fmt"
	"strings"

	"resultdb/internal/colstore"
	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
)

// boundExpr is a compiled expression: evaluate against one row of the bound
// relation. SQL three-valued logic is represented by returning NULL.
type boundExpr func(types.Row) (types.Value, error)

// SubqueryRunner executes a non-correlated subquery and returns its
// materialized result. The binder uses it for IN (SELECT ...) predicates.
type SubqueryRunner func(*sqlparse.Select) (*Relation, error)

// binder compiles AST expressions against a relation schema. It notes which
// columns the expressions it has bound read (reads), so a cursor boxes those
// cells and no others. bySQL, set for a grouped schema only, maps the SQL text
// of an aggregate call or grouping expression to the column that holds it.
type binder struct {
	cols  []ColRef
	sub   SubqueryRunner
	reads []bool
	bySQL map[string]int
}

// column resolves e to a position in the schema when it is a column of it: a
// column reference, or an expression a grouped schema holds by its SQL text.
func (b *binder) column(e sqlparse.Expr) (idx int, ok bool, err error) {
	if b.bySQL != nil {
		if idx, ok = b.bySQL[e.SQL()]; ok {
			return idx, true, nil
		}
	}
	cr, ok := e.(*sqlparse.ColumnRef)
	if !ok {
		return 0, false, nil
	}
	idx, err = colIndex(b.cols, cr.Table, cr.Column)
	if err != nil && b.bySQL != nil {
		err = fmt.Errorf("engine: column %s must appear in GROUP BY or inside an aggregate", cr.SQL())
	}
	return idx, true, err
}

// cursor is the one way an operator evaluates bound expressions over columns:
// it fills the part of a reused scratch row that f's columns occupy (schema
// positions off and up) with the cells of frame row i that b's expressions
// read. Call it after binding; take one per worker.
func (b *binder) cursor(row types.Row, f *colstore.Frame, off int) func(i int) {
	var at []int
	for c := 0; c < f.NumCols() && off+c < len(b.reads); c++ {
		if b.reads[off+c] {
			at = append(at, c)
		}
	}
	return func(i int) {
		for _, c := range at {
			row[off+c] = f.Col(c).Value(i)
		}
	}
}

// bind compiles e for evaluation against rows under the schema b.cols.
func (b *binder) bind(e sqlparse.Expr) (boundExpr, error) {
	if idx, ok, err := b.column(e); ok {
		if err != nil {
			return nil, err
		}
		if b.reads == nil {
			b.reads = make([]bool, len(b.cols))
		}
		b.reads[idx] = true
		return func(r types.Row) (types.Value, error) { return r[idx], nil }, nil
	}
	switch x := e.(type) {
	case *sqlparse.Literal:
		v := x.Value
		return func(types.Row) (types.Value, error) { return v, nil }, nil

	case *sqlparse.Binary:
		return b.bindBinary(x)

	case *sqlparse.Unary:
		inner, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			return func(r types.Row) (types.Value, error) {
				v, err := inner(r)
				if err != nil || v.IsNull() {
					return v, err
				}
				if v.Kind() != types.KindBool {
					return types.Value{}, fmt.Errorf("engine: NOT on non-boolean %s", v.Kind())
				}
				return types.NewBool(!v.Bool()), nil
			}, nil
		case "-":
			return func(r types.Row) (types.Value, error) {
				v, err := inner(r)
				if err != nil || v.IsNull() {
					return v, err
				}
				switch v.Kind() {
				case types.KindInt:
					return types.NewInt(-v.Int()), nil
				case types.KindFloat:
					return types.NewFloat(-v.Float()), nil
				}
				return types.Value{}, fmt.Errorf("engine: unary minus on %s", v.Kind())
			}, nil
		}
		return nil, fmt.Errorf("engine: unknown unary operator %q", x.Op)

	case *sqlparse.Between:
		ev, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := b.bind(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bind(x.Hi)
		if err != nil {
			return nil, err
		}
		return func(r types.Row) (types.Value, error) {
			v, err := ev(r)
			if err != nil {
				return types.Value{}, err
			}
			lv, err := lo(r)
			if err != nil {
				return types.Value{}, err
			}
			hv, err := hi(r)
			if err != nil {
				return types.Value{}, err
			}
			if v.IsNull() || lv.IsNull() || hv.IsNull() {
				return types.Null(), nil
			}
			in := types.Compare(v, lv) >= 0 && types.Compare(v, hv) <= 0
			if x.Not {
				in = !in
			}
			return types.NewBool(in), nil
		}, nil

	case *sqlparse.InList:
		ev, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		items := make([]boundExpr, len(x.List))
		for i, it := range x.List {
			items[i], err = b.bind(it)
			if err != nil {
				return nil, err
			}
		}
		return func(r types.Row) (types.Value, error) {
			v, err := ev(r)
			if err != nil {
				return types.Value{}, err
			}
			if v.IsNull() {
				return types.Null(), nil
			}
			sawNull := false
			for _, item := range items {
				iv, err := item(r)
				if err != nil {
					return types.Value{}, err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				if types.Compare(v, iv) == 0 {
					return types.NewBool(!x.Not), nil
				}
			}
			if sawNull {
				return types.Null(), nil // unknown under 3VL
			}
			return types.NewBool(x.Not), nil
		}, nil

	case *sqlparse.InSubquery:
		return b.bindInSubquery(x)

	case *sqlparse.Like:
		ev, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		match := compileLike(x.Pattern)
		return func(r types.Row) (types.Value, error) {
			v, err := ev(r)
			if err != nil {
				return types.Value{}, err
			}
			if v.IsNull() {
				return types.Null(), nil
			}
			if v.Kind() != types.KindText {
				return types.Value{}, fmt.Errorf("engine: LIKE on non-text %s", v.Kind())
			}
			ok := match(v.Text())
			if x.Not {
				ok = !ok
			}
			return types.NewBool(ok), nil
		}, nil

	case *sqlparse.IsNull:
		ev, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		return func(r types.Row) (types.Value, error) {
			v, err := ev(r)
			if err != nil {
				return types.Value{}, err
			}
			isNull := v.IsNull()
			if x.Not {
				isNull = !isNull
			}
			return types.NewBool(isNull), nil
		}, nil

	case *sqlparse.FuncCall:
		return nil, fmt.Errorf("engine: aggregate/function %s not allowed in this context", x.Name)
	}
	return nil, fmt.Errorf("engine: unsupported expression %T", e)
}

func (b *binder) bindBinary(x *sqlparse.Binary) (boundExpr, error) {
	l, err := b.bind(x.L)
	if err != nil {
		return nil, err
	}
	r, err := b.bind(x.R)
	if err != nil {
		return nil, err
	}
	op := x.Op
	switch op {
	case sqlparse.OpAnd, sqlparse.OpOr:
		// Three-valued logic around the absorbing value (FALSE for AND, TRUE
		// for OR): either operand being it decides the result, even beside a
		// NULL — and the left one short-circuits, so the right is not evaluated.
		absorbing := op == sqlparse.OpOr
		decides := func(v types.Value) bool { return v.Kind() == types.KindBool && v.Bool() == absorbing }
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			if decides(lv) {
				return lv, nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if decides(rv) {
				return rv, nil
			}
			for _, v := range [2]types.Value{lv, rv} {
				if !v.IsNull() && v.Kind() != types.KindBool {
					return types.Value{}, fmt.Errorf("engine: %s on non-boolean %s", op, v.Kind())
				}
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			return types.NewBool(!absorbing), nil
		}, nil
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		cmp, _ := cmpOpOf(op)
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			return types.NewBool(colstore.EvalCmp(cmp, types.Compare(lv, rv))), nil
		}, nil
	case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul, sqlparse.OpDiv:
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			return arith(op, lv, rv)
		}, nil
	}
	return nil, fmt.Errorf("engine: unsupported binary operator %s", op)
}

// arith evaluates numeric arithmetic: int op int stays integral (SQL
// truncating division), anything involving a float promotes to float.
func arith(op sqlparse.BinaryOp, a, b types.Value) (types.Value, error) {
	if a.Kind() == types.KindInt && b.Kind() == types.KindInt {
		x, y := a.Int(), b.Int()
		switch op {
		case sqlparse.OpAdd:
			return types.NewInt(x + y), nil
		case sqlparse.OpSub:
			return types.NewInt(x - y), nil
		case sqlparse.OpMul:
			return types.NewInt(x * y), nil
		case sqlparse.OpDiv:
			if y == 0 {
				return types.Value{}, fmt.Errorf("engine: division by zero")
			}
			return types.NewInt(x / y), nil
		}
	}
	if (a.Kind() == types.KindInt || a.Kind() == types.KindFloat) &&
		(b.Kind() == types.KindInt || b.Kind() == types.KindFloat) {
		x, y := a.Float(), b.Float()
		switch op {
		case sqlparse.OpAdd:
			return types.NewFloat(x + y), nil
		case sqlparse.OpSub:
			return types.NewFloat(x - y), nil
		case sqlparse.OpMul:
			return types.NewFloat(x * y), nil
		case sqlparse.OpDiv:
			if y == 0 {
				return types.Value{}, fmt.Errorf("engine: division by zero")
			}
			return types.NewFloat(x / y), nil
		}
	}
	return types.Value{}, fmt.Errorf("engine: arithmetic on %s and %s", a.Kind(), b.Kind())
}

// bindInSubquery runs the (non-correlated) subquery once at bind time and
// compiles membership probing against its materialized key set.
func (b *binder) bindInSubquery(x *sqlparse.InSubquery) (boundExpr, error) {
	if b.sub == nil {
		return nil, fmt.Errorf("engine: subqueries not supported in this context")
	}
	ev, err := b.bind(x.E)
	if err != nil {
		return nil, err
	}
	rel, err := b.sub(x.Query)
	if err != nil {
		return nil, err
	}
	if len(rel.Cols) != 1 {
		return nil, fmt.Errorf("engine: IN subquery must return one column, got %d", len(rel.Cols))
	}
	keys := colstore.BuildKeySet(rel.Key([]int{0})) // skips NULLs
	sawNull := false
	for j, col := 0, rel.Vec.Frame.Col(0); j < rel.Len() && !sawNull; j++ {
		sawNull = col.Null(rel.Vec.Index(j))
	}
	return func(r types.Row) (types.Value, error) {
		v, err := ev(r)
		if err != nil {
			return types.Value{}, err
		}
		if v.IsNull() {
			return types.Null(), nil
		}
		if keys.ContainsValue(v) {
			return types.NewBool(!x.Not), nil
		}
		if sawNull {
			return types.Null(), nil
		}
		return types.NewBool(x.Not), nil
	}, nil
}

// BindExpr compiles e against the schema cols and returns the row-at-a-time
// evaluator that defines expression semantics — the same binder the executor
// evaluates through, exported for the reference implementation the
// differential tests compare against (internal/reference). A sub-expression
// whose SQL text is a key of bySQL (nil for an ungrouped schema) reads that
// column instead of being evaluated. Subqueries are rejected at bind time.
func BindExpr(cols []ColRef, bySQL map[string]int, e sqlparse.Expr) (func(types.Row) (types.Value, error), error) {
	return (&binder{cols: cols, bySQL: bySQL}).bind(e)
}

// BindPredicate is BindExpr under filter semantics: whether cond is TRUE for
// a row (NULL and FALSE both reject).
func BindPredicate(cols []ColRef, cond sqlparse.Expr) (func(types.Row) (bool, error), error) {
	check, err := BindExpr(cols, nil, cond)
	if err != nil {
		return nil, err
	}
	return func(r types.Row) (bool, error) {
		v, err := check(r)
		return err == nil && truthy(v), err
	}, nil
}

// compileLike compiles a SQL LIKE pattern (% multi-char, _ single-char
// wildcards) into a matcher. Matching is done directly (no regexp) with
// iterative backtracking on %.
func compileLike(pattern string) func(string) bool {
	// Fast paths for the common shapes.
	if !strings.ContainsAny(pattern, "%_") {
		return func(s string) bool { return s == pattern }
	}
	if strings.Count(pattern, "%") == 2 && !strings.Contains(pattern, "_") &&
		strings.HasPrefix(pattern, "%") && strings.HasSuffix(pattern, "%") && len(pattern) >= 2 {
		inner := pattern[1 : len(pattern)-1]
		if !strings.Contains(inner, "%") {
			return func(s string) bool { return strings.Contains(s, inner) }
		}
	}
	return func(s string) bool { return likeMatch(s, pattern) }
}

// likeMatch implements LIKE with greedy-with-backtracking % handling,
// operating on bytes (patterns in this repo are ASCII).
func likeMatch(s, p string) bool {
	var si, pi int
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			starSi = si
			pi++
		case star >= 0:
			pi = star + 1
			starSi++
			si = starSi
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// truthy applies predicate semantics: only a non-NULL boolean TRUE passes.
func truthy(v types.Value) bool {
	return !v.IsNull() && v.Kind() == types.KindBool && v.Bool()
}
