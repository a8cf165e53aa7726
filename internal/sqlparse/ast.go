// Package sqlparse contains the SQL dialect of the reproduction: a lexer, an
// AST, a recursive-descent parser, and an SQL renderer (used by the rewrite
// methods, which are SQL-to-SQL transformations).
//
// The dialect covers what the paper needs: SPJ SELECTs with the RESULTDB
// keyword, DISTINCT, inner/comma/LEFT OUTER joins, WHERE with AND/OR/NOT,
// comparisons, IN (list or subquery), BETWEEN, LIKE, IS NULL, COUNT(*),
// ORDER BY/LIMIT, DDL (CREATE TABLE, DROP TABLE, CREATE/DROP MATERIALIZED
// VIEW), INSERT, and BEGIN/COMMIT/ROLLBACK.
package sqlparse

import (
	"strings"

	"resultdb/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	// SQL renders the statement back to parseable SQL text.
	SQL() string
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name    string
	Type    types.Kind
	NotNull bool
	// PrimaryKey marks an inline PRIMARY KEY on the column.
	PrimaryKey bool
}

// ForeignKeyDef is a table-level FOREIGN KEY clause.
type ForeignKeyDef struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// CreateTable is CREATE TABLE name (...).
type CreateTable struct {
	Name        string
	Columns     []ColumnDef
	PrimaryKey  []string
	ForeignKeys []ForeignKeyDef
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

// CreateMaterializedView is CREATE MATERIALIZED VIEW name AS select.
type CreateMaterializedView struct {
	Name  string
	Query *Select
}

// DropMaterializedView is DROP MATERIALIZED VIEW [IF EXISTS] name.
type DropMaterializedView struct {
	Name     string
	IfExists bool
}

// Insert is INSERT INTO name [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// Begin, Commit, and Rollback delimit transactions.
type (
	Begin    struct{}
	Commit   struct{}
	Rollback struct{}
)

// Explain is EXPLAIN [ANALYZE] <select>: report the execution plan (with
// actual cardinalities; the engine is main-memory, so EXPLAIN executes).
// ANALYZE renders the full operator tree with per-operator timings, parallel
// degrees, and transfer bytes instead of the compact plan.
type Explain struct {
	Analyze bool
	Query   *Select
}

// Analyze is ANALYZE [table]: derive, now rather than at the first query that
// needs them, the planner's statistics — per-column row and null counts,
// min/max and a distinct-count sketch — of one table's newest version, or of
// every table's when no name is given. Statistics feed the one planner
// (reduction root and order, join order).
type Analyze struct {
	// Table is the table to analyze; empty means all tables.
	Table string
}

// JoinType distinguishes inner and left outer joins.
type JoinType uint8

const (
	// JoinInner is INNER JOIN (or a comma join with a WHERE predicate).
	JoinInner JoinType = iota
	// JoinLeftOuter is LEFT [OUTER] JOIN.
	JoinLeftOuter
)

// TableRef names a relation in FROM, with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the alias if set, else the table name.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// Join is one JOIN ... ON ... clause chained onto a FROM item.
type Join struct {
	Type JoinType
	Ref  TableRef
	On   Expr
}

// FromItem is a base table reference followed by chained joins.
type FromItem struct {
	Ref   TableRef
	Joins []Join
}

// SelectItem is one entry of the SELECT list.
type SelectItem struct {
	// Star is SELECT * (Table empty) or SELECT t.* (Table set).
	Star  bool
	Table string
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a (sub)query.
type Select struct {
	Distinct bool
	// ResultDB is the paper's SELECT RESULTDB extension: return the
	// subdatabase instead of the single-table result.
	ResultDB bool
	// Preserving is this repo's spelling of Definition 2.3: SELECT
	// RESULTDB PRESERVING additionally returns the join attributes
	// (relationship-preserving subdatabase), enabling the client-side
	// post-join.
	Preserving bool
	Items      []SelectItem
	From       []FromItem
	Where      Expr
	// GroupBy lists grouping expressions (column references); aggregate
	// select items are evaluated per group. An extension beyond the
	// paper's SPJ scope (its future-work item 2, data transformations).
	GroupBy []Expr
	// Having filters groups after aggregation.
	Having  Expr
	OrderBy []OrderItem
	Limit   *int64
	// Src is unused: no parse entry point sets it and nothing in this module
	// reads it. The database shares one parsed Select among every execution
	// of its text, so nothing may write into a parsed statement; the field
	// remains only because the separate benchmark module (benchmark/) still
	// assigns it, and goes when that module next changes.
	Src string
}

func (*CreateTable) stmt()            {}
func (*DropTable) stmt()              {}
func (*CreateMaterializedView) stmt() {}
func (*DropMaterializedView) stmt()   {}
func (*Insert) stmt()                 {}
func (*Begin) stmt()                  {}
func (*Commit) stmt()                 {}
func (*Rollback) stmt()               {}
func (*Select) stmt()                 {}
func (*Explain) stmt()                {}
func (*Analyze) stmt()                {}

// Expr is any scalar expression.
type Expr interface {
	expr()
	// SQL renders the expression back to parseable SQL text.
	SQL() string
}

// ColumnRef references table.column or a bare column.
type ColumnRef struct {
	Table  string
	Column string
}

// Literal wraps a constant value.
type Literal struct {
	Value types.Value
}

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// Binary operators, grouped by family.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// String returns the SQL spelling of the operator.
func (op BinaryOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return "?"
	}
}

// Binary is L op R.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// Unary is NOT e or -e.
type Unary struct {
	Op string // "NOT" or "-"
	E  Expr
}

// Between is e [NOT] BETWEEN lo AND hi.
type Between struct {
	E, Lo, Hi Expr
	Not       bool
}

// InList is e [NOT] IN (v1, v2, ...).
type InList struct {
	E    Expr
	List []Expr
	Not  bool
}

// InSubquery is e [NOT] IN (SELECT ...).
type InSubquery struct {
	E     Expr
	Query *Select
	Not   bool
}

// Like is e [NOT] LIKE 'pattern' (with % and _ wildcards).
type Like struct {
	E       Expr
	Pattern string
	Not     bool
}

// IsNull is e IS [NOT] NULL.
type IsNull struct {
	E   Expr
	Not bool
}

// FuncCall is an aggregate or scalar function call; Star marks COUNT(*).
type FuncCall struct {
	Name string
	Star bool
	Args []Expr
}

func (*ColumnRef) expr()  {}
func (*Literal) expr()    {}
func (*Binary) expr()     {}
func (*Unary) expr()      {}
func (*Between) expr()    {}
func (*InList) expr()     {}
func (*InSubquery) expr() {}
func (*Like) expr()       {}
func (*IsNull) expr()     {}
func (*FuncCall) expr()   {}

// Conjuncts flattens a tree of ANDs into its list of conjuncts.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// AndAll rebuilds a conjunction from a list of conjuncts (nil if empty).
func AndAll(conjuncts []Expr) Expr {
	var out Expr
	for _, c := range conjuncts {
		if out == nil {
			out = c
		} else {
			out = &Binary{Op: OpAnd, L: out, R: c}
		}
	}
	return out
}

// ColumnRefs collects every column reference in e, in evaluation order.
func ColumnRefs(e Expr) []*ColumnRef {
	var out []*ColumnRef
	WalkExpr(e, func(x Expr) {
		if c, ok := x.(*ColumnRef); ok {
			out = append(out, c)
		}
	})
	return out
}

// WalkExpr invokes fn on e and every sub-expression. Subquery bodies are not
// descended into (their column references belong to a different scope).
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *Unary:
		WalkExpr(x.E, fn)
	case *Between:
		WalkExpr(x.E, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *InList:
		WalkExpr(x.E, fn)
		for _, v := range x.List {
			WalkExpr(v, fn)
		}
	case *InSubquery:
		WalkExpr(x.E, fn)
	case *Like:
		WalkExpr(x.E, fn)
	case *IsNull:
		WalkExpr(x.E, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	}
}

// CloneExpr deep-copies an expression tree. Subquery bodies are shared (the
// rewriter never mutates them); every other node is fresh, so callers may
// rewrite column references in place.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ColumnRef:
		c := *x
		return &c
	case *Literal:
		c := *x
		return &c
	case *Binary:
		return &Binary{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *Unary:
		return &Unary{Op: x.Op, E: CloneExpr(x.E)}
	case *Between:
		return &Between{E: CloneExpr(x.E), Lo: CloneExpr(x.Lo), Hi: CloneExpr(x.Hi), Not: x.Not}
	case *InList:
		list := make([]Expr, len(x.List))
		for i, v := range x.List {
			list[i] = CloneExpr(v)
		}
		return &InList{E: CloneExpr(x.E), List: list, Not: x.Not}
	case *InSubquery:
		return &InSubquery{E: CloneExpr(x.E), Query: x.Query, Not: x.Not}
	case *Like:
		return &Like{E: CloneExpr(x.E), Pattern: x.Pattern, Not: x.Not}
	case *IsNull:
		return &IsNull{E: CloneExpr(x.E), Not: x.Not}
	case *FuncCall:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = CloneExpr(a)
		}
		return &FuncCall{Name: x.Name, Star: x.Star, Args: args}
	default:
		return e
	}
}

// HasAggregate reports whether e contains an aggregate function call.
func HasAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok {
			switch strings.ToUpper(f.Name) {
			case "COUNT", "SUM", "MIN", "MAX", "AVG":
				found = true
			}
		}
	})
	return found
}
