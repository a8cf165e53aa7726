// Package engine implements query execution for the reproduction's
// main-memory DBMS: SPJ analysis (join-graph extraction and predicate
// pushdown), a greedy join planner (estimated output sizes from table
// statistics, or live cardinalities without them), hash joins and left
// outer joins, expression evaluation with SQL three-valued logic, DISTINCT,
// GROUP BY with COUNT/SUM/AVG/MIN/MAX and HAVING, ORDER BY, and LIMIT.
//
// A relation is a columnar frame plus a selection (Relation); every operator
// passes positions and cardinalities stay exact — the paper injects true
// cardinalities into mutable's optimizer for the same effect (Section 6.3).
// Expressions are evaluated row-at-a-time, but over a cursor that boxes only
// the cells they read (binder.cursor). A relation leaves the engine as its
// view: the db package boxes tuples only for in-process callers that read
// them.
package engine

import (
	"fmt"

	"resultdb/internal/colstore"
	"resultdb/internal/types"
)

// ColRef identifies one column of an intermediate relation: the relation
// alias it came from, its name, and its type.
type ColRef struct {
	Rel  string
	Name string
	Kind types.Kind
}

// Relation is an intermediate result: a schema over a colstore view — an
// immutable frame (one column per Cols entry) and an ascending selection of
// its rows. Vec is never nil. Every operator consumes and produces exactly
// this: filters and semi-joins narrow the selection, joins — outer ones
// included — gather a new frame from position pairs, projection is a column
// subset plus one new column per computed item, grouping is a frame of first
// rows' keys and aggregate columns. Tuples exist on demand only (Rows), for
// whoever takes the result out of the engine.
type Relation struct {
	Cols []ColRef
	Vec  *colstore.View
}

// FromRows wraps rows in a relation: the frame colstore.NewFrame builds under
// the schema's kinds (a column holding a value of another kind degrades to an
// exact-value AnyColumn). Only tests build relations from rows: no operator
// calls it, and a result set that starts from rows enters a post-join through
// its own view (db.NewResultSet). The frame keeps nothing of rows.
func FromRows(cols []ColRef, rows []types.Row) *Relation {
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = c.Kind
	}
	return &Relation{Cols: cols, Vec: &colstore.View{Frame: colstore.NewFrame(kinds, rows)}}
}

// Len returns the number of rows.
func (r *Relation) Len() int { return r.Vec.Len() }

// Key addresses cols of r's rows for the hash kernel.
func (r *Relation) Key(cols []int) colstore.Key { return colstore.ViewKey(r.Vec, cols) }

// Narrow returns r restricted to the ascending row positions kept, which it
// takes over (colstore.View.Narrow): the caller does not touch kept again.
func (r *Relation) Narrow(kept []int32) *Relation {
	return &Relation{Cols: r.Cols, Vec: r.Vec.Narrow(kept)}
}

// ColIndex resolves a (possibly table-qualified) column reference against
// the schema. rel == "" means a bare column name, which must be unambiguous.
func (r *Relation) ColIndex(rel, name string) (int, error) {
	return colIndex(r.Cols, rel, name)
}

// colIndex is ColIndex over a bare schema.
func colIndex(cols []ColRef, rel, name string) (int, error) {
	found := -1
	for i, c := range cols {
		if !equalFold(c.Name, name) {
			continue
		}
		if rel != "" && !equalFold(c.Rel, rel) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("engine: ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		if rel != "" {
			return 0, fmt.Errorf("engine: unknown column %s.%s", rel, name)
		}
		return 0, fmt.Errorf("engine: unknown column %s", name)
	}
	return found, nil
}

// ColumnsOf returns the positions of every column belonging to alias rel,
// in schema order.
func (r *Relation) ColumnsOf(rel string) []int {
	var out []int
	for i, c := range r.Cols {
		if equalFold(c.Rel, rel) {
			out = append(out, i)
		}
	}
	return out
}

// Project returns r restricted to the given column positions: a column
// subset of the same frame under the same selection, nothing copied.
func (r *Relation) Project(cols []int) *Relation {
	out := &Relation{Cols: make([]ColRef, len(cols))}
	for i, c := range cols {
		out.Cols[i] = r.Cols[c]
	}
	out.Vec = &colstore.View{Frame: r.Vec.Frame.Project(cols), Sel: r.Vec.Sel}
	return out
}

// Distinct returns r with duplicate rows removed (first occurrence wins), at
// degree of parallelism par: the rows at colstore.DistinctPositions over
// every column, so the result is the same rows in the same order at any
// degree.
func (r *Relation) Distinct(par int) *Relation {
	return r.Narrow(colstore.DistinctPositions(r.Key(allCols(len(r.Cols))), par))
}

// allCols lists the column positions 0..n-1.
func allCols(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// ColumnNames renders output column labels ("rel.name" when rel is set).
func (r *Relation) ColumnNames() []string {
	out := make([]string, len(r.Cols))
	for i, c := range r.Cols {
		if c.Rel != "" {
			out[i] = c.Rel + "." + c.Name
		} else {
			out[i] = c.Name
		}
	}
	return out
}

// equalFold is a cheap ASCII case-insensitive compare (identifiers are ASCII).
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
