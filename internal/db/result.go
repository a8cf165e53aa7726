package db

import (
	"strings"

	"resultdb/internal/colstore"
	"resultdb/internal/core"
	"resultdb/internal/engine"
	"resultdb/internal/types"
)

// ResultSet is one cursor of a result: the minimally invasive API extension
// the paper proposes (Section 7, "API Integration") — a query returns a set
// of cursors instead of exactly one.
//
// A set is its columnar view (Vec); Rows is the boxed mirror of that view,
// filled only where a caller reads it. Results leave the engine unboxed: the
// wire server and Session.ExecUnboxed see Vec alone, and the wire encoders read it.
// The in-process calls — Exec, ExecStatement, Query, QueryResultDB,
// QueryWithTrace, PostJoin and ExecutePostJoinPlan — return sets with Rows
// boxed, so their callers read both. The wire decoders box only the set of a
// one-set result, the classic single cursor; the sets of a decoded
// subdatabase are views with Rows nil. A set that starts from rows
// (EXPLAIN's, a hand-built one) is made by NewResultSet, which gives it a
// view of the rows' exact values. This file holds the set's only readers of
// Rows that also know the view: everything else goes through NumRows,
// WireSize, Column and Row.
type ResultSet struct {
	// Name labels the set; for subdatabase results it is the relation
	// alias, for single-table results "result".
	Name    string
	Columns []string
	// Rows holds the tuples boxed, in order; nil on a set that leaves the
	// engine for the wire server and on each set of a decoded subdatabase.
	Rows []types.Row
	// Vec is the set's columnar view, one frame column per Columns entry:
	// the result itself. Rows, when present, holds the same values in the
	// same order. The columnar wire encoder reads it and reuses its TEXT
	// dictionaries instead of re-deduplicating strings, and the post-join
	// runs on it.
	Vec *colstore.View

	// memo keeps the set's wire payloads once the result cache owns the
	// result (see PayloadMemo); nil otherwise.
	memo *PayloadMemo
}

// NewResultSet is where rows become a set: Rows keeps them as the boxed
// mirror, and the view holds their exact values, one exact-value column per
// entry of columns (every row has one value per column). A column's kind is
// read off its values where a reader needs one (the post-join, the columnar
// encoder).
func NewResultSet(name string, columns []string, rows []types.Row) *ResultSet {
	kinds := make([]types.Kind, len(columns)) // KindNull: exact values
	return &ResultSet{Name: name, Columns: columns, Rows: rows,
		Vec: &colstore.View{Frame: colstore.NewFrame(kinds, rows)}}
}

// NumRows returns the number of rows.
func (rs *ResultSet) NumRows() int { return rs.Vec.Len() }

// WireSize returns the Section 6.1 result-set size in bytes, summed column by
// column without boxing; it equals what the boxed rows give. The result cache
// charges entries by it.
func (rs *ResultSet) WireSize() int {
	n := 0
	for j := 0; j < rs.Vec.Frame.NumCols(); j++ {
		n += columnWireSize(rs.Vec, rs.Vec.Frame.Col(j))
	}
	return n
}

// columnWireSize is the Section 6.1 size of one column of v: types.Value's
// WireSize summed over the selected cells — 8 bytes a number, a string's
// length, 1 byte a bool or a NULL.
func columnWireSize(v *colstore.View, col colstore.Column) int {
	n := v.Len()
	nulls := func(b *colstore.Bitmap) int {
		k := 0
		if b.Count() > 0 {
			for i := 0; i < n; i++ {
				if b.Get(v.Index(i)) {
					k++
				}
			}
		}
		return k
	}
	switch col := col.(type) {
	case *colstore.Int64Column:
		return 8*n - 7*nulls(col.Nulls)
	case *colstore.Float64Column:
		return 8*n - 7*nulls(col.Nulls)
	case *colstore.BoolColumn:
		return n
	case *colstore.TextColumn:
		size := 0
		for i := 0; i < n; i++ {
			if f := v.Index(i); col.Null(f) {
				size++
			} else {
				size += len(col.Dict[col.Codes[f]])
			}
		}
		return size
	}
	size := 0
	for i := 0; i < n; i++ {
		size += col.Value(v.Index(i)).WireSize()
	}
	return size
}

// Column returns a reader of the view's column j over rows 0 …
// NumRows()-1: how an encoder reads a set cell by cell without boxing it.
func (rs *ResultSet) Column(j int) Cells {
	return Cells{col: rs.Vec.Frame.Col(j), sel: rs.Vec.Sel}
}

// Cells reads one column of a result set (ResultSet.Column).
type Cells struct {
	col colstore.Column
	sel []int32
}

// At returns the cell in row i.
func (c Cells) At(i int) types.Value {
	if c.sel != nil {
		i = int(c.sel[i])
	}
	return c.col.Value(i)
}

// Row boxes row i of the view into a fresh tuple: how a reader that needs
// types.Row — a cursor, a printer, a co-group — reads a set whether or not
// Rows is there.
func (rs *ResultSet) Row(i int) types.Row {
	row := make(types.Row, len(rs.Columns))
	for j := range row {
		row[j] = rs.Column(j).At(i)
	}
	return row
}

// boxed returns the set as an in-process caller reads it: itself when Rows
// is already there, otherwise a shallow copy with Rows boxed from the view.
// The set itself — possibly a result cache entry's, read concurrently by the
// wire server — is never written.
func (rs *ResultSet) boxed() *ResultSet {
	if rs.Rows != nil {
		return rs
	}
	cp := *rs
	cp.Rows = rs.Vec.Rows()
	return &cp
}

// Result is the outcome of one statement.
type Result struct {
	// Sets holds one set for single-table queries, one per output relation
	// for RESULTDB queries, and none for DDL/DML.
	Sets []*ResultSet
	// Affected counts inserted rows for INSERT.
	Affected int
	// Stats reports what the native RESULTDB algorithm did, when it ran.
	Stats *core.Stats
	// PostJoinPlan is attached to relationship-preserving (RDBRP) results:
	// the shipped recipe for reconstructing the single-table result
	// client-side (the Section 7 "subdatabase snapshot" extension).
	PostJoinPlan *PostJoinPlan
}

// First returns the first result set (the single-table result), or nil.
func (r *Result) First() *ResultSet {
	if len(r.Sets) == 0 {
		return nil
	}
	return r.Sets[0]
}

// Set returns the result set named name (case-insensitive), or nil.
func (r *Result) Set(name string) *ResultSet {
	for _, s := range r.Sets {
		if strings.EqualFold(s.Name, name) {
			return s
		}
	}
	return nil
}

// WireSize sums the sizes of all result sets.
func (r *Result) WireSize() int {
	n := 0
	for _, s := range r.Sets {
		n += s.WireSize()
	}
	return n
}

// boxed is the one boxing point of the in-process calls: r, or — when one of
// its sets has no Rows yet — a shallow copy of r whose sets are boxed
// (ResultSet.boxed). Nothing r owns is written, so a result the cache shares
// stays unboxed for the wire server. Errors pass through.
func boxed(r *Result, err error) (*Result, error) {
	if err != nil || r == nil {
		return r, err
	}
	var out *Result
	for i, set := range r.Sets {
		b := set.boxed()
		if b == set {
			continue
		}
		if out == nil {
			cp := *r
			cp.Sets = append([]*ResultSet(nil), r.Sets...)
			out = &cp
		}
		out.Sets[i] = b
	}
	if out == nil {
		return r, nil
	}
	return out, nil
}

// boxedSet is boxed for the calls that return one set.
func boxedSet(set *ResultSet, err error) (*ResultSet, error) {
	if err != nil {
		return nil, err
	}
	return set.boxed(), nil
}

// relToSet is where a relation leaves the engine: as its view, unboxed.
func relToSet(name string, rel *engine.Relation, columns []string) *ResultSet {
	return &ResultSet{Name: name, Columns: columns, Vec: rel.Vec}
}
