package db

import (
	"fmt"
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
// A set the system produces is its columnar view (Vec); Rows is the boxed
// mirror of that view, filled only where a caller reads it. Results leave the
// engine unboxed: the wire server and ExecStream see Vec alone, and the wire
// encoders read it. The in-process calls — Exec, ExecStatement, Query,
// QueryResultDB, QueryWithTrace, PostJoin and ExecutePostJoinPlan — and the
// wire client's decoder return sets with Rows boxed, so their callers read
// both. Hand-built sets, EXPLAIN's and v1-decoded ones have Rows and no view.
// This file holds the set's only readers of Rows that also know the view:
// everything else goes through NumRows, WireSize and Column.
type ResultSet struct {
	// Name labels the set; for subdatabase results it is the relation
	// alias, for single-table results "result".
	Name    string
	Columns []string
	// Rows holds the tuples boxed, in order; nil on a set that leaves the
	// engine for the wire server or a stream.
	Rows []types.Row
	// Vec is the set's columnar view, one frame column per Columns entry.
	// When present it is the result — Rows, when also present, holds the
	// same values in the same order. Every set the system produces carries
	// it: the engine's and, on the other side of the wire, the v2 decoder's.
	// The columnar wire encoder reads it and reuses its TEXT dictionaries
	// instead of re-deduplicating strings, and the post-join runs on it.
	Vec *colstore.View

	// memo keeps the set's wire payloads once the result cache owns the
	// result (see PayloadMemo); nil otherwise.
	memo *PayloadMemo
}

// NumRows returns the number of rows: the view's length when the set carries
// one, the number of boxed rows otherwise.
func (rs *ResultSet) NumRows() int {
	if rs.Vec != nil {
		return rs.Vec.Len()
	}
	return len(rs.Rows)
}

// WireSize returns the Section 6.1 result-set size in bytes. On a set with a
// view it is summed column by column, without boxing, and equals what its
// boxed rows give: the result cache charges entries by it.
func (rs *ResultSet) WireSize() int {
	n := 0
	if rs.Vec == nil {
		for _, r := range rs.Rows {
			n += r.WireSize()
		}
		return n
	}
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

// Column returns a reader of column j over rows 0 … NumRows()-1: the view's
// vector when the set carries one, the boxed rows otherwise. It is how an
// encoder reads a set cell by cell without boxing it.
func (rs *ResultSet) Column(j int) Cells {
	if v := rs.Vec; v != nil {
		return Cells{col: v.Frame.Col(j), sel: v.Sel}
	}
	return Cells{rows: rs.Rows, j: j, width: len(rs.Columns)}
}

// Cells reads one column of a result set (ResultSet.Column).
type Cells struct {
	col      colstore.Column // the view's vector; nil for a set without one
	sel      []int32
	rows     []types.Row
	j, width int
}

// At returns the cell in row i. A set without a view whose row arity differs
// from its column count cannot be shipped: reading such a row panics.
func (c Cells) At(i int) types.Value {
	if c.col != nil {
		if c.sel != nil {
			i = int(c.sel[i])
		}
		return c.col.Value(i)
	}
	row := c.rows[i]
	if len(row) != c.width {
		panic(fmt.Sprintf("db: row arity %d != %d columns", len(row), c.width))
	}
	return row[c.j]
}

// boxed returns the set as an in-process caller reads it: itself when Rows
// is already there (or there is no view to box), otherwise a shallow copy
// with Rows boxed from the view. The set itself — possibly a result cache
// entry's, read concurrently by the wire server — is never written.
func (rs *ResultSet) boxed() *ResultSet {
	if rs.Rows != nil || rs.Vec == nil {
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
