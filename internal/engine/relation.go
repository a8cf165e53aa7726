// Package engine implements query execution for the reproduction's
// main-memory DBMS: SPJ analysis (join-graph extraction and predicate
// pushdown), a greedy cardinality-based join planner, hash joins and left
// outer joins, expression evaluation with SQL three-valued logic, DISTINCT,
// aggregation (COUNT), ORDER BY, and LIMIT.
//
// Operators materialize intermediate relations (batch-at-a-time execution),
// which matches a main-memory engine and keeps cardinalities exact — the
// paper injects true cardinalities into mutable's optimizer for the same
// effect (Section 6.3).
package engine

import (
	"fmt"
	"sort"

	"resultdb/internal/colstore"
	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// ColRef identifies one column of an intermediate relation: the relation
// alias it came from, its name, and its type.
type ColRef struct {
	Rel  string
	Name string
	Kind types.Kind
}

// Relation is a materialized intermediate result: a schema plus rows.
//
// Vec, when non-nil, is the relation's columnar image: a colstore view whose
// logical order matches Rows exactly (Vec.Len() == len(Rows), and
// Vec.Index(j) is the frame position backing Rows[j]). Scans attach it so
// downstream operators (semi-joins, Bloom probes, project+distinct) can run
// on typed column vectors and selection vectors instead of re-touching rows;
// operators that cannot preserve the alignment (joins, general projection)
// leave it nil and later consumers address the rows directly (see KeyFor).
// Vec never changes what a relation *is* — only how fast operators read it.
type Relation struct {
	Cols []ColRef
	Rows []types.Row
	Vec  *colstore.View
}

// ColIndex resolves a (possibly table-qualified) column reference against
// the schema. rel == "" means a bare column name, which must be unambiguous.
func (r *Relation) ColIndex(rel, name string) (int, error) {
	found := -1
	for i, c := range r.Cols {
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

// Project returns a new relation restricted to the given column positions, at
// the default degree of parallelism. Output rows are written to fixed
// positions, so the result is identical at any degree.
func (r *Relation) Project(cols []int) *Relation {
	out := &Relation{Cols: make([]ColRef, len(cols))}
	for i, c := range cols {
		out.Cols[i] = r.Cols[c]
	}
	out.Rows = make([]types.Row, len(r.Rows))
	parallel.For(len(r.Rows), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Rows[i] = r.Rows[i].Project(cols)
		}
	})
	return out
}

// Distinct returns r with duplicate rows removed (first occurrence wins), at
// the default degree of parallelism: the rows at colstore.DistinctPositions
// over every column, so the result is the same rows in the same order at any
// degree.
func (r *Relation) Distinct() *Relation {
	all := make([]int, len(r.Cols))
	for i := range all {
		all[i] = i
	}
	return r.Narrow(colstore.DistinctPositions(KeyFor(r, all), 0))
}

// Narrow returns r restricted to the ascending row positions kept (pointer
// copies of the rows), with its view, when it carries one, narrowed alongside.
func (r *Relation) Narrow(kept []int32) *Relation {
	out := &Relation{Cols: r.Cols, Rows: make([]types.Row, len(kept))}
	for i, j := range kept {
		out.Rows[i] = r.Rows[j]
	}
	if r.Vec != nil {
		out.Vec = r.Vec.Narrow(kept)
	}
	return out
}

// SortBy orders rows by the given key columns (all ascending unless desc).
func (r *Relation) SortBy(keys []int, desc []bool) {
	sort.SliceStable(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k, col := range keys {
			c := types.Compare(a[col], b[col])
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
}

// WireSize returns the Section 6.1 result-set size of the relation in bytes.
func (r *Relation) WireSize() int {
	n := 0
	for _, row := range r.Rows {
		n += row.WireSize()
	}
	return n
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
