// Package stats collects lightweight per-column table statistics — row and
// null counts, min/max and a distinct-count sketch — for the reduction and
// join-order planner (engine.Executor.StatsOf and AliasStats).
//
// Statistics are built in one pass over each column of the table's frame (no
// row is boxed), are fully deterministic (the NDV sketch hashes with the same
// seeded FNV-1a stream as the join hash tables), and live in the table version
// they describe (Of), next to its frame: derived once per version, collected
// with it. Every statistic is mergeable, so a version does not start over: it
// extends the newest statistics built for an ancestor version by the rows
// added since (Fold). A fresh build is the same fold from row 0.
//
// The numbers feed estimates only, through the one containment model beside
// them (estimate.go): plan choice may change, query results may not. The
// planner layers that consume them (root selection, reducer scheduling, join
// order) all preserve the output by construction.
package stats

import (
	"fmt"
	"math"
	"strings"

	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// Column holds the statistics of one table column: the numbers the planner
// reads, and the accumulator they are derived from.
type Column struct {
	// Name is the column name as declared (original case).
	Name string
	// Kind is the declared column type.
	Kind types.Kind
	// Rows is the table row count at build time.
	Rows int
	// Nulls is the number of NULL values.
	Nulls int
	// NDV is the estimated number of distinct non-null values. It is always
	// within [0, Rows-Nulls], and exact for columns with up to a few thousand
	// distinct values (the sketch stays in its exact phase).
	NDV int
	// Numeric reports that every non-null value is INTEGER or DOUBLE. Only
	// then are MinF/MaxF populated. NaN values do not clear the flag but are
	// excluded from the range.
	Numeric bool
	// HasRange reports MinF/MaxF are valid (Numeric, and at least one
	// non-null non-NaN value was seen).
	HasRange bool
	// MinF and MaxF bound the non-null numeric values (NaN excluded).
	MinF, MaxF float64

	// The accumulator: the distinct-count sketch of the non-null values, and
	// whether any of them was not numeric. With Rows, Nulls and the range it
	// is everything a fold needs to extend the column.
	sk         sketch
	nonNumeric bool
}

// Table holds the statistics of one table version.
type Table struct {
	// Name is the table name.
	Name string
	// Rows is the row count at build time.
	Rows int
	// Cols holds per-column stats in definition order.
	Cols []Column

	byName map[string]int
}

// Col returns the stats for the named column (case-insensitive), or nil.
func (t *Table) Col(name string) *Column {
	if t == nil {
		return nil
	}
	if i, ok := t.byName[strings.ToLower(name)]; ok {
		return &t.Cols[i]
	}
	return nil
}

// NDV returns the named column's NDV as the containment model reads it
// (KeyNDV's base), or 0 when there are no statistics for it.
func (t *Table) NDV(name string) float64 {
	if c := t.Col(name); c != nil {
		return float64(c.NDV)
	}
	return 0
}

// String renders a compact human-readable summary (used by the shell's
// \stats command).
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d rows\n", t.Name, t.Rows)
	for i := range t.Cols {
		c := &t.Cols[i]
		fmt.Fprintf(&b, "  %-20s %-8s ndv=%-8d nulls=%d", c.Name, c.Kind, c.NDV, c.Nulls)
		if c.HasRange {
			fmt.Fprintf(&b, " range=[%v, %v]", trimFloat(c.MinF), trimFloat(c.MaxF))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func trimFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

// Of returns the statistics of table version t, derived on first use and kept
// in the version (storage.Table.Stats): concurrent callers share one fold, and
// callers for different tables or versions never wait on each other.
func Of(t *storage.Table) *Table { return t.Stats(fold).(*Table) }

// fold is Fold in the shape of the version's slot (a named function, so Of
// allocates no closure).
func fold(t *storage.Table, base any) any {
	b, _ := base.(*Table)
	return Fold(t, b)
}

// Fold returns the statistics of table version t: base — the statistics of an
// ancestor version, or nil — extended by the rows base has not seen, [base.Rows,
// t.Len()), read column by column off the frame (no row is boxed; a TEXT
// value's sketch input is its dictionary entry's precomputed hash). base is
// not modified: the result extends a copy of its accumulators, so a version's
// statistics never change once built, whoever extends them later. With no
// base the fold runs from row 0, and either way the result equals a fresh
// build over the same rows.
func Fold(t *storage.Table, base *Table) *Table {
	frame := t.Columns()
	nRows, nCols := frame.Rows(), frame.NumCols()
	out := &Table{Name: t.Def.Name, Rows: nRows, Cols: make([]Column, nCols)}
	from := 0
	if base != nil {
		from = base.Rows
		copy(out.Cols, base.Cols)
		out.byName = base.byName // never written after the first build
	} else {
		out.byName = make(map[string]int, nCols)
		for ci, def := range t.Def.Columns {
			out.Cols[ci].Name, out.Cols[ci].Kind = def.Name, def.Type
			out.byName[strings.ToLower(def.Name)] = ci
		}
	}
	for ci := range out.Cols {
		c := &out.Cols[ci]
		c.sk = c.sk.clone()
		col := frame.Col(ci)
		for ri := from; ri < nRows; ri++ {
			v := col.Value(ri)
			if v.IsNull() {
				c.Nulls++
				continue
			}
			c.sk.add(col.HashFNV(ri, types.FNVOffset64))
			switch v.Kind() {
			case types.KindInt, types.KindFloat:
				f := v.Float()
				if math.IsNaN(f) {
					continue
				}
				if !c.HasRange {
					c.MinF, c.MaxF, c.HasRange = f, f, true
				} else if f < c.MinF {
					c.MinF = f
				} else if f > c.MaxF {
					c.MaxF = f
				}
			default:
				c.nonNumeric = true
			}
		}
		c.Rows = nRows
		nonNull := c.Rows - c.Nulls
		c.NDV = min(c.sk.estimate(), nonNull)
		if c.NDV < 1 && nonNull > 0 {
			c.NDV = 1
		}
		c.Numeric = !c.nonNumeric && nonNull > 0
		if c.nonNumeric {
			c.HasRange, c.MinF, c.MaxF = false, 0, 0
		}
	}
	return out
}
