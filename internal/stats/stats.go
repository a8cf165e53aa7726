// Package stats collects lightweight per-column table statistics — row and
// null counts, min/max, a distinct-count sketch, and equi-depth histograms —
// for the cost-based planning mode (core.Options.CostBased, RESULTDB_STATS).
//
// Statistics are built in one pass over each column of the table's frame (no
// row is boxed), are fully deterministic (the NDV sketch hashes with the same
// seeded FNV-1a stream as the join hash tables), and live in the table version
// they describe (Of), next to its frame: built once per version, collected
// with it.
//
// The numbers feed estimates only: plan choice may change, query results may
// not. The planner layers that consume them (root selection, reducer
// scheduling, adaptive Bloom sizing, sideways range passing) all preserve
// byte-identical output by construction.
package stats

import (
	"fmt"
	"math"
	"strings"

	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// histSampleCap bounds the number of values fed into a histogram build. Above
// the cap a deterministic stride sample is taken, so builds stay O(rows) scan
// + O(cap log cap) sort regardless of table size.
const histSampleCap = 1 << 16

// Column holds the statistics of one table column.
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
	// then are MinF/MaxF and Hist populated. NaN values do not clear the
	// flag but are excluded from the range and the histogram.
	Numeric bool
	// HasRange reports MinF/MaxF are valid (Numeric, and at least one
	// non-null non-NaN value was seen).
	HasRange bool
	// MinF and MaxF bound the non-null numeric values (NaN excluded).
	MinF, MaxF float64
	// Hist is the equi-depth histogram over the (possibly sampled) numeric
	// values, nil for non-numeric or empty columns.
	Hist *Histogram
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
		if c.Hist != nil {
			fmt.Fprintf(&b, " hist=%d buckets", len(c.Hist.Counts))
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

// colAcc accumulates one column's statistics during the single build pass.
type colAcc struct {
	nulls      int
	sk         sketch
	numeric    bool
	hasRange   bool
	minF, maxF float64
	vals       []float64 // histogram sample (numeric, non-NaN)
}

// Of returns the statistics of table version t, built on first use and kept in
// the version (storage.Table.Stats): concurrent callers share one build, and
// callers for different tables or versions never wait on each other.
func Of(t *storage.Table) *Table { return t.Stats(build).(*Table) }

// build is FromTable in the shape of the version's slot (a named function, so
// Of allocates no closure).
func build(t *storage.Table) any { return FromTable(t) }

// FromTable builds fresh statistics for t in one pass over each column of its
// frame — no row is boxed, and a TEXT value's sketch input is its dictionary
// entry's precomputed hash. The build is deterministic: same rows in the same
// order produce identical statistics.
func FromTable(t *storage.Table) *Table {
	frame := t.Columns()
	nRows, nCols := frame.Rows(), frame.NumCols()
	out := &Table{
		Name:   t.Def.Name,
		Rows:   nRows,
		Cols:   make([]Column, nCols),
		byName: make(map[string]int, nCols),
	}
	// Deterministic stride sample for histograms: every stride-th row.
	stride := 1
	if nRows > histSampleCap {
		stride = (nRows + histSampleCap - 1) / histSampleCap
	}
	accs := make([]colAcc, nCols)
	for ci := range accs {
		a := &accs[ci]
		a.numeric = true
		col := frame.Col(ci)
		for ri := 0; ri < nRows; ri++ {
			v := col.Value(ri)
			if v.IsNull() {
				a.nulls++
				continue
			}
			a.sk.add(col.HashFNV(ri, types.FNVOffset64))
			switch v.Kind() {
			case types.KindInt, types.KindFloat:
				f := v.Float()
				if math.IsNaN(f) {
					continue
				}
				if !a.hasRange {
					a.minF, a.maxF, a.hasRange = f, f, true
				} else if f < a.minF {
					a.minF = f
				} else if f > a.maxF {
					a.maxF = f
				}
				if ri%stride == 0 && a.numeric {
					a.vals = append(a.vals, f)
				}
			default:
				a.numeric = false
				a.hasRange = false
				a.vals = nil
			}
		}
	}
	for ci := range out.Cols {
		def := t.Def.Columns[ci]
		a := &accs[ci]
		c := &out.Cols[ci]
		c.Name = def.Name
		c.Kind = def.Type
		c.Rows = nRows
		c.Nulls = a.nulls
		nonNull := c.Rows - c.Nulls
		ndv := a.sk.estimate()
		if ndv > nonNull {
			ndv = nonNull
		}
		if ndv < 1 && nonNull > 0 {
			ndv = 1
		}
		c.NDV = ndv
		c.Numeric = a.numeric && nonNull > 0
		c.HasRange = a.hasRange
		if a.hasRange {
			c.MinF, c.MaxF = a.minF, a.maxF
		}
		if c.Numeric && len(a.vals) > 0 {
			c.Hist = BuildHistogram(a.vals, defaultHistBuckets)
		}
		out.byName[strings.ToLower(def.Name)] = ci
	}
	return out
}
