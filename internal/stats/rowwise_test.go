package stats

import (
	"math"
	"strings"

	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// RowwiseFromTable is the statistics build as it was before tables became
// frames: one pass over boxed rows, row-major, every value looked at as a
// types.Value. It is kept here, in the tests, as the definition FromTable's
// column-wise pass must agree with field by field (frame_test.go).
func RowwiseFromTable(t *storage.Table) *Table {
	rows := t.Rows()
	nCols := len(t.Def.Columns)
	out := &Table{
		Name:   t.Def.Name,
		Rows:   len(rows),
		Cols:   make([]Column, nCols),
		byName: make(map[string]int, nCols),
	}
	accs := make([]colAcc, nCols)
	for i := range accs {
		accs[i].numeric = true
	}
	stride := 1
	if len(rows) > histSampleCap {
		stride = (len(rows) + histSampleCap - 1) / histSampleCap
	}
	for ri, row := range rows {
		sample := ri%stride == 0
		for ci, v := range row {
			a := &accs[ci]
			if v.IsNull() {
				a.nulls++
				continue
			}
			a.sk.add(v.HashFNV(types.FNVOffset64))
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
				if sample && a.numeric {
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
		c.Rows = len(rows)
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
