package stats

import (
	"math"
	"strings"

	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// RowwiseFromTable is the statistics build as it was before tables became
// frames: one pass over boxed rows, row-major, every value looked at as a
// types.Value. It is kept here, in the tests, as the definition Fold's
// column-wise pass — from row 0 or extending an ancestor's statistics — must
// agree with field by field (frame_test.go).
func RowwiseFromTable(t *storage.Table) *Table {
	rows := t.Rows()
	nCols := len(t.Def.Columns)
	out := &Table{
		Name:   t.Def.Name,
		Rows:   len(rows),
		Cols:   make([]Column, nCols),
		byName: make(map[string]int, nCols),
	}
	for _, row := range rows {
		for ci, v := range row {
			c := &out.Cols[ci]
			if v.IsNull() {
				c.Nulls++
				continue
			}
			c.sk.add(v.HashFNV(types.FNVOffset64))
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
	}
	for ci := range out.Cols {
		def := t.Def.Columns[ci]
		c := &out.Cols[ci]
		c.Name = def.Name
		c.Kind = def.Type
		c.Rows = len(rows)
		nonNull := c.Rows - c.Nulls
		c.NDV = min(c.sk.estimate(), nonNull)
		if c.NDV < 1 && nonNull > 0 {
			c.NDV = 1
		}
		c.Numeric = !c.nonNumeric && nonNull > 0
		if c.nonNumeric {
			c.HasRange, c.MinF, c.MaxF = false, 0, 0
		}
		out.byName[strings.ToLower(def.Name)] = ci
	}
	return out
}

// SameSketch reports whether two columns' distinct-count sketches hold the
// same state: the same set of hashes in the exact phase (whatever the probe
// table's layout, which depends on insertion order), the same registers
// after it. Exported for frame_test.go.
func SameSketch(a, b *Column) bool {
	x, y := &a.sk, &b.sk
	if (x.regs == nil) != (y.regs == nil) || x.n != y.n || x.zero != y.zero || string(x.regs) != string(y.regs) {
		return false
	}
	held := make(map[uint64]bool, x.n)
	for _, h := range x.slots {
		if h != 0 {
			held[h] = true
		}
	}
	for _, h := range y.slots {
		if h != 0 && !held[h] {
			return false
		}
	}
	return true
}
