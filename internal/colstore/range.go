package colstore

import (
	"math"

	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// numericValue reports whether v is INTEGER or DOUBLE.
func numericValue(v types.Value) bool {
	return v.Kind() == types.KindInt || v.Kind() == types.KindFloat
}

// This file holds the columnar kernels behind sideways information passing
// (SIP): the cost-based planner computes the build side's [min, max] key
// bounds and pre-drops probe rows that cannot possibly match before they are
// hashed. Both kernels mirror cmp3 (types.Compare on non-NULL numerics)
// exactly, so the pre-filter never drops a row the exact semi-join would
// keep: NaN probe values pass any range (cmp3 reports 0 against every bound,
// matching their Compare behavior), and NULL or out-of-range values can
// never equal an in-range build key.

// NumMinMaxView scans column col of the view's selected rows and returns the
// minimum and maximum of its non-NULL numeric values. NaN values are skipped
// (they match only by bit pattern and pass any range filter regardless).
// ok is false when the column is non-numeric, when any non-null value of an
// untyped column is non-numeric, or when no usable value exists.
func NumMinMaxView(v *View, col int) (lo, hi float64, ok bool) {
	switch c := v.Frame.Col(col).(type) {
	case *Int64Column:
		return intMinMax(v, c)
	case *Float64Column:
		return floatMinMax(v, c)
	case *AnyColumn:
		return anyMinMax(v, c)
	}
	return 0, 0, false
}

func intMinMax(v *View, c *Int64Column) (lo, hi float64, ok bool) {
	var mn, mx int64
	if v.Sel == nil {
		for i, val := range c.Vals {
			if c.Nulls.Get(i) {
				continue
			}
			if !ok {
				mn, mx, ok = val, val, true
			} else if val < mn {
				mn = val
			} else if val > mx {
				mx = val
			}
		}
	} else {
		for _, i := range v.Sel {
			if c.Nulls.Get(int(i)) {
				continue
			}
			val := c.Vals[i]
			if !ok {
				mn, mx, ok = val, val, true
			} else if val < mn {
				mn = val
			} else if val > mx {
				mx = val
			}
		}
	}
	return float64(mn), float64(mx), ok
}

func floatMinMax(v *View, c *Float64Column) (lo, hi float64, ok bool) {
	update := func(val float64) {
		if math.IsNaN(val) {
			return
		}
		if !ok {
			lo, hi, ok = val, val, true
		} else if val < lo {
			lo = val
		} else if val > hi {
			hi = val
		}
	}
	if v.Sel == nil {
		for i, val := range c.Vals {
			if !c.Nulls.Get(i) {
				update(val)
			}
		}
	} else {
		for _, i := range v.Sel {
			if !c.Nulls.Get(int(i)) {
				update(c.Vals[i])
			}
		}
	}
	return lo, hi, ok
}

func anyMinMax(v *View, c *AnyColumn) (lo, hi float64, ok bool) {
	n := v.Len()
	for j := 0; j < n; j++ {
		val := c.Vals[v.Index(j)]
		if val.IsNull() {
			continue
		}
		if !numericValue(val) {
			return 0, 0, false
		}
		f := val.Float()
		if math.IsNaN(f) {
			continue
		}
		if !ok {
			lo, hi, ok = f, f, true
		} else if f < lo {
			lo = f
		} else if f > hi {
			hi = f
		}
	}
	return lo, hi, ok
}

// NumRangeSelect returns the logical positions (ascending) of the view's
// rows whose col value is non-NULL and within [lo, hi] under cmp3 semantics
// (NaN passes: cmp3 reports 0 against both bounds, mirroring types.Compare).
// ok is false for non-numeric or untyped columns; callers fall back to
// reading the rows. The scan is chunked across the worker pool at degree par
// with the deterministic ordered merge, so results are identical at any
// degree.
func NumRangeSelect(v *View, col int, lo, hi float64, par int) (keep []int32, ok bool) {
	switch c := v.Frame.Col(col).(type) {
	case *Int64Column:
		return rangeSelect(v, lo, hi, par, func(i int) (float64, bool) {
			return float64(c.Vals[i]), !c.Nulls.Get(i)
		}), true
	case *Float64Column:
		return rangeSelect(v, lo, hi, par, func(i int) (float64, bool) {
			return c.Vals[i], !c.Nulls.Get(i)
		}), true
	}
	return nil, false
}

// rangeSelect is the shared chunked loop of NumRangeSelect. val reports a
// frame row's numeric value and whether it is non-NULL; the closure
// indirection keeps one loop for both typed columns.
func rangeSelect(v *View, lo, hi float64, par int, val func(i int) (float64, bool)) []int32 {
	out := parallel.Map(v.Len(), par, func(a, b int) []int32 {
		kept := make([]int32, 0, b-a)
		for j := a; j < b; j++ {
			f, nonNull := val(v.Index(j))
			if nonNull && cmp3(f, lo) >= 0 && cmp3(f, hi) <= 0 {
				kept = append(kept, int32(j))
			}
		}
		return kept
	})
	if out == nil {
		out = []int32{}
	}
	return out
}
