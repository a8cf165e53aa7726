package colstore

import (
	"math"

	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// This file holds the kernels behind sideways information passing (SIP): the
// cost-based planner computes the build side's [min, max] key bounds and
// pre-drops probe rows that cannot possibly match before they are hashed.
// Both kernels read a single-column Key — typed numeric vectors directly,
// any other column through boxed values — and mirror cmp3 (types.Compare on
// non-NULL numerics) exactly, so the pre-filter never drops a row the exact
// semi-join would keep: NaN probe values pass any range (cmp3 reports 0 against every
// bound, matching their Compare behavior), and NULL, non-numeric or
// out-of-range values can never equal an in-range numeric build key.

// numKind classifies what numReader found in a row.
type numKind uint8

const (
	numNull numKind = iota
	numValue
	numOther // non-NULL and not numeric
)

// numReader returns how to read k's first key column as a float64, by
// logical row. One reader per column representation keeps the loops below
// single.
func (k Key) numReader() func(j int) (float64, numKind) {
	v := k.view
	switch c := k.kc[0].(type) {
	case *Int64Column:
		return func(j int) (float64, numKind) {
			i := v.Index(j)
			if c.Nulls.Get(i) {
				return 0, numNull
			}
			return float64(c.Vals[i]), numValue
		}
	case *Float64Column:
		return func(j int) (float64, numKind) {
			i := v.Index(j)
			if c.Nulls.Get(i) {
				return 0, numNull
			}
			return c.Vals[i], numValue
		}
	}
	col := k.kc[0]
	return func(j int) (float64, numKind) {
		val := col.Value(v.Index(j))
		switch val.Kind() {
		case types.KindNull:
			return 0, numNull
		case types.KindInt, types.KindFloat:
			return val.Float(), numValue
		}
		return 0, numOther
	}
}

// NumMinMax returns the minimum and maximum of the non-NULL numeric values of
// k's (single) key column. NaN values are skipped (they match only by bit
// pattern and pass any range filter regardless). ok is false when any
// non-NULL value is non-numeric (a range filter would be unsound to derive)
// or when no usable value exists.
func NumMinMax(k Key) (lo, hi float64, ok bool) {
	read := k.numReader()
	for j, n := 0, k.Len(); j < n; j++ {
		f, kind := read(j)
		switch {
		case kind == numOther:
			return 0, 0, false
		case kind == numNull || math.IsNaN(f):
		case !ok:
			lo, hi, ok = f, f, true
		case f < lo:
			lo = f
		case f > hi:
			hi = f
		}
	}
	return lo, hi, ok
}

// NumRangeSelect returns the positions (ascending) of k's rows whose key
// value is numeric, non-NULL and within [lo, hi] under cmp3 semantics (NaN
// passes). The scan is chunked across the worker pool at degree par with the
// deterministic ordered merge, so results are identical at any degree.
func NumRangeSelect(k Key, lo, hi float64, par int) []int32 {
	read := k.numReader()
	return parallel.Map(k.Len(), par, func(a, b int) []int32 {
		kept := make([]int32, 0, b-a)
		for j := a; j < b; j++ {
			f, kind := read(j)
			if kind == numValue && cmp3(f, lo) >= 0 && cmp3(f, hi) <= 0 {
				kept = append(kept, int32(j))
			}
		}
		return kept
	})
}
