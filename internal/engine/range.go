package engine

import (
	"math"

	"resultdb/internal/colstore"
	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// Sideways information passing support: the cost-based reducer computes the
// build side's numeric key range and pre-drops probe rows that cannot match
// before they reach the hash table. Correctness relies on join-key equality
// semantics (types.Equal / the key hash encoding): a numeric build key can
// only equal a numeric probe value with the same float64 value, NULL keys
// never join, and non-numeric probe values never equal numeric build keys.
// NaN probe values are always kept (cmp3 reports 0 against any bound, the
// same convention types.Compare uses), so the filter has no false drops.

// NumKeyRange returns the [min, max] bounds of rel's column col over its
// non-NULL values, for use as a semi-join prefilter range. ok is false when
// any non-null value is non-numeric (a range filter would be unsound to
// derive), when only NaN values exist, or when the column is empty.
func NumKeyRange(rel *Relation, col int) (lo, hi float64, ok bool) {
	if rel.Vec != nil {
		return colstore.NumMinMaxView(rel.Vec, col)
	}
	for _, row := range rel.Rows {
		v := row[col]
		if v.IsNull() {
			continue
		}
		if v.Kind() != types.KindInt && v.Kind() != types.KindFloat {
			return 0, 0, false
		}
		f := v.Float()
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

// RangeSemiFilter returns rel restricted to rows whose col value could equal
// a numeric join key in [lo, hi]: non-NULL, numeric, and within the bounds
// under cmp3 semantics (NaN always passes). Rows are kept in input order and
// the columnar view (when present) is narrowed alongside, so a subsequent
// exact semi-join sees a smaller but otherwise identical relation. The
// second result is the number of rows skipped.
//
// Only sound when the build side is all-numeric (see NumKeyRange): dropped
// rows are NULL (never join), non-numeric (never equal a numeric key), or
// numerically outside every build key.
func RangeSemiFilter(rel *Relation, col int, lo, hi float64, par int) (*Relation, int) {
	var keep []int32
	if rel.Vec != nil {
		if k, ok := colstore.NumRangeSelect(rel.Vec, col, lo, hi, par); ok {
			keep = k
		}
	}
	if keep == nil {
		keep = parallel.Map(len(rel.Rows), par, func(a, b int) []int32 {
			kept := make([]int32, 0, b-a)
			for j := a; j < b; j++ {
				v := rel.Rows[j][col]
				if v.IsNull() || (v.Kind() != types.KindInt && v.Kind() != types.KindFloat) {
					continue
				}
				f := v.Float()
				if rangeCmp3(f, lo) >= 0 && rangeCmp3(f, hi) <= 0 {
					kept = append(kept, int32(j))
				}
			}
			return kept
		})
	}
	if len(keep) == len(rel.Rows) {
		return rel, 0
	}
	return rel.Narrow(keep), len(rel.Rows) - len(keep)
}

// rangeCmp3 mirrors colstore's cmp3 (types.Compare on non-NULL numerics):
// three-way by float value with NaN reporting 0 against everything.
func rangeCmp3(v, rhs float64) int {
	switch {
	case v < rhs:
		return -1
	case v > rhs:
		return 1
	default:
		return 0
	}
}
