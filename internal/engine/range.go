package engine

import "resultdb/internal/colstore"

// Sideways information passing support: the cost-based reducer computes the
// build side's numeric key range and pre-drops probe rows that cannot match
// before they reach the hash table. Correctness relies on join-key equality
// semantics (types.Equal / the key hash encoding): a numeric build key can
// only equal a numeric probe value with the same float64 value, NULL keys
// never join, and non-numeric probe values never equal numeric build keys.
// NaN probe values are always kept (cmp3 reports 0 against any bound, the
// same convention types.Compare uses), so the filter has no false drops. The
// scans themselves are colstore's (range.go there), over the same Key every
// other operator reads a relation through.

// NumKeyRange returns the [min, max] bounds of rel's column col over its
// non-NULL values, for use as a semi-join prefilter range. ok is false when
// any non-null value is non-numeric (a range filter would be unsound to
// derive), when only NaN values exist, or when the column is empty.
func NumKeyRange(rel *Relation, col int) (lo, hi float64, ok bool) {
	return colstore.NumMinMax(rel.Key([]int{col}))
}

// RangeSemiFilter returns rel restricted to rows whose col value could equal
// a numeric join key in [lo, hi]: non-NULL, numeric, and within the bounds
// under cmp3 semantics (NaN always passes). Rows are kept in input order (the
// selection is narrowed), so a subsequent exact semi-join sees a smaller but
// otherwise identical relation. The second result is the number of rows
// skipped.
//
// Only sound when the build side is all-numeric (see NumKeyRange): dropped
// rows are NULL (never join), non-numeric (never equal a numeric key), or
// numerically outside every build key.
func RangeSemiFilter(rel *Relation, col int, lo, hi float64, par int) (*Relation, int) {
	keep := colstore.NumRangeSelect(rel.Key([]int{col}), lo, hi, par)
	if len(keep) == rel.Len() {
		return rel, 0
	}
	return rel.Narrow(keep), rel.Len() - len(keep)
}
