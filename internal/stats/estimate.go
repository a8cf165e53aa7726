package stats

// The containment model — the one cardinality model every planner decision
// reads. Two relations joined on a key share the values of the side with fewer
// distinct keys (containment), so
//
//	|A ⋉ B| / |A| ≈ min(1, ndv_B / ndv_A)    |A ⋈ B| ≈ |A|·|B| / max(ndv_A, ndv_B)
//
// where a key's NDV is KeyNDV over the base-column NDVs these statistics hold.
// Its callers: core's reduction schedule (root choice, the bottom-up order,
// span estimates) and engine's greedy join order.

// KeyNDV estimates the distinct keys of a relation of rows rows over key
// columns whose base-table NDVs are base: their product, each column capped by
// rows and counted as all-distinct when its NDV is unknown (not positive, or
// NaN), and the product capped by rows (a filtered or reduced relation has no
// more distinct keys than rows). At most one row gives rows.
func KeyNDV(rows float64, base ...float64) float64 {
	if rows <= 1 {
		return rows
	}
	prod := 1.0
	for _, b := range base {
		d := rows
		if b > 0 && b < d {
			d = b
		}
		prod *= d
		if prod >= rows {
			return rows
		}
	}
	if prod < 1 {
		prod = 1
	}
	return prod
}

// SemiJoinSel estimates the fraction of a target's rows that survive
// target ⋉ source, from the two sides' key NDVs (KeyNDV): the source's over
// the target's, capped at 1. An empty side gives 0.
func SemiJoinSel(target, source float64) float64 {
	if source <= 0 || target <= 0 {
		return 0
	}
	if s := source / target; s < 1 {
		return s
	}
	return 1
}

// JoinRows applies one join predicate to the estimated output rows of a join
// (|A|·|B| before the first): rows divided by the larger of the two sides' key
// NDVs, and by at least 1, so empty sides give 0 rows, never NaN.
func JoinRows(rows, a, b float64) float64 {
	return rows / max(a, b, 1)
}
