package stats

import (
	"math"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// TestContainmentModelKeyNDV pins KeyNDV's edge cases: the rows it is capped
// by, unknown NDVs counted as all-distinct, and the multi-column product.
func TestContainmentModelKeyNDV(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name string
		rows float64
		base []float64
		want float64
	}{
		{"no rows", 0, []float64{5}, 0},
		{"one row", 1, []float64{5}, 1},
		{"one row, unknown NDV", 1, []float64{0}, 1},
		{"known NDV below rows", 100, []float64{7}, 7},
		{"unknown NDV (0) is all-distinct", 100, []float64{0}, 100},
		{"unknown NDV (NaN) is all-distinct", 100, []float64{nan}, 100},
		{"negative NDV is unknown", 100, []float64{-3}, 100},
		{"base NDV above rows is capped", 10, []float64{500}, 10},
		{"product of two columns", 100, []float64{5, 4}, 20},
		{"product capped by rows", 100, []float64{5, 30}, 100},
		{"product capped by rows before an unknown column", 100, []float64{50, 0}, 100},
		{"a fractional product is at least 1", 10, []float64{0.25}, 1},
		{"no key columns", 100, nil, 1},
	} {
		if got := KeyNDV(c.rows, c.base...); got != c.want {
			t.Errorf("%s: KeyNDV(%v, %v) = %v, want %v", c.name, c.rows, c.base, got, c.want)
		}
	}
}

// TestContainmentModelSteps pins the two containment steps: a semi-join's
// selectivity and a join predicate's division, empty sides included.
func TestContainmentModelSteps(t *testing.T) {
	for _, c := range []struct {
		name           string
		target, source float64
		want           float64
	}{
		{"source smaller keeps its share", 40, 10, 0.25},
		{"source larger keeps everything", 10, 40, 1},
		{"equal keys keep everything", 10, 10, 1},
		{"empty source empties the target", 10, KeyNDV(0, 3), 0},
		{"empty target", KeyNDV(0, 3), 10, 0},
	} {
		if got := SemiJoinSel(c.target, c.source); got != c.want {
			t.Errorf("%s: SemiJoinSel(%v, %v) = %v, want %v", c.name, c.target, c.source, got, c.want)
		}
	}
	for _, c := range []struct {
		name       string
		rows, a, b float64
		want       float64
	}{
		{"divides by the larger NDV", 1000, 10, 40, 25},
		{"symmetric", 1000, 40, 10, 25},
		{"two predicates divide in turn", JoinRows(1000, 10, 40), 5, 1, 5},
		{"cross of one-row sides", 1, KeyNDV(1, 9), KeyNDV(1, 9), 1},
		// A greedy step whose joined set and candidate are both empty:
		// 0·0 rows over KeyNDV 0 on either side must score 0, not NaN.
		{"both sides empty", 0 * 0, KeyNDV(0, 3), KeyNDV(0, 3), 0},
		{"one side empty", 0 * 50, KeyNDV(0, 3), KeyNDV(50, 3), 0},
	} {
		got := JoinRows(c.rows, c.a, c.b)
		if math.IsNaN(got) || got != c.want {
			t.Errorf("%s: JoinRows(%v, %v, %v) = %v, want %v", c.name, c.rows, c.a, c.b, got, c.want)
		}
	}
}

// TestContainmentModelReadsStatistics: Table.NDV is the base a caller hands
// KeyNDV — the column's NDV, 0 (unknown) for a missing column or no
// statistics at all.
func TestContainmentModelReadsStatistics(t *testing.T) {
	tab := storage.NewTable(catalog.MustTableDef("t", []catalog.Column{
		{Name: "id", Type: types.KindInt}, {Name: "k", Type: types.KindInt}}))
	for i := 0; i < 12; i++ {
		if err := tab.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 3))}); err != nil {
			t.Fatal(err)
		}
	}
	st := Of(tab)
	if got := st.NDV("K"); got != 3 {
		t.Errorf("NDV(K) = %v, want 3", got)
	}
	if got := KeyNDV(12, st.NDV("id"), st.NDV("k")); got != 12 {
		t.Errorf("KeyNDV over (id, k) = %v, want 12 (capped by rows)", got)
	}
	if got := st.NDV("nosuch"); got != 0 {
		t.Errorf("NDV of a missing column = %v, want 0", got)
	}
	var none *Table
	if got := none.NDV("k"); got != 0 {
		t.Errorf("NDV without statistics = %v, want 0", got)
	}
}
