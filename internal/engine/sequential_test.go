package engine

import (
	"fmt"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/colstore"
	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
)

// The sequential pipeline (outer joins, computed select lists, GROUP BY)
// passes positions like every other operator: these guards pin what that
// means — no tuple of the input is boxed, and input vectors and dictionaries
// reach the output shared. (parallel_equiv_test.go pins the same rows in the
// same order at any degree.)

// factSource is a generated fact table f of n rows x 9 columns (id, a key k
// into d, six INTEGER measures with some NULLs, a TEXT label over a small
// dictionary) and a 100-row dimension d(id, region, name).
func factSource(t *testing.T, n int) memSource {
	t.Helper()
	fact := make([]types.Row, n)
	for i := range fact {
		var m5 any
		if i%11 != 0 {
			m5 = i % 13
		}
		fact[i] = ir(i, (i*7)%100, i%50, i%9, (i*3)%101, i%4, m5, i%1000, fmt.Sprintf("label%d", i%16))
	}
	dim := make([]types.Row, 100)
	for i := range dim {
		dim[i] = ir(i, fmt.Sprintf("r%d", i%5), fmt.Sprintf("name%d", i))
	}
	return memSource{
		"f": mkTable(t, "f", []catalog.Column{intCol("id"), intCol("k"), intCol("m1"), intCol("m2"), intCol("m3"),
			intCol("m4"), intCol("m5"), intCol("m6"), textCol("label")}, []string{"id"}, fact...),
		"d": mkTable(t, "d", []catalog.Column{intCol("id"), textCol("region"), textCol("name")}, []string{"id"}, dim...),
	}
}

// TestSequentialOperatorsBoxNoInput: a LEFT OUTER join with a residual and a
// projection with one computed item, over 10 000 x 9 cells, allocate what
// their outputs take — position pairs and gathered vectors; one column of
// computed values — within a per-input-row bound set at 1.5x what was
// measured when they stopped boxing (122 and 33 bytes a row). Boxing the input
// costs 32 bytes a cell, 288 a row, before anything is computed: the
// row-at-a-time operators these replaced allocated 1616 and 521 bytes a row
// here.
func TestSequentialOperatorsBoxNoInput(t *testing.T) {
	const n = 10000
	ex := &Executor{Src: factSource(t, n), Parallelism: 1}
	for _, c := range []struct {
		name, sql string
		rows      int
		perRow    uint64
	}{
		{"left outer join", "SELECT * FROM f AS f LEFT OUTER JOIN d AS d ON f.k = d.id AND d.region = 'r1'", n, 183},
		{"one computed item", "SELECT f.m1 * f.m3 FROM f AS f WHERE f.m1 < 25", n / 2, 50},
	} {
		sel, err := sqlparse.ParseSelect(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			rel, err := ex.Select(sel)
			if err != nil || rel.Len() != c.rows {
				t.Fatalf("%s: %d rows, %v; want %d", c.name, rel.Len(), err, c.rows)
			}
		}
		run()
		got := allocBytes(run)
		t.Logf("%s: %d bytes, %.1f a row", c.name, got, float64(got)/n)
		if got > c.perRow*n {
			t.Errorf("%s allocates %d bytes over %d input rows, want at most %d a row: is the input being boxed?", c.name, got, n, c.perRow)
		}
	}
}

// TestProjectionSharesVectors: star and column items of a select list with a
// computed item beside them are the input's own vectors — under no selection
// the very same, under one gathered by code over the same dictionary — and
// the computed item is a typed vector, not a column of boxed values.
func TestProjectionSharesVectors(t *testing.T) {
	src := factSource(t, 2000)
	base := src["f"].Columns().Col(8).(*colstore.TextColumn)
	rel := runSelect(t, src, "SELECT f.label, f.m1 + 1 FROM f AS f")
	if rel.Vec.Frame.Col(0) != colstore.Column(base) {
		t.Errorf("column 0 is %T, want the base table's own label vector", rel.Vec.Frame.Col(0))
	}
	if _, ok := rel.Vec.Frame.Col(1).(*colstore.Int64Column); !ok || rel.Cols[1].Kind != types.KindInt {
		t.Errorf("computed column is %T of kind %s, want a typed INTEGER vector", rel.Vec.Frame.Col(1), rel.Cols[1].Kind)
	}
	rel = runSelect(t, src, "SELECT f.label, f.m1 + 1, f.* FROM f AS f WHERE f.m2 + 0 = 3")
	for _, c := range []int{0, 10} {
		label, ok := rel.Vec.Frame.Col(c).(*colstore.TextColumn)
		if !ok || &label.Dict[0] != &base.Dict[0] || label.Len() != rel.Len() {
			t.Errorf("column %d is %T, want a TEXT vector of the %d selected rows sharing the base table's dictionary", c, rel.Vec.Frame.Col(c), rel.Len())
		}
	}
	// A LEFT OUTER join's right side is gathered with NULLs where nothing
	// matched, still by code over the dimension's dictionary.
	rel = runSelect(t, src, "SELECT f.id, d.region FROM f AS f LEFT OUTER JOIN d AS d ON f.k = d.id AND d.region = 'r1'")
	region, ok := rel.Vec.Frame.Col(1).(*colstore.TextColumn)
	if dim := src["d"].Columns().Col(1).(*colstore.TextColumn); !ok || &region.Dict[0] != &dim.Dict[0] {
		t.Fatalf("outer-join output's right side is %T, want a TEXT vector over the dimension's dictionary", rel.Vec.Frame.Col(1))
	}
	if nulls := region.Nulls.Count(); nulls != 2000*4/5 {
		t.Errorf("%d NULL-extended rows, want %d", nulls, 2000*4/5)
	}
}
