package stats_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/db"
	"resultdb/internal/stats"
	"resultdb/internal/storage"
	"resultdb/internal/types"
	"resultdb/internal/workload/job"
)

// sameStats compares the column-wise build from row 0 with the row-wise
// definition, field by field.
func sameStats(t *testing.T, tab *storage.Table) {
	t.Helper()
	matchesRowwise(t, tab, stats.Fold(tab, nil))
}

// matchesRowwise compares statistics derived for tab — built or extended —
// with the row-wise definition, field by field, sketch state included.
func matchesRowwise(t *testing.T, tab *storage.Table, got *stats.Table) {
	t.Helper()
	want := stats.RowwiseFromTable(tab)
	if got.Name != want.Name || got.Rows != want.Rows || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: table header %s/%d/%d cols, want %s/%d/%d", tab.Def.Name,
			got.Name, got.Rows, len(got.Cols), want.Name, want.Rows, len(want.Cols))
	}
	for i := range want.Cols {
		g, w := got.Cols[i], want.Cols[i]
		if g.Name != w.Name || g.Kind != w.Kind || g.Rows != w.Rows || g.Nulls != w.Nulls || g.NDV != w.NDV ||
			g.Numeric != w.Numeric || g.HasRange != w.HasRange || g.MinF != w.MinF || g.MaxF != w.MaxF {
			t.Errorf("%s.%s: from the frame %+v, row-wise %+v", tab.Def.Name, w.Name, g, w)
		}
		if !stats.SameSketch(&g, &w) {
			t.Errorf("%s.%s: distinct-count sketches differ", tab.Def.Name, w.Name)
		}
		if got.Col(w.Name) == nil {
			t.Errorf("%s.%s: not found by name", tab.Def.Name, w.Name)
		}
	}
}

// TestFromTableMatchesRowwise: statistics read off the frame are the
// statistics the boxed rows give — same counts, same sketch (it sees the same
// hashes, TestFrameHashMatchesRowHash pins the hash), same range — on the JOB
// tables and on a table that is mostly NULLs, with NaNs, an overflowing
// (HyperLogLog) TEXT column and an all-NULL column.
func TestFromTableMatchesRowwise(t *testing.T) {
	d := db.New()
	if err := job.Load(d, job.Config{Scale: 0.1, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	for _, name := range d.TableNames() {
		tab, err := d.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		sameStats(t, tab)
	}

	def := catalog.MustTableDef("sparse", []catalog.Column{
		{Name: "i", Type: types.KindInt},
		{Name: "x", Type: types.KindFloat},
		{Name: "b", Type: types.KindBool},
		{Name: "s", Type: types.KindText},
		{Name: "void", Type: types.KindInt},
	})
	tab := storage.NewTable(def)
	rng := rand.New(rand.NewSource(5))
	for r := 0; r < 70_000; r++ {
		row := make(types.Row, 5)
		if rng.Intn(10) < 3 {
			row[0] = types.NewInt(rng.Int63n(20_000) - 10_000)
		}
		switch rng.Intn(10) {
		case 0, 1:
			row[1] = types.NewFloat(rng.NormFloat64() * 1e6)
		case 2:
			row[1] = types.NewFloat(math.NaN())
		}
		if rng.Intn(10) < 2 {
			row[2] = types.NewBool(rng.Intn(2) == 0)
		}
		if rng.Intn(10) < 4 {
			row[3] = types.NewText(fmt.Sprintf("s%d", rng.Intn(9000)))
		}
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	sameStats(t, tab)
	sameStats(t, storage.NewTable(def)) // and the empty table
}
