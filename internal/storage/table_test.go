package storage

import (
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/types"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	def := catalog.MustTableDef("t", []catalog.Column{
		{Name: "id", Type: types.KindInt, NotNull: true},
		{Name: "name", Type: types.KindText},
		{Name: "score", Type: types.KindFloat},
	})
	def.PrimaryKey = []string{"id"}
	return NewTable(def)
}

func TestInsertValidation(t *testing.T) {
	tab := newTable(t)
	ok := types.Row{types.NewInt(1), types.NewText("a"), types.NewFloat(1.5)}
	if err := tab.Insert(ok); err != nil {
		t.Fatal(err)
	}
	// Arity mismatch.
	if err := tab.Insert(types.Row{types.NewInt(1)}); err == nil {
		t.Error("short row accepted")
	}
	// NOT NULL violation.
	if err := tab.Insert(types.Row{types.Null(), types.NewText("a"), types.Null()}); err == nil {
		t.Error("NULL in NOT NULL column accepted")
	}
	// Coercion: int into float column.
	if err := tab.Insert(types.Row{types.NewInt(2), types.Null(), types.NewInt(3)}); err != nil {
		t.Errorf("int->float coercion failed: %v", err)
	}
	if got := tab.Rows[1][2]; got.Kind() != types.KindFloat || got.Float() != 3 {
		t.Errorf("coerced value = %v", got)
	}
	// Type error: text into int column.
	if err := tab.Insert(types.Row{types.NewText("x"), types.Null(), types.Null()}); err == nil {
		t.Error("text into int column accepted")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
}

func TestWireSize(t *testing.T) {
	tab := newTable(t)
	if err := tab.InsertAll([]types.Row{
		{types.NewInt(2), types.NewText("bb"), types.NewFloat(0)},
		{types.NewInt(1), types.NewText("a"), types.NewFloat(0)},
	}); err != nil {
		t.Fatal(err)
	}
	// id(8) + name(2) + score(8) + id(8) + name(1) + score(8)
	if got := tab.WireSize(); got != 35 {
		t.Errorf("WireSize = %d, want 35", got)
	}
}

// TestColumnsCacheAndGeneration: the columnar frame is built lazily, cached
// until the table changes, and invalidated by the generation counter. A batch
// InsertAll bumps the generation exactly once.
func TestColumnsCacheAndGeneration(t *testing.T) {
	tab := newTable(t)
	rows := []types.Row{
		{types.NewInt(1), types.NewText("a"), types.NewFloat(1.5)},
		{types.NewInt(2), types.NewText("b"), types.Null()},
		{types.NewInt(3), types.Null(), types.NewFloat(3.5)},
	}
	g0 := tab.Generation()
	if err := tab.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	if got := tab.Generation(); got != g0+1 {
		t.Fatalf("InsertAll of %d rows bumped generation %d times, want once", len(rows), got-g0)
	}

	f := tab.Columns()
	if f.Rows() != 3 {
		t.Fatalf("frame rows = %d, want 3", f.Rows())
	}
	if tab.Columns() != f {
		t.Fatal("Columns() rebuilt the frame without any table change")
	}

	// A single insert invalidates; the next Columns() sees the new row.
	if err := tab.Insert(types.Row{types.NewInt(4), types.NewText("a"), types.Null()}); err != nil {
		t.Fatal(err)
	}
	f2 := tab.Columns()
	if f2 == f {
		t.Fatal("Columns() returned a stale frame after Insert")
	}
	if f2.Rows() != 4 {
		t.Fatalf("frame rows after insert = %d, want 4", f2.Rows())
	}
	// Frame values reconstruct the stored rows exactly.
	for j, row := range tab.Rows {
		for c := range row {
			if !types.Equal(f2.Col(c).Value(j), row[c]) {
				t.Fatalf("frame[%d][%d] = %v, want %v", c, j, f2.Col(c).Value(j), row[c])
			}
		}
	}
}
