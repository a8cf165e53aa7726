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

// TestColumnsCacheAndGeneration: a table version carries one Version and the
// state derived from its rows. The frame and the statistics slot are built
// once and shared while the version stands, rebuilt after a direct Insert
// (which re-stamps the version, once per batch), and a BeginVersion draft
// starts with its own Version and neither.
func TestColumnsCacheAndGeneration(t *testing.T) {
	tab := newTable(t)
	rows := []types.Row{
		{types.NewInt(1), types.NewText("a"), types.NewFloat(1.5)},
		{types.NewInt(2), types.NewText("b"), types.Null()},
		{types.NewInt(3), types.Null(), types.NewFloat(3.5)},
	}
	v0 := tab.Version()
	if v0 == 0 {
		t.Fatal("a new table has Version 0, which stands for \"no table\"")
	}
	if err := tab.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	v1 := tab.Version()
	if v1 <= v0 {
		t.Fatalf("InsertAll did not re-stamp: Version %d after %d", v1, v0)
	}

	builds := 0
	stat := func(tb *Table) any { builds++; return len(tb.Rows) }
	f := tab.Columns()
	if f.Rows() != 3 {
		t.Fatalf("frame rows = %d, want 3", f.Rows())
	}
	if tab.Columns() != f {
		t.Fatal("Columns() rebuilt the frame without any table change")
	}
	if tab.Stats(stat) != 3 || tab.Stats(stat) != 3 || builds != 1 {
		t.Fatalf("statistics built %d times for one version, want once", builds)
	}
	if tab.Version() != v1 {
		t.Fatal("reading derived state changed the Version")
	}

	// A draft is a new version with no derived state of its own; deriving and
	// filling it leaves the parent's untouched.
	draft := tab.BeginVersion()
	if draft.Version() <= v1 {
		t.Fatalf("draft Version %d not after parent's %d", draft.Version(), v1)
	}
	if err := draft.Insert(types.Row{types.NewInt(9), types.NewText("z"), types.Null()}); err != nil {
		t.Fatal(err)
	}
	if df := draft.Columns(); df == f || df.Rows() != 4 {
		t.Fatalf("draft frame shared with parent or wrong size (%d rows)", df.Rows())
	}
	if draft.Stats(stat) != 4 || builds != 2 {
		t.Fatalf("draft statistics not built for the draft (builds = %d)", builds)
	}
	if tab.Columns() != f || tab.Stats(stat) != 3 || tab.Len() != 3 || tab.Version() != v1 {
		t.Fatal("a draft disturbed its parent version")
	}

	// A single insert makes a new version; the next Columns() sees the new row.
	if err := tab.Insert(types.Row{types.NewInt(4), types.NewText("a"), types.Null()}); err != nil {
		t.Fatal(err)
	}
	if tab.Version() <= draft.Version() {
		t.Fatal("Insert did not re-stamp the Version")
	}
	f2 := tab.Columns()
	if f2 == f {
		t.Fatal("Columns() returned a stale frame after Insert")
	}
	if f2.Rows() != 4 {
		t.Fatalf("frame rows after insert = %d, want 4", f2.Rows())
	}
	if tab.Stats(stat) != 4 || builds != 3 {
		t.Fatalf("statistics not rebuilt after Insert (builds = %d)", builds)
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
