package catalog

import (
	"strings"
	"testing"

	"resultdb/internal/types"
)

func sampleDef(t *testing.T) *TableDef {
	t.Helper()
	d, err := NewTableDef("customers", []Column{
		{Name: "id", Type: types.KindInt, NotNull: true},
		{Name: "name", Type: types.KindText},
		{Name: "state", Type: types.KindText},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.PrimaryKey = []string{"id"}
	return d
}

func TestNewTableDefRejectsDuplicateColumns(t *testing.T) {
	_, err := NewTableDef("t", []Column{
		{Name: "x", Type: types.KindInt},
		{Name: "X", Type: types.KindText}, // case-insensitive clash
	})
	if err == nil {
		t.Fatal("expected duplicate-column error")
	}
}

func TestColumnIndexCaseInsensitive(t *testing.T) {
	d := sampleDef(t)
	if d.ColumnIndex("NAME") != 1 {
		t.Errorf("ColumnIndex(NAME) = %d, want 1", d.ColumnIndex("NAME"))
	}
	if d.ColumnIndex("missing") != -1 {
		t.Error("missing column should be -1")
	}
}

func TestColumnNamesAndPKIndexes(t *testing.T) {
	d := sampleDef(t)
	if got := strings.Join(d.ColumnNames(), ","); got != "id,name,state" {
		t.Errorf("ColumnNames = %s", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := sampleDef(t)
	d.ForeignKeys = []ForeignKey{{Columns: []string{"id"}, RefTable: "x", RefColumns: []string{"id"}}}
	c := d.Clone()
	c.PrimaryKey[0] = "name"
	c.ForeignKeys[0].Columns[0] = "state"
	if d.PrimaryKey[0] != "id" || d.ForeignKeys[0].Columns[0] != "id" {
		t.Error("Clone shares slices with the original")
	}
}

func TestTableDefString(t *testing.T) {
	d := sampleDef(t)
	want := "customers(id INTEGER, name TEXT, state TEXT)"
	if got := d.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestMustTableDefPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustTableDef should panic on duplicate columns")
		}
	}()
	MustTableDef("t", []Column{{Name: "a"}, {Name: "a"}})
}
