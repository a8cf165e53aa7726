// Package catalog holds logical schema metadata: columns, table definitions,
// and primary and foreign keys.
//
// It is purely logical: physical storage lives in internal/storage, and the
// registry of a database's tables is its published table map (internal/db).
package catalog

import (
	"fmt"
	"strings"

	"resultdb/internal/types"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type types.Kind
	// NotNull marks columns that reject NULL on insert.
	NotNull bool
}

// ForeignKey records that Columns of this table reference RefColumns of
// RefTable. It is metadata only (used by workload generators and the
// relationship-preserving projection); the engine does not enforce it.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// TableDef is the logical definition of one base table or materialized view.
type TableDef struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string // column names; may be empty
	ForeignKeys []ForeignKey
	// IsView marks materialized views created via CREATE MATERIALIZED VIEW.
	IsView bool

	byName map[string]int
}

// NewTableDef builds a TableDef and its name index. Column names must be
// unique (case-insensitive).
func NewTableDef(name string, cols []Column) (*TableDef, error) {
	d := &TableDef{Name: name, Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := d.byName[key]; dup {
			return nil, fmt.Errorf("catalog: duplicate column %q in table %q", c.Name, name)
		}
		d.byName[key] = i
	}
	return d, nil
}

// MustTableDef is NewTableDef that panics on error; for statically known
// schemas in workload generators and tests.
func MustTableDef(name string, cols []Column) *TableDef {
	d, err := NewTableDef(name, cols)
	if err != nil {
		panic(err)
	}
	return d
}

// ColumnIndex returns the position of the named column, or -1.
func (d *TableDef) ColumnIndex(name string) int {
	if i, ok := d.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// ColumnNames returns the column names in order.
func (d *TableDef) ColumnNames() []string {
	out := make([]string, len(d.Columns))
	for i, c := range d.Columns {
		out[i] = c.Name
	}
	return out
}

// Clone returns a deep copy of the definition (so ALTER-like operations and
// view creation never alias the original).
func (d *TableDef) Clone() *TableDef {
	cols := make([]Column, len(d.Columns))
	copy(cols, d.Columns)
	nd := MustTableDef(d.Name, cols)
	nd.PrimaryKey = append([]string(nil), d.PrimaryKey...)
	nd.IsView = d.IsView
	for _, fk := range d.ForeignKeys {
		nd.ForeignKeys = append(nd.ForeignKeys, ForeignKey{
			Columns:    append([]string(nil), fk.Columns...),
			RefTable:   fk.RefTable,
			RefColumns: append([]string(nil), fk.RefColumns...),
		})
	}
	return nd
}

// String renders the definition as a CREATE TABLE-like signature.
func (d *TableDef) String() string {
	var b strings.Builder
	b.WriteString(d.Name)
	b.WriteByte('(')
	for i, c := range d.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}
