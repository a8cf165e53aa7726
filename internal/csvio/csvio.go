// Package csvio imports and exports tables as CSV with a typed header, so
// the synthetic workloads can be dumped for inspection or loaded into other
// systems, and external data can be loaded into the engine.
//
// Format: the first record is a header of "name:TYPE" fields (TYPE one of
// INTEGER, DOUBLE, TEXT, BOOLEAN); NULLs are written as \N (PostgreSQL COPY
// convention), which is distinguishable from the empty string.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"resultdb/internal/catalog"
	"resultdb/internal/db"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// nullToken marks SQL NULL in CSV cells.
const nullToken = `\N`

// Dump writes the table to w: typed header, then one record per row.
func Dump(t *storage.Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Def.Columns))
	for i, c := range t.Def.Columns {
		header[i] = c.Name + ":" + c.Type.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	record := make([]string, len(header))
	for _, row := range t.Rows() {
		for i, v := range row {
			record[i] = renderCell(v)
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func renderCell(v types.Value) string {
	if v.IsNull() {
		return nullToken
	}
	return v.String()
}

// Load creates table name in d from the CSV stream and inserts every row.
// The header defines the schema; the first column is used as the primary
// key when its name is "id" (the convention of the bundled workloads).
func Load(d *db.Database, name string, r io.Reader) (int, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("csvio: reading header: %w", err)
	}
	cols := make([]catalog.Column, len(header))
	for i, h := range header {
		name, kind, err := parseHeaderField(h)
		if err != nil {
			return 0, err
		}
		cols[i] = catalog.Column{Name: name, Type: kind}
	}
	def, err := catalog.NewTableDef(name, cols)
	if err != nil {
		return 0, err
	}
	if strings.EqualFold(cols[0].Name, "id") {
		def.PrimaryKey = []string{cols[0].Name}
	}
	tab, err := d.CreateTable(def)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		record, err := cr.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("csvio: record %d: %w", n+1, err)
		}
		if len(record) != len(cols) {
			return n, fmt.Errorf("csvio: record %d has %d fields, want %d", n+1, len(record), len(cols))
		}
		row := make(types.Row, len(cols))
		for i, cell := range record {
			v, err := parseCell(cell, cols[i].Type)
			if err != nil {
				return n, fmt.Errorf("csvio: record %d column %s: %w", n+1, cols[i].Name, err)
			}
			row[i] = v
		}
		if err := tab.Insert(row); err != nil {
			return n, err
		}
		n++
	}
}

func parseHeaderField(h string) (string, types.Kind, error) {
	idx := strings.LastIndexByte(h, ':')
	if idx <= 0 {
		return "", 0, fmt.Errorf("csvio: header field %q is not name:TYPE", h)
	}
	name := h[:idx]
	switch strings.ToUpper(h[idx+1:]) {
	case "INTEGER", "INT", "BIGINT":
		return name, types.KindInt, nil
	case "DOUBLE", "FLOAT", "REAL":
		return name, types.KindFloat, nil
	case "TEXT", "VARCHAR":
		return name, types.KindText, nil
	case "BOOLEAN", "BOOL":
		return name, types.KindBool, nil
	default:
		return "", 0, fmt.Errorf("csvio: unknown type in header field %q", h)
	}
}

func parseCell(cell string, kind types.Kind) (types.Value, error) {
	if cell == nullToken {
		return types.Null(), nil
	}
	switch kind {
	case types.KindInt:
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return types.Value{}, err
		}
		return types.NewInt(n), nil
	case types.KindFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return types.Value{}, err
		}
		return types.NewFloat(f), nil
	case types.KindText:
		return types.NewText(cell), nil
	case types.KindBool:
		switch strings.ToLower(cell) {
		case "true", "t", "1":
			return types.NewBool(true), nil
		case "false", "f", "0":
			return types.NewBool(false), nil
		}
		return types.Value{}, fmt.Errorf("bad boolean %q", cell)
	default:
		return types.Value{}, fmt.Errorf("unsupported kind %v", kind)
	}
}
