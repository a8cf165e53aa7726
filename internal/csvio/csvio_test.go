package csvio

import (
	"bytes"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/workload/hierarchy"
)

func TestDumpLoadRoundTrip(t *testing.T) {
	src := db.New()
	if _, err := src.ExecScript(`
		CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score DOUBLE, ok BOOLEAN);
		INSERT INTO t VALUES (1, 'plain', 1.5, TRUE);
		INSERT INTO t VALUES (2, 'comma, quoted "x"', -0.25, FALSE);
		INSERT INTO t VALUES (3, NULL, NULL, NULL);
		INSERT INTO t VALUES (4, '', 0.0, TRUE);
	`); err != nil {
		t.Fatal(err)
	}
	tab, _ := src.Table("t")

	var buf bytes.Buffer
	if err := Dump(tab, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "id:INTEGER,name:TEXT,score:DOUBLE,ok:BOOLEAN") {
		t.Errorf("header = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}

	dst := db.New()
	n, err := Load(dst, "t2", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("loaded %d rows", n)
	}
	got, _ := dst.Table("t2")
	if len(got.Def.PrimaryKey) != 1 || got.Def.PrimaryKey[0] != "id" {
		t.Errorf("pk = %v", got.Def.PrimaryKey)
	}
	loaded := got.Rows()
	for i, row := range tab.Rows() {
		if !row.Equal(loaded[i]) {
			t.Errorf("row %d: %v != %v", i, loaded[i], row)
		}
	}
	// NULL vs empty string must be preserved distinctly.
	if !loaded[2][1].IsNull() {
		t.Error("NULL text lost")
	}
	if loaded[3][1].IsNull() || loaded[3][1].Text() != "" {
		t.Error("empty string turned into NULL")
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"bad header", "id\n1\n"},
		{"bad type", "id:BLOB\n1\n"},
		{"bad int", "id:INTEGER\nxyz\n"},
		{"bad bool", "id:BOOLEAN\nmaybe\n"},
		{"arity", "id:INTEGER,x:TEXT\n1\n"},
	}
	for _, c := range cases {
		d := db.New()
		if _, err := Load(d, "t", strings.NewReader(c.csv)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Duplicate table.
	d := db.New()
	if _, err := Load(d, "t", strings.NewReader("id:INTEGER\n1\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(d, "t", strings.NewReader("id:INTEGER\n1\n")); err == nil {
		t.Error("duplicate table name should fail")
	}
}

// TestWorkloadRoundTrip dumps a generated workload and reloads it into a
// fresh database; queries must agree.
func TestWorkloadRoundTrip(t *testing.T) {
	src := db.New()
	if err := hierarchy.Load(src, hierarchy.Config{Products: 100, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	dst := db.New()
	for _, name := range src.TableNames() {
		tab, _ := src.Table(name)
		var buf bytes.Buffer
		if err := Dump(tab, &buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dst, name, &buf); err != nil {
			t.Fatal(err)
		}
	}
	q := "SELECT COUNT(*) FROM products AS p, electronics AS e WHERE p.id = e.pid AND p.price < 500"
	a, err := src.QuerySQL(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.QuerySQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if !a.First().Rows[0].Equal(b.First().Rows[0]) {
		t.Errorf("reloaded data disagrees: %v vs %v", a.First().Rows[0], b.First().Rows[0])
	}
}
