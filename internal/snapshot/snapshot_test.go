package snapshot

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/workload/hierarchy"
)

func TestRoundTripSchemaAndData(t *testing.T) {
	src := db.New()
	if _, err := src.ExecScript(`
		CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL, f DOUBLE, b BOOLEAN,
			FOREIGN KEY (id) REFERENCES u (uid));
		CREATE TABLE u (uid INTEGER PRIMARY KEY);
		INSERT INTO u VALUES (1), (2);
		INSERT INTO t VALUES (1, 'x', 1.5, TRUE), (2, 'y', NULL, FALSE);
		CREATE MATERIALIZED VIEW mv AS SELECT t.name FROM t AS t;
	`); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Save(src, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Catalog round trip.
	if strings.Join(got.TableNames(), ",") != strings.Join(src.TableNames(), ",") {
		t.Errorf("tables = %v", got.TableNames())
	}
	tab, err := got.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	def := tab.Def
	if len(def.PrimaryKey) != 1 || def.PrimaryKey[0] != "id" {
		t.Errorf("pk = %v", def.PrimaryKey)
	}
	if len(def.ForeignKeys) != 1 || def.ForeignKeys[0].RefTable != "u" {
		t.Errorf("fk = %+v", def.ForeignKeys)
	}
	if !def.Columns[1].NotNull {
		t.Error("NOT NULL lost")
	}
	mv, _ := got.Table("mv")
	if !mv.Def.IsView {
		t.Error("IsView flag lost")
	}

	// Data round trip including NULLs; the restored db answers queries.
	res, err := got.QuerySQL("SELECT t.name FROM t AS t WHERE t.f IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if res.First().NumRows() != 1 || res.First().Rows[0][0].Text() != "y" {
		t.Errorf("restored query = %+v", res.First().Rows)
	}
	// Dropping the view in the restored db requires the view statement.
	if _, err := got.Exec("DROP MATERIALIZED VIEW mv"); err != nil {
		t.Errorf("restored view not droppable as view: %v", err)
	}
}

func TestRoundTripWorkload(t *testing.T) {
	src := db.New()
	if err := hierarchy.Load(src, hierarchy.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(src, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// RESULTDB queries agree between original and restored databases.
	q := hierarchy.ResultDBElectronics
	a, err := src.QuerySQL(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.QuerySQL(q)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := fingerprint(a), fingerprint(b)
	if fa != fb {
		t.Error("restored database answers differently")
	}
}

func fingerprint(res *db.Result) string {
	var rows []string
	for _, set := range res.Sets {
		for _, r := range set.Rows {
			rows = append(rows, set.Name+":"+r.String())
		}
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, buf := range [][]byte{nil, {1, 2, 3}, []byte("not a snapshot")} {
		if _, err := Load(bytes.NewReader(buf)); err == nil {
			t.Error("garbage loaded successfully")
		}
	}
	// Truncation.
	src := db.New()
	if _, err := src.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(src, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()-1])); err == nil {
		t.Error("truncated snapshot loaded successfully")
	}
	if _, err := Load(bytes.NewReader(append(buf.Bytes(), 0))); err == nil {
		t.Error("trailing bytes accepted")
	}
}
