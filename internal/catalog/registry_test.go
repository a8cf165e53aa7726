package catalog_test

import (
	"strings"
	"testing"

	"resultdb/internal/db"
)

// The registry of a database's table definitions is its published table map,
// so these tests drive it through DDL.

// TestCatalogLifecycle: names resolve case-insensitively, a second CREATE or
// DROP of one name fails, a dropped name is gone, and each DROP refuses the
// other kind of relation.
func TestCatalogLifecycle(t *testing.T) {
	d := db.New()
	if _, err := d.ExecScript(`
		CREATE TABLE t (id INTEGER);
		CREATE MATERIALIZED VIEW mv AS SELECT t.id FROM t AS t;
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("CREATE TABLE T (id INTEGER)"); err == nil {
		t.Error("CREATE TABLE T after CREATE TABLE t should fail")
	}
	if tab, err := d.Table("T"); err != nil || tab.Def.Name != "t" {
		t.Errorf(`Table("T") = %v, %v`, tab, err)
	}
	if _, err := d.Table("nope"); err == nil {
		t.Error("a missing table resolves")
	}
	if _, err := d.Exec("DROP TABLE mv"); err == nil {
		t.Error("DROP TABLE on a view should fail")
	}
	if _, err := d.Exec("DROP MATERIALIZED VIEW t"); err == nil {
		t.Error("DROP MATERIALIZED VIEW on a table should fail")
	}
	if _, err := d.Exec("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("DROP TABLE t"); err == nil {
		t.Error("a second DROP TABLE t should fail")
	}
	if _, err := d.Table("t"); err == nil {
		t.Error("a dropped table still resolves")
	}
}

// TestCatalogNamesSorted: TableNames lists tables and views sorted, before
// and after a DROP.
func TestCatalogNamesSorted(t *testing.T) {
	d := db.New()
	if _, err := d.ExecScript(`
		CREATE TABLE zeta (id INTEGER);
		CREATE TABLE t (id INTEGER);
		CREATE TABLE mid (id INTEGER);
		CREATE MATERIALIZED VIEW mv AS SELECT t.id FROM t AS t;
	`); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(d.TableNames(), ","); got != "mid,mv,t,zeta" {
		t.Errorf("TableNames = %s", got)
	}
	if _, err := d.Exec("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(d.TableNames(), ","); got != "mid,mv,zeta" {
		t.Errorf("TableNames after DROP = %s", got)
	}
}
