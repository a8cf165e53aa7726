package rewrite

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
)

func paperExample(t *testing.T) *db.Database {
	t.Helper()
	d := db.New()
	script := `
CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT, state TEXT);
CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, pid INTEGER);
CREATE TABLE products (id INTEGER PRIMARY KEY, name TEXT, category TEXT);
INSERT INTO customers VALUES (0, 'custA', 'NY'), (1, 'custB', 'CA'), (2, 'custC', 'NY');
INSERT INTO orders VALUES (0, 0, 1), (1, 1, 1), (2, 1, 2), (3, 2, 1), (4, 0, 2), (5, 1, 3);
INSERT INTO products VALUES (0, 'smartphone', 'electronics'), (1, 'laptop', 'electronics'),
                            (2, 'shirt', 'clothing'), (3, 'pants', 'clothing');
`
	if _, err := d.ExecScript(script); err != nil {
		t.Fatalf("load: %v", err)
	}
	return d
}

const listing1 = `
SELECT c.name, p.name, p.category
FROM customers AS c, orders AS o, products AS p
WHERE c.state = 'NY' AND c.id = o.cid AND p.id = o.pid`

func sortedRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// subdatabaseFingerprint renders a result as "alias: rows..." lines, sorted,
// for cross-method comparison.
func subdatabaseFingerprint(res *db.Result) string {
	var parts []string
	for _, set := range res.Sets {
		parts = append(parts, fmt.Sprintf("%s: %s", strings.ToLower(set.Name),
			strings.Join(sortedRows(set.Rows), " ; ")))
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

// TestAllMethodsAgreeWithNative checks that every rewrite method computes the
// same subdatabase as the native RESULTDB-SEMIJOIN algorithm, in both modes.
func TestAllMethodsAgreeWithNative(t *testing.T) {
	d := paperExample(t)
	sel, err := sqlparse.ParseSelect(listing1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeRDB, ModeRDBRP} {
		dbMode := db.ModeRDB
		if mode == ModeRDBRP {
			dbMode = db.ModeRDBRP
		}
		native, err := d.QueryResultDB(sel, dbMode)
		if err != nil {
			t.Fatalf("native mode %d: %v", mode, err)
		}
		want := subdatabaseFingerprint(native)
		for _, m := range Methods {
			res, err := RunMethod(d, d, sel, m, mode)
			if err != nil {
				t.Fatalf("%v mode %d: %v", m, mode, err)
			}
			if got := subdatabaseFingerprint(res); got != want {
				t.Errorf("%v mode %d mismatch:\ngot:\n%s\nwant:\n%s", m, mode, got, want)
			}
		}
	}
}

// TestRM3SingleOutputShape checks the Listing 5 shape: with one output
// relation the rewrite pushes the rest of the query into an IN subquery.
func TestRM3SingleOutputShape(t *testing.T) {
	d := paperExample(t)
	sel, err := sqlparse.ParseSelect(`
SELECT DISTINCT c.name FROM customers AS c, orders AS o
WHERE c.state = 'NY' AND c.id = o.cid`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Rewrite(sel, d, RM3, ModeRDB)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Queries) != 1 {
		t.Fatalf("expected 1 output query, got %d", len(p.Queries))
	}
	sql := p.Queries[0].SQL
	if !strings.Contains(sql, "IN (SELECT o.cid FROM orders AS o") {
		t.Errorf("RM3 did not produce the Listing 5 subquery shape: %s", sql)
	}
	res, err := Run(d, p)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedRows(res.Sets[0].Rows)
	want := []string{"custA", "custC"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("RM3 rows = %v, want %v", got, want)
	}
}

// TestRM2MaterializedViewCleanup verifies the view is dropped after Run.
func TestRM2MaterializedViewCleanup(t *testing.T) {
	d := paperExample(t)
	sel, err := sqlparse.ParseSelect(listing1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Rewrite(sel, d, RM2, ModeRDB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, p); err != nil {
		t.Fatal(err)
	}
	for _, name := range d.TableNames() {
		if strings.HasPrefix(name, "resultdb_rm2_mv") {
			t.Errorf("materialized view %q leaked", name)
		}
	}
}

func TestRecommend(t *testing.T) {
	d := paperExample(t)
	multi, _ := sqlparse.ParseSelect(listing1)
	if m, err := Recommend(multi, d); err != nil || m != RM4 {
		t.Errorf("Recommend(multi-output) = %v, %v; want RM4", m, err)
	}
	single, _ := sqlparse.ParseSelect(
		`SELECT c.name FROM customers AS c, orders AS o WHERE c.id = o.cid`)
	if m, err := Recommend(single, d); err != nil || m != RM3 {
		t.Errorf("Recommend(single-output) = %v, %v; want RM3", m, err)
	}
}
