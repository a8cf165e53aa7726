package db

import (
	"sort"
	"strings"
	"testing"

	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
)

// paperExample loads the running example of the paper (Figure 1): customers,
// order, products with the sample data whose gray rows form the subdatabase.
func paperExample(t *testing.T) *Database {
	t.Helper()
	d := New()
	if _, err := d.ExecScript(paperExampleSQL); err != nil {
		t.Fatalf("load paper example: %v", err)
	}
	return d
}

const paperExampleSQL = `
CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT, state TEXT);
CREATE TABLE orders (cid INTEGER, pid INTEGER);
CREATE TABLE products (id INTEGER PRIMARY KEY, name TEXT, category TEXT);
INSERT INTO customers VALUES (0, 'custA', 'NY'), (1, 'custB', 'CA'), (2, 'custC', 'NY');
INSERT INTO orders VALUES (0, 1), (1, 1), (1, 2), (2, 1), (0, 2), (1, 3);
INSERT INTO products VALUES (0, 'smartphone', 'electronics'), (1, 'laptop', 'electronics'),
                            (2, 'shirt', 'clothing'), (3, 'pants', 'clothing');
`

// Listing 1 of the paper, adapted to the sample data ("order" is a keyword
// in many dialects, so the table is named orders).
const listing1 = `
SELECT c.name, p.name, p.category
FROM customers AS c, orders AS o, products AS p
WHERE c.state = 'NY' AND c.id = o.cid AND p.id = o.pid`

func mustSelect(t *testing.T, sql string) *sqlparse.Select {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return sel
}

func rowsToStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func TestSingleTablePaperExample(t *testing.T) {
	d := paperExample(t)
	res, err := d.QuerySQL(listing1)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Sets) != 1 {
		t.Fatalf("expected 1 result set, got %d", len(res.Sets))
	}
	got := rowsToStrings(res.First().Rows)
	// Figure 2 of the paper: NY customers custA and custC with their products.
	want := []string{
		"custA | laptop | electronics",
		"custA | shirt | clothing",
		"custC | laptop | electronics",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("single-table result mismatch:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestResultDBPaperExample(t *testing.T) {
	for _, strategy := range []Strategy{StrategySemiJoin, StrategyDecompose} {
		d := paperExample(t)
		d.Strategy = strategy
		res, err := d.QuerySQL(strings.Replace(listing1, "SELECT", "SELECT RESULTDB", 1))
		if err != nil {
			t.Fatalf("strategy %d: %v", strategy, err)
		}
		if len(res.Sets) != 2 {
			t.Fatalf("strategy %d: expected 2 result sets (customers, products), got %d", strategy, len(res.Sets))
		}
		c := res.Set("c")
		p := res.Set("p")
		if c == nil || p == nil {
			t.Fatalf("strategy %d: missing result sets, have %v", strategy, res.Sets)
		}
		gotC := rowsToStrings(c.Rows)
		wantC := []string{"custA", "custC"}
		if strings.Join(gotC, ",") != strings.Join(wantC, ",") {
			t.Errorf("strategy %d: customers = %v, want %v", strategy, gotC, wantC)
		}
		gotP := rowsToStrings(p.Rows)
		wantP := []string{"laptop | electronics", "shirt | clothing"}
		if strings.Join(gotP, ",") != strings.Join(wantP, ",") {
			t.Errorf("strategy %d: products = %v, want %v", strategy, gotP, wantP)
		}
	}
}

func TestResultDBRelationshipPreservingAndPostJoin(t *testing.T) {
	d := paperExample(t)
	sel := mustSelect(t, listing1)
	res, err := d.QueryResultDB(sel, ModeRDBRP)
	if err != nil {
		t.Fatalf("rdbrp: %v", err)
	}
	// RDBRP must include the join keys: c gains id, p gains id, and the
	// connecting relation o appears because its join attributes are needed.
	c := res.Set("c")
	if c == nil {
		t.Fatal("missing c result set")
	}
	if got := strings.Join(c.Columns, ","); got != "name,id" {
		t.Errorf("c columns = %s, want name,id", got)
	}

	// Reconstruction (Definition 2.3): post-joining the RDBRP subdatabase
	// yields the original single-table result.
	// The o relation is not projected, so the post-join cannot recreate the
	// c-o-p connection without it; the paper's definition keeps any
	// relation whose join attributes are required (A_i* non-empty).
	single, err := d.QuerySQL(listing1)
	if err != nil {
		t.Fatalf("single: %v", err)
	}
	post, err := d.PostJoin(sel, res)
	if err != nil {
		t.Fatalf("postjoin: %v", err)
	}
	got := rowsToStrings(post.Rows)
	want := rowsToStrings(single.First().Rows)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("post-join mismatch:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
