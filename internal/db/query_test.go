package db

import (
	"slices"
	"strings"
	"testing"

	"resultdb/internal/colstore"
	"resultdb/internal/engine"
	"resultdb/internal/reference"
	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
)

func TestDDLAndInsertErrors(t *testing.T) {
	d := New()
	if _, err := d.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("CREATE TABLE t (id INTEGER)"); err == nil {
		t.Error("duplicate CREATE TABLE should fail")
	}
	if _, err := d.Exec("INSERT INTO missing VALUES (1)"); err == nil {
		t.Error("INSERT into missing table should fail")
	}
	if _, err := d.Exec("INSERT INTO t VALUES (1)"); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := d.Exec("INSERT INTO t (id, nope) VALUES (1, 'x')"); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := d.Exec("INSERT INTO t (name, id) VALUES ('x', 1)"); err != nil {
		t.Errorf("reordered column list: %v", err)
	}
	res, err := d.Exec("INSERT INTO t VALUES (2, 'b'), (3, 'c')")
	if err != nil || res.Affected != 2 {
		t.Errorf("multi-row insert = %+v, %v", res, err)
	}
	// NULL into PRIMARY KEY (NOT NULL) column.
	if _, err := d.Exec("INSERT INTO t VALUES (NULL, 'x')"); err == nil {
		t.Error("NULL PK should fail")
	}
	// Negative literals in INSERT.
	if _, err := d.Exec("INSERT INTO t VALUES (-5, 'neg')"); err != nil {
		t.Errorf("negative literal: %v", err)
	}
	// Column refs in VALUES are rejected.
	if _, err := d.Exec("INSERT INTO t VALUES (id, 'x')"); err == nil {
		t.Error("column ref in VALUES should fail")
	}
}

func TestDropSemantics(t *testing.T) {
	d := New()
	if _, err := d.ExecScript(`
		CREATE TABLE t (id INTEGER PRIMARY KEY);
		CREATE MATERIALIZED VIEW mv AS SELECT t.id FROM t AS t;
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("DROP MATERIALIZED VIEW t"); err == nil {
		t.Error("dropping a table as a view should fail")
	}
	if _, err := d.Exec("DROP TABLE mv"); err == nil {
		t.Error("dropping a view as a table should fail")
	}
	if _, err := d.Exec("DROP MATERIALIZED VIEW mv"); err != nil {
		t.Error(err)
	}
	if _, err := d.Exec("DROP TABLE IF EXISTS nothere"); err != nil {
		t.Error("IF EXISTS should swallow missing table")
	}
	if _, err := d.Exec("DROP TABLE nothere"); err == nil {
		t.Error("missing table should fail without IF EXISTS")
	}
	if _, err := d.Exec("DROP TABLE t"); err != nil {
		t.Error(err)
	}
}

func TestMaterializedViewContents(t *testing.T) {
	d := paperExample(t)
	res, err := d.Exec(`CREATE MATERIALIZED VIEW mv AS
		SELECT c.name AS cname, p.name AS pname FROM customers AS c, orders AS o, products AS p
		WHERE c.id = o.cid AND p.id = o.pid AND c.state = 'NY'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 3 {
		t.Errorf("mv rows = %d, want 3", res.Affected)
	}
	// The MV is queryable like a table.
	out, err := d.QuerySQL("SELECT DISTINCT mv.cname FROM mv AS mv")
	if err != nil {
		t.Fatal(err)
	}
	got := rowsToStrings(out.First().Rows)
	if strings.Join(got, ",") != "custA,custC" {
		t.Errorf("mv query = %v", got)
	}
	// The MV is a snapshot: later inserts don't change it.
	if _, err := d.Exec("INSERT INTO orders VALUES (2, 3)"); err != nil {
		t.Fatal(err)
	}
	out2, _ := d.QuerySQL("SELECT COUNT(*) FROM mv AS mv")
	if out2.First().Rows[0][0].Int() != 3 {
		t.Error("materialized view is not a snapshot")
	}
}

func TestResultDBMaterializedView(t *testing.T) {
	d := paperExample(t)
	res, err := d.Exec("CREATE MATERIALIZED VIEW sub AS SELECT RESULTDB c.name, p.name FROM customers AS c, orders AS o, products AS p WHERE c.id = o.cid AND p.id = o.pid AND c.state = 'NY'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) < 2 {
		t.Fatalf("expected per-relation views, got %d sets", len(res.Sets))
	}
	// Views named sub_<alias> exist and hold the reduced relations.
	names := d.TableNames()
	joined := strings.Join(names, ",")
	for _, want := range []string{"sub_c", "sub_o", "sub_p"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing view %s in %s", want, joined)
		}
	}
	out, err := d.QuerySQL("SELECT COUNT(*) FROM sub_c AS v")
	if err != nil {
		t.Fatal(err)
	}
	if out.First().Rows[0][0].Int() != 2 {
		t.Errorf("sub_c rows = %v, want 2 (custA, custC)", out.First().Rows[0][0])
	}
}

func TestResultDBSingleRelation(t *testing.T) {
	d := paperExample(t)
	res, err := d.QuerySQL("SELECT RESULTDB c.name FROM customers AS c WHERE c.state = 'NY'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 1 || res.Sets[0].Name != "c" {
		t.Fatalf("sets = %+v", res.Sets)
	}
	got := rowsToStrings(res.Sets[0].Rows)
	if strings.Join(got, ",") != "custA,custC" {
		t.Errorf("rows = %v", got)
	}
}

func TestResultDBDeduplicates(t *testing.T) {
	// Projection to a non-key column must dedup (set semantics of
	// Definition 2.2).
	d := paperExample(t)
	res, err := d.QuerySQL("SELECT RESULTDB p.category FROM products AS p, orders AS o WHERE p.id = o.pid")
	if err != nil {
		t.Fatal(err)
	}
	got := rowsToStrings(res.Sets[0].Rows)
	if strings.Join(got, ",") != "clothing,electronics" {
		t.Errorf("rows = %v", got)
	}
}

func TestResultDBCrossProductFallsBackToDecompose(t *testing.T) {
	d := paperExample(t)
	d.Strategy = StrategySemiJoin
	res, err := d.QuerySQL("SELECT RESULTDB c.name, p.name FROM customers AS c, products AS p WHERE c.state = 'CA' AND p.category = 'clothing'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != nil {
		t.Error("semi-join stats on a decompose fallback")
	}
	if len(res.Sets) != 2 {
		t.Fatalf("sets = %d", len(res.Sets))
	}
	if got := rowsToStrings(res.Set("c").Rows); strings.Join(got, ",") != "custB" {
		t.Errorf("c = %v", got)
	}
}

func TestResultDBResidualPredicateFallsBack(t *testing.T) {
	d := paperExample(t)
	res, err := d.QuerySQL(`SELECT RESULTDB c.name, p.name FROM customers AS c, orders AS o, products AS p
		WHERE c.id = o.cid AND p.id = o.pid AND c.id + p.id > 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != nil {
		t.Error("residual queries must use the decompose path")
	}
	// Oracle: decompose of the single-table result.
	single, err := d.QuerySQL(`SELECT c.name, p.name FROM customers AS c, orders AS o, products AS p
		WHERE c.id = o.cid AND p.id = o.pid AND c.id + p.id > 2`)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range single.First().Rows {
		names[r[0].Text()] = true
	}
	if got := len(res.Set("c").Rows); got != len(names) {
		t.Errorf("c rows = %d, want %d", got, len(names))
	}
}

func TestResultDBRejectsOrderByAndAggregates(t *testing.T) {
	d := paperExample(t)
	if _, err := d.QuerySQL("SELECT RESULTDB c.name FROM customers AS c ORDER BY c.name"); err == nil {
		t.Error("RESULTDB with ORDER BY should fail")
	}
	if _, err := d.QuerySQL("SELECT RESULTDB COUNT(*) FROM customers AS c"); err == nil {
		t.Error("RESULTDB with aggregates should fail (not SPJ)")
	}
	if _, err := d.QuerySQL("SELECT RESULTDB e.storage FROM products AS p LEFT OUTER JOIN electronics AS e ON p.id = e.pid"); err == nil {
		t.Error("RESULTDB with outer join should fail (not SPJ)")
	}
}

func TestResultDBInSubqueryFilter(t *testing.T) {
	// IN-subqueries inside a single relation's filter are pushed down and
	// work with the semi-join path.
	d := paperExample(t)
	res, err := d.QuerySQL(`SELECT RESULTDB c.name FROM customers AS c, orders AS o
		WHERE c.id = o.cid AND c.id IN (SELECT o2.cid FROM orders AS o2 WHERE o2.pid = 3)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsToStrings(res.Sets[0].Rows); strings.Join(got, ",") != "custB" {
		t.Errorf("rows = %v", got)
	}
}

func TestMultiCursorAPI(t *testing.T) {
	d := paperExample(t)
	res, err := d.QuerySQL(strings.Replace(listing1, "SELECT", "SELECT RESULTDB", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.First() == nil || res.First().Name != "c" {
		t.Errorf("First = %+v", res.First())
	}
	if res.Set("P") == nil {
		t.Error("Set lookup should be case-insensitive")
	}
	if res.Set("zz") != nil {
		t.Error("Set of unknown name should be nil")
	}
	total := 0
	for _, s := range res.Sets {
		total += s.WireSize()
	}
	if res.WireSize() != total {
		t.Error("Result.WireSize must sum set sizes")
	}
}

func TestTransactionStatements(t *testing.T) {
	d := paperExample(t)
	results, err := d.ExecScript(`
		BEGIN TRANSACTION;
		SELECT DISTINCT c.name FROM customers AS c WHERE c.state = 'NY';
		COMMIT;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[1].First().NumRows() != 2 {
		t.Errorf("query inside tx = %+v", results[1].First())
	}
	// ROLLBACK parses and is accepted (no-op in the single-writer engine).
	if _, err := d.Exec("ROLLBACK"); err != nil {
		t.Error(err)
	}
}

func TestQueryUnknownTableAndColumn(t *testing.T) {
	d := paperExample(t)
	if _, err := d.QuerySQL("SELECT x.a FROM missing AS x"); err == nil {
		t.Error("missing table should fail")
	}
	if _, err := d.QuerySQL("SELECT c.nope FROM customers AS c"); err == nil {
		t.Error("missing column should fail")
	}
	if _, err := d.Exec("SELECT RESULTDB c.name FROM customers AS c WHERE c.id IN (SELECT RESULTDB o.cid FROM orders AS o)"); err == nil {
		t.Error("RESULTDB in subquery should fail")
	}
}

func TestStrategiesAgreeOnManyQueries(t *testing.T) {
	// Cross-strategy agreement on a workload with cycles, self-joins and
	// IN subqueries exercised through SQL.
	queries := []string{
		listing1,
		`SELECT c.name FROM customers AS c, orders AS o WHERE c.id = o.cid`,
		`SELECT p.name, c.name FROM customers AS c, orders AS o, products AS p
		 WHERE c.id = o.cid AND p.id = o.pid AND p.category = 'clothing'`,
		`SELECT a.name, b.name FROM customers AS a, customers AS b, orders AS oa, orders AS ob
		 WHERE a.id = oa.cid AND b.id = ob.cid AND oa.pid = ob.pid AND a.id < b.id`,
	}
	for qi, sql := range queries {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		var fingerprints []string
		for _, strat := range []Strategy{StrategySemiJoin, StrategyDecompose} {
			d := paperExample(t)
			d.Strategy = strat
			for _, mode := range []Mode{ModeRDB, ModeRDBRP} {
				res, err := d.QueryResultDB(sel, mode)
				if err != nil {
					t.Fatalf("query %d strategy %d mode %d: %v", qi, strat, mode, err)
				}
				var parts []string
				for _, set := range res.Sets {
					parts = append(parts, set.Name+":"+strings.Join(rowsToStrings(set.Rows), ";"))
				}
				fingerprints = append(fingerprints, strings.Join(parts, "|"))
			}
		}
		if fingerprints[0] != fingerprints[2] || fingerprints[1] != fingerprints[3] {
			t.Errorf("query %d: strategies disagree:\nsemi: %s\ndec:  %s",
				qi, fingerprints[0], fingerprints[2])
		}
	}
}

func TestValuesRoundTripThroughEngine(t *testing.T) {
	d := New()
	if _, err := d.ExecScript(`
		CREATE TABLE t (id INTEGER PRIMARY KEY, f DOUBLE, b BOOLEAN, s TEXT);
		INSERT INTO t VALUES (1, 2.5, TRUE, 'x'), (2, -0.5, FALSE, NULL);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := d.QuerySQL("SELECT t.f, t.b, t.s FROM t AS t ORDER BY t.f")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.First().Rows
	if rows[0][0].Float() != -0.5 || rows[0][1].Bool() || !rows[0][2].IsNull() {
		t.Errorf("row0 = %v", rows[0])
	}
	if rows[1][0].Float() != 2.5 || !rows[1][1].Bool() || rows[1][2].Text() != "x" {
		t.Errorf("row1 = %v", rows[1])
	}
}

// TestInSubqueryMatchesReferenceOnLiteralList pins [NOT] IN (SELECT ...) —
// the key-set probe and the NULL-member rule — against internal/reference.
// The reference binds no subqueries, so it evaluates the same predicate with
// the subquery's rows spelled as a literal list: no NULL member, a NULL
// member (NOT IN is never TRUE, IN still finds matches), a DOUBLE member an
// INTEGER probe equals, and an empty subquery.
func TestInSubqueryMatchesReferenceOnLiteralList(t *testing.T) {
	d := New()
	if _, err := d.ExecScript(`
CREATE TABLE t (id INT PRIMARY KEY, k INT);
CREATE TABLE s (id INT PRIMARY KEY, v FLOAT, tag TEXT);
INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, NULL);
INSERT INTO s VALUES (1, 1.0, 'plain'), (2, -1.0, 'plain'), (3, 3.0, 'plain'),
	(4, 2.0, 'nulls'), (5, NULL, 'nulls'), (6, 9.5, 'nulls');`); err != nil {
		t.Fatal(err)
	}
	for tag, list := range map[string]string{"plain": "1.0, -1.0, 3.0", "nulls": "2.0, NULL, 9.5", "empty": ""} {
		for _, not := range []string{"", "NOT "} {
			sub := "SELECT t.id FROM t AS t WHERE t.k " + not + "IN (SELECT s.v FROM s AS s WHERE s.tag = '" + tag + "')"
			got, err := d.QuerySQL(sub)
			if err != nil {
				t.Fatalf("%s: %v", sub, err)
			}
			if list == "" {
				// No literal spelling of an empty list: IN () is FALSE, NOT IN () TRUE.
				if want := map[string]int{"": 0, "NOT ": 3}[not]; len(got.First().Rows) != want {
					t.Errorf("%s: %d rows, want %d", sub, len(got.First().Rows), want)
				}
				continue
			}
			lit, err := sqlparse.ParseSelect("SELECT t.id FROM t AS t WHERE t.k " + not + "IN (" + list + ")")
			if err != nil {
				t.Fatal(err)
			}
			want, err := reference.SingleTable(d.Snapshot(), lit)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := rowsToStrings(got.First().Rows), rowsToStrings(want.Rows); strings.Join(g, ",") != strings.Join(w, ",") {
				t.Errorf("%s: rows %v, reference on the literal list %v", sub, g, w)
			}
		}
	}
}

// TestMaterializedViewIsTypedByItsDefinition: a view is filled like any table
// — through InsertAll, so what it stores is coerced to its declared types —
// and a column that reaches it as exact values (an aggregate's results) is
// typed over all of them, not by the first: INTEGER beside DOUBLE widens to
// DOUBLE, any other mix is an error naming the column.
func TestMaterializedViewIsTypedByItsDefinition(t *testing.T) {
	d := New()
	if _, err := d.ExecScript(`
CREATE TABLE sales (region TEXT, qty INTEGER, amount DOUBLE);
INSERT INTO sales VALUES ('east', 2, 1.5), ('east', 3, 2.5), ('west', 4, 8), ('north', NULL, NULL);
CREATE MATERIALIZED VIEW per_region AS
	SELECT s.region, SUM(s.qty) AS units, SUM(s.amount) AS total, COUNT(*) AS n FROM sales AS s GROUP BY s.region;`); err != nil {
		t.Fatal(err)
	}
	view, err := d.Table("per_region")
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []types.Kind{types.KindText, types.KindInt, types.KindFloat, types.KindInt}
	for i, c := range view.Def.Columns {
		if c.Type != wantTypes[i] {
			t.Errorf("per_region.%s is declared %s, want %s", c.Name, c.Type, wantTypes[i])
		}
		if kind := vectorKind(view.Columns().Col(i)); kind != c.Type {
			t.Errorf("per_region.%s is stored as %T, not a %s vector", c.Name, view.Columns().Col(i), c.Type)
		}
	}

	// The mixed SUM: one group's sum came out INTEGER, another's DOUBLE.
	mixed := func(second types.Value) *engine.Relation {
		return engine.FromRows(
			[]engine.ColRef{{Name: "g", Kind: types.KindText}, {Name: "s", Kind: types.KindInt}},
			[]types.Row{
				{types.NewText("a"), types.NewInt(3)},
				{types.NewText("b"), second},
				{types.NewText("c"), types.Null()},
			})
	}
	create := func(name string, rel *engine.Relation) (err error) {
		d.withWriter(func() {
			tx := d.newWriteTxn()
			if err = createView(tx, name, []string{"g", "s"}, rel.Vec); err == nil {
				tx.commit(0)
			}
		})
		return err
	}
	if err := create("widened", mixed(types.NewFloat(2.5))); err != nil {
		t.Fatal(err)
	}
	widened, err := d.Table("widened")
	if err != nil {
		t.Fatal(err)
	}
	if got := widened.Def.Columns[1].Type; got != types.KindFloat {
		t.Fatalf("INTEGER beside DOUBLE is declared %s, want DOUBLE", got)
	}
	col, ok := widened.Columns().Col(1).(*colstore.Float64Column)
	if !ok || !slices.Equal(col.Vals, []float64{3, 2.5, 0}) || !col.Null(2) {
		t.Fatalf("widened.s is stored as %#v, want the float vector [3 2.5 NULL]", widened.Columns().Col(1))
	}
	err = create("refused", mixed(types.NewText("many")))
	if err == nil || !strings.Contains(err.Error(), "refused column s") {
		t.Fatalf("INTEGER beside TEXT: err = %v, want an error naming the column", err)
	}
	if _, err := d.Table("refused"); err == nil {
		t.Fatal("a view whose creation failed exists")
	}
}
