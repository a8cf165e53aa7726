package db

import (
	"strings"
	"testing"
)

func explainLines(t *testing.T, d *Database, sql string) []string {
	t.Helper()
	res, err := d.Exec(sql)
	if err != nil {
		t.Fatalf("explain %q: %v", sql, err)
	}
	set := res.First()
	if set == nil || set.Name != "plan" {
		t.Fatalf("explain result = %+v", res)
	}
	var lines []string
	for _, r := range set.Rows {
		lines = append(lines, r[0].Text())
	}
	return lines
}

func TestExplainSingleTable(t *testing.T) {
	d := paperExample(t)
	lines := explainLines(t, d, "EXPLAIN "+listing1)
	text := strings.Join(lines, "\n")
	for _, want := range []string{
		"single-table plan",
		"scan customers AS c  filter: c.state = 'NY'",
		"hash join",
		"project [c.name, p.name, p.category]",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain output missing %q:\n%s", want, text)
		}
	}
}

func TestExplainResultDB(t *testing.T) {
	d := paperExample(t)
	lines := explainLines(t, d, "EXPLAIN SELECT RESULTDB"+listing1[len("\nSELECT"):])
	text := strings.Join(lines, "\n")
	for _, want := range []string{
		"RESULTDB plan",
		"native semi-join reduction",
		"root:",
		"semi-join",
		"return c",
		"return p",
		"stats:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain output missing %q:\n%s", want, text)
		}
	}
}

// TestExplainResultDBCyclic: a triangle over three distinct attribute
// classes (state, a's id, b's id) is α-cyclic, so the reduction folds it.
func TestExplainResultDBCyclic(t *testing.T) {
	d := paperExample(t)
	lines := explainLines(t, d, `EXPLAIN SELECT RESULTDB a.name, b.name
		FROM customers AS a, customers AS b, orders AS o
		WHERE a.state = b.state AND a.id = o.cid AND b.id = o.pid`)
	text := strings.Join(lines, "\n")
	if !strings.Contains(text, "cyclic") || !strings.Contains(text, "fold ") {
		t.Errorf("cyclic explain missing fold trace:\n%s", text)
	}
}

// TestExplainResultDBAlphaAcyclic: the customers/orders self-join is
// JG-cyclic but α-acyclic (a.id, b.id, oa.cid and ob.cid are one class), so
// it reduces over a join tree without folding. That the tree reduces to the
// rows the fold gives is core's TestAlphaReduceSkipsFolding.
func TestExplainResultDBAlphaAcyclic(t *testing.T) {
	d := paperExample(t)
	text := strings.Join(explainLines(t, d, `EXPLAIN SELECT RESULTDB a.name, b.name
		FROM customers AS a, customers AS b, orders AS oa, orders AS ob
		WHERE a.id = oa.cid AND b.id = ob.cid AND oa.pid = ob.pid AND a.id = b.id`), "\n")
	if !strings.Contains(text, "cyclic") || !strings.Contains(text, "folds=0") {
		t.Errorf("α-acyclic explain should reduce without folds:\n%s", text)
	}
}

func TestExplainDecomposeFallback(t *testing.T) {
	d := paperExample(t)
	lines := explainLines(t, d, `EXPLAIN SELECT RESULTDB c.name, p.name
		FROM customers AS c, orders AS o, products AS p
		WHERE c.id = o.cid AND p.id = o.pid AND c.id + p.id > 2`)
	text := strings.Join(lines, "\n")
	if !strings.Contains(text, "Decompose strategy") {
		t.Errorf("residual explain should use Decompose:\n%s", text)
	}
}

func TestExplainNonSPJ(t *testing.T) {
	d := paperExample(t)
	lines := explainLines(t, d, "EXPLAIN SELECT COUNT(*) FROM orders AS o")
	if !strings.Contains(strings.Join(lines, "\n"), "sequential pipeline") {
		t.Errorf("aggregate explain = %v", lines)
	}
}

func TestExplainRoundTripsThroughRenderer(t *testing.T) {
	d := paperExample(t)
	sql := "EXPLAIN SELECT c.name FROM customers AS c WHERE c.state = 'NY'"
	// The renderer must reproduce parseable EXPLAIN statements.
	res1 := explainLines(t, d, sql)
	res2 := explainLines(t, d, sql)
	if strings.Join(res1, "|") != strings.Join(res2, "|") {
		t.Error("EXPLAIN not deterministic")
	}
}
