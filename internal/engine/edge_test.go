package engine

import (
	"strings"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/sqlparse"
	"resultdb/internal/trace"
	"resultdb/internal/types"
)

func TestOuterJoinNonEquiOn(t *testing.T) {
	src := memSource{
		"l": mkTable(t, "l", []catalog.Column{intCol("id"), intCol("x")}, nil,
			ir(1, 10), ir(2, 20)),
		"r": mkTable(t, "r", []catalog.Column{intCol("id"), intCol("y")}, nil,
			ir(1, 15), ir(2, 5)),
	}
	// Non-equi ON: nested loop path with outer padding.
	rel := runSelect(t, src, `
		SELECT l.id, r.id FROM l AS l
		LEFT OUTER JOIN r AS r ON l.x < r.y`)
	expectRows(t, rel, "1 | 1", "2 | NULL")
}

func TestOuterJoinMixedOnEquiAndResidual(t *testing.T) {
	src := memSource{
		"l": mkTable(t, "l", []catalog.Column{intCol("id"), intCol("k")}, nil,
			ir(1, 1), ir(2, 2)),
		"r": mkTable(t, "r", []catalog.Column{intCol("id"), intCol("k"), intCol("v")}, nil,
			ir(1, 1, 100), ir(2, 1, 5), ir(3, 2, 1)),
	}
	// Hash on k, residual v > 10 evaluated per candidate; l(2) unmatched.
	rel := runSelect(t, src, `
		SELECT l.id, r.id FROM l AS l
		LEFT OUTER JOIN r AS r ON l.k = r.k AND r.v > 10`)
	expectRows(t, rel, "1 | 1", "2 | NULL")
}

func TestAggregatesOverEmptyInput(t *testing.T) {
	src := memSource{
		"t": mkTable(t, "t", []catalog.Column{intCol("id"), intCol("x")}, nil),
	}
	rel := runSelect(t, src, `SELECT COUNT(*), COUNT(t.x), SUM(t.x), MIN(t.x), MAX(t.x), AVG(t.x) FROM t AS t`)
	r := rel.Vec.Rows()[0]
	if r[0].Int() != 0 || r[1].Int() != 0 {
		t.Errorf("counts = %v", r)
	}
	for i := 2; i <= 5; i++ {
		if !r[i].IsNull() {
			t.Errorf("aggregate %d over empty input = %v, want NULL", i, r[i])
		}
	}
}

func TestAggregatesIgnoreNulls(t *testing.T) {
	src := memSource{
		"t": mkTable(t, "t", []catalog.Column{intCol("id"), intCol("x")}, nil,
			ir(1, 10), ir(2, nil), ir(3, 20)),
	}
	rel := runSelect(t, src, `SELECT COUNT(*), COUNT(t.x), SUM(t.x), AVG(t.x) FROM t AS t`)
	r := rel.Vec.Rows()[0]
	if r[0].Int() != 3 || r[1].Int() != 2 || r[2].Int() != 30 || r[3].Float() != 15 {
		t.Errorf("aggregates = %v", r)
	}
}

func TestMinMaxOverText(t *testing.T) {
	src := memSource{
		"t": mkTable(t, "t", []catalog.Column{intCol("id"), textCol("s")}, nil,
			ir(1, "pear"), ir(2, "apple"), ir(3, "zebra")),
	}
	rel := runSelect(t, src, `SELECT MIN(t.s), MAX(t.s) FROM t AS t`)
	r := rel.Vec.Rows()[0]
	if r[0].Text() != "apple" || r[1].Text() != "zebra" {
		t.Errorf("min/max = %v", r)
	}
}

func TestExprTypeErrors(t *testing.T) {
	src := memSource{
		"t": mkTable(t, "t", []catalog.Column{intCol("id"), textCol("s")}, nil, ir(1, "x")),
	}
	bad := []string{
		"SELECT t.id FROM t AS t WHERE NOT t.id",      // NOT on non-boolean
		"SELECT t.id FROM t AS t WHERE t.id LIKE 'x'", // LIKE on int
		"SELECT -t.s FROM t AS t",                     // unary minus on text
		"SELECT t.id + t.s FROM t AS t",               // arithmetic on text
		// AND/OR over non-boolean operands: a typed error, not a panic. (A
		// top-level AND in WHERE is split into conjuncts, each merely not TRUE.)
		"SELECT t.id FROM t AS t WHERE NOT (t.id AND t.id)",
		"SELECT t.id FROM t AS t WHERE t.id OR t.id",
		"SELECT t.id FROM t AS t GROUP BY t.id HAVING t.id AND t.id",
		"SELECT t.id FROM t AS t GROUP BY t.id HAVING t.id OR t.id",
	}
	for _, sql := range bad {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s should parse: %v", sql, err)
		}
		ex := &Executor{Src: src}
		if _, err := ex.Select(sel); err == nil {
			t.Errorf("%s should fail at evaluation", sql)
		}
	}
	sel, _ := sqlparse.ParseSelect("SELECT t.id FROM t AS t WHERE t.id OR t.id")
	if _, err := (&Executor{Src: src}).Select(sel); err == nil || !strings.Contains(err.Error(), "engine: OR on non-boolean INTEGER") {
		t.Errorf("OR over integers: error %v, want the typed one NOT gives", err)
	}
}

func TestBetweenAndInListSemantics(t *testing.T) {
	src := memSource{
		"t": mkTable(t, "t", []catalog.Column{intCol("id"), intCol("x")}, nil,
			ir(1, 5), ir(2, 10), ir(3, 15), ir(4, nil)),
	}
	rel := runSelect(t, src, "SELECT t.id FROM t AS t WHERE t.x BETWEEN 5 AND 10")
	expectRows(t, rel, "1", "2")
	rel = runSelect(t, src, "SELECT t.id FROM t AS t WHERE t.x NOT BETWEEN 5 AND 10")
	expectRows(t, rel, "3") // NULL row is unknown, not true
	rel = runSelect(t, src, "SELECT t.id FROM t AS t WHERE t.x IN (5, 15)")
	expectRows(t, rel, "1", "3")
}

func TestExplainSPJOutput(t *testing.T) {
	src := shopSource(t)
	sel, _ := sqlparse.ParseSelect(`
		SELECT c.name, p.name FROM customers AS c, orders AS o, products AS p
		WHERE c.id = o.cid AND p.id = o.pid AND c.state = 'NY' AND c.id + p.id >= 0`)
	tr := trace.New(sel.SQL())
	ex := &Executor{Src: src, Tracer: tr}
	if _, err := ex.Select(sel); err != nil {
		t.Fatal(err)
	}
	lines := tr.Finish().CompactLines()
	text := strings.Join(lines, "\n")
	for _, want := range []string{
		"scan customers AS c",
		"rows: 3 -> 2", // NY filter
		"hash join",
		"residual filter",
		"project",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
}

func TestSubqueryWithNullsThreeValued(t *testing.T) {
	src := memSource{
		"t": mkTable(t, "t", []catalog.Column{intCol("id")}, nil, ir(1), ir(2)),
		"s": mkTable(t, "s", []catalog.Column{intCol("v")}, nil, ir(1), ir(-1)),
	}
	// Subquery list contains no NULL: NOT IN behaves normally.
	rel := runSelect(t, src, "SELECT t.id FROM t AS t WHERE t.id NOT IN (SELECT s.v FROM s AS s)")
	expectRows(t, rel, "2")
	// Add a NULL to the subquery: NOT IN becomes never-true.
	if err := src["s"].Insert(types.Row{types.Null()}); err != nil {
		t.Fatal(err)
	}
	rel = runSelect(t, src, "SELECT t.id FROM t AS t WHERE t.id NOT IN (SELECT s.v FROM s AS s)")
	expectRows(t, rel)
	// IN still finds actual matches.
	rel = runSelect(t, src, "SELECT t.id FROM t AS t WHERE t.id IN (SELECT s.v FROM s AS s)")
	expectRows(t, rel, "1")
}

// TestInSubqueryProbeAllocatesNothing: the bound IN (SELECT ...) probes the
// subquery's key set with the evaluated scalar itself — no per-row key, row
// or slice — and an INTEGER probe finds a DOUBLE member (3 ≡ 3.0).
func TestInSubqueryProbeAllocatesNothing(t *testing.T) {
	floatCol := catalog.Column{Name: "v", Type: types.KindFloat}
	src := memSource{"s": mkTable(t, "s", []catalog.Column{floatCol}, nil, ir(3.0), ir(4.5), ir(nil))}
	ex := &Executor{Src: src, Parallelism: 1}
	b := ex.binder([]ColRef{{Rel: "t", Name: "id", Kind: types.KindInt}})
	in, err := b.bind(parseConjuncts(t, "t", []string{"t.id IN (SELECT s.v FROM s AS s)"})[0])
	if err != nil {
		t.Fatal(err)
	}
	rows := []types.Row{ir(3), ir(4), ir(nil)}
	want := []types.Value{types.NewBool(true), types.Null(), types.Null()} // no match beside a NULL member is UNKNOWN
	for i, row := range rows {
		if got, err := in(row); err != nil || got != want[i] {
			t.Errorf("%v IN (3.0, 4.5, NULL) = %v, %v; want %v", row, got, err, want[i])
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		for _, row := range rows {
			in(row)
		}
	}); a != 0 {
		t.Errorf("probing an IN subquery allocates %v objects per %d rows, want 0", a, len(rows))
	}
}

func TestSelectItemBareStarWithJoin(t *testing.T) {
	src := shopSource(t)
	rel := runSelect(t, src, `SELECT * FROM customers AS c, orders AS o WHERE c.id = o.cid AND c.id = 0`)
	if len(rel.Cols) != 6 { // 3 customer cols + 3 order cols
		t.Errorf("star columns = %d", len(rel.Cols))
	}
	if rel.Len() != 2 {
		t.Errorf("rows = %d", rel.Len())
	}
}

func TestLimitZeroAndBeyond(t *testing.T) {
	src := shopSource(t)
	rel := runSelect(t, src, "SELECT c.id FROM customers AS c LIMIT 0")
	if rel.Len() != 0 {
		t.Errorf("LIMIT 0 rows = %d", rel.Len())
	}
	rel = runSelect(t, src, "SELECT c.id FROM customers AS c LIMIT 99")
	if rel.Len() != 3 {
		t.Errorf("LIMIT 99 rows = %d", rel.Len())
	}
}
