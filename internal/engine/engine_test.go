package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/colstore"
	"resultdb/internal/parallel"
	"resultdb/internal/sqlparse"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// memSource is a trivial engine.Source over a map of tables.
type memSource map[string]*storage.Table

func (m memSource) Table(name string) (*storage.Table, error) {
	if t, ok := m[strings.ToLower(name)]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("no table %q", name)
}

func mkTable(t *testing.T, name string, cols []catalog.Column, pk []string, rows ...types.Row) *storage.Table {
	t.Helper()
	def := catalog.MustTableDef(name, cols)
	def.PrimaryKey = pk
	tab := storage.NewTable(def)
	if err := tab.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	return tab
}

func intCol(n string) catalog.Column  { return catalog.Column{Name: n, Type: types.KindInt} }
func textCol(n string) catalog.Column { return catalog.Column{Name: n, Type: types.KindText} }

func ir(vals ...any) types.Row {
	row := make(types.Row, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			row[i] = types.NewInt(int64(x))
		case string:
			row[i] = types.NewText(x)
		case float64:
			row[i] = types.NewFloat(x)
		case bool:
			row[i] = types.NewBool(x)
		case nil:
			row[i] = types.Null()
		default:
			panic("unsupported")
		}
	}
	return row
}

// shopSource is the paper's running example as an engine source.
func shopSource(t *testing.T) memSource {
	t.Helper()
	return memSource{
		"customers": mkTable(t, "customers",
			[]catalog.Column{intCol("id"), textCol("name"), textCol("state")}, []string{"id"},
			ir(0, "custA", "NY"), ir(1, "custB", "CA"), ir(2, "custC", "NY")),
		"orders": mkTable(t, "orders",
			[]catalog.Column{intCol("oid"), intCol("cid"), intCol("pid")}, []string{"oid"},
			ir(0, 0, 1), ir(1, 1, 1), ir(2, 1, 2), ir(3, 2, 1), ir(4, 0, 2), ir(5, 1, 3)),
		"products": mkTable(t, "products",
			[]catalog.Column{intCol("id"), textCol("name"), textCol("category")}, []string{"id"},
			ir(0, "smartphone", "electronics"), ir(1, "laptop", "electronics"),
			ir(2, "shirt", "clothing"), ir(3, "pants", "clothing")),
	}
}

func runSelect(t *testing.T, src Source, sql string) *Relation {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	ex := &Executor{Src: src}
	rel, err := ex.Select(sel)
	if err != nil {
		t.Fatalf("select %q: %v", sql, err)
	}
	return rel
}

func sortedStrings(rel *Relation) []string {
	out := make([]string, rel.Len())
	for i, r := range rel.Vec.Rows() {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func expectRows(t *testing.T, rel *Relation, want ...string) {
	t.Helper()
	got := sortedStrings(rel)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rows mismatch:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestSelectSingleTableFilter(t *testing.T) {
	rel := runSelect(t, shopSource(t), "SELECT c.name FROM customers AS c WHERE c.state = 'NY'")
	expectRows(t, rel, "custA", "custC")
}

func TestSelectJoinThreeWay(t *testing.T) {
	rel := runSelect(t, shopSource(t), `
		SELECT c.name, p.name FROM customers AS c, orders AS o, products AS p
		WHERE c.id = o.cid AND p.id = o.pid AND c.state = 'NY'`)
	expectRows(t, rel,
		"custA | laptop", "custA | shirt", "custC | laptop")
}

func TestSelectExplicitJoinSyntax(t *testing.T) {
	rel := runSelect(t, shopSource(t), `
		SELECT c.name, p.name
		FROM customers AS c
		JOIN orders AS o ON c.id = o.cid
		JOIN products AS p ON p.id = o.pid
		WHERE c.state = 'NY'`)
	expectRows(t, rel,
		"custA | laptop", "custA | shirt", "custC | laptop")
}

func TestSelectDistinctAndOrderLimit(t *testing.T) {
	rel := runSelect(t, shopSource(t), `
		SELECT DISTINCT p.category FROM products AS p ORDER BY p.category`)
	if rel.Len() != 2 || rel.Vec.Rows()[0].String() != "clothing" {
		t.Fatalf("rows = %v", rel.Vec.Rows())
	}
	rel2 := runSelect(t, shopSource(t), `
		SELECT p.name FROM products AS p ORDER BY p.name DESC LIMIT 2`)
	expectRows(t, rel2, "smartphone", "shirt")
}

func TestSelectLeftOuterJoin(t *testing.T) {
	src := shopSource(t)
	// custB (CA) has orders; give customers an outer join against a
	// filtered product set so some rows pad with NULL.
	rel := runSelect(t, src, `
		SELECT c.name, p.name
		FROM customers AS c
		LEFT OUTER JOIN orders AS o ON c.id = o.cid AND o.pid = 3
		LEFT OUTER JOIN products AS p ON p.id = o.pid`)
	expectRows(t, rel,
		"custA | NULL", "custB | pants", "custC | NULL")
}

func TestSelectAggregates(t *testing.T) {
	src := shopSource(t)
	rel := runSelect(t, src, `SELECT COUNT(*) FROM orders AS o`)
	if rel.Vec.Rows()[0][0].Int() != 6 {
		t.Fatalf("count = %v", rel.Vec.Rows()[0])
	}
	rel = runSelect(t, src, `
		SELECT COUNT(*), MIN(o.pid), MAX(o.pid), SUM(o.pid), AVG(o.pid)
		FROM orders AS o WHERE o.cid = 1`)
	r := rel.Vec.Rows()[0]
	if r[0].Int() != 3 || r[1].Int() != 1 || r[2].Int() != 3 || r[3].Int() != 6 || r[4].Float() != 2 {
		t.Fatalf("aggregates = %v", r)
	}
	// COUNT over a join.
	rel = runSelect(t, src, `
		SELECT COUNT(*) FROM customers AS c, orders AS o
		WHERE c.id = o.cid AND c.state = 'NY'`)
	if rel.Vec.Rows()[0][0].Int() != 3 {
		t.Fatalf("join count = %v", rel.Vec.Rows()[0])
	}
}

func TestSelectInSubquery(t *testing.T) {
	rel := runSelect(t, shopSource(t), `
		SELECT c.name FROM customers AS c
		WHERE c.id IN (SELECT o.cid FROM orders AS o WHERE o.pid = 3)`)
	expectRows(t, rel, "custB")
	rel = runSelect(t, shopSource(t), `
		SELECT c.name FROM customers AS c
		WHERE c.id NOT IN (SELECT o.cid FROM orders AS o WHERE o.pid = 3)`)
	expectRows(t, rel, "custA", "custC")
}

func TestSelectComputedItems(t *testing.T) {
	rel := runSelect(t, shopSource(t), `
		SELECT o.pid * 10 + o.cid AS code FROM orders AS o WHERE o.oid = 2`)
	if rel.Vec.Rows()[0][0].Int() != 21 {
		t.Fatalf("computed = %v", rel.Vec.Rows()[0])
	}
	if rel.Cols[0].Name != "code" {
		t.Errorf("alias = %s", rel.Cols[0].Name)
	}
}

func TestSelectCrossProductFallback(t *testing.T) {
	// No join predicate between the two relations: Cartesian product.
	rel := runSelect(t, shopSource(t), `
		SELECT c.name, p.name FROM customers AS c, products AS p
		WHERE c.state = 'CA' AND p.category = 'clothing'`)
	expectRows(t, rel, "custB | shirt", "custB | pants")
}

func TestSelectResidualPredicate(t *testing.T) {
	// Cross-relation non-equi predicate lands in the residual filter.
	rel := runSelect(t, shopSource(t), `
		SELECT c.name, o.pid FROM customers AS c, orders AS o
		WHERE c.id = o.cid AND o.pid > c.id`)
	expectRows(t, rel,
		"custA | 1", "custA | 2", "custC | NULL"[:0]+"custB | 2", "custB | 3")
}

func TestThreeValuedLogic(t *testing.T) {
	src := memSource{
		"t": mkTable(t, "t",
			[]catalog.Column{intCol("id"), intCol("x")}, []string{"id"},
			ir(1, 10), ir(2, nil), ir(3, 30)),
	}
	// NULL comparisons are unknown: row 2 never matches either branch.
	rel := runSelect(t, src, "SELECT t.id FROM t AS t WHERE t.x > 15")
	expectRows(t, rel, "3")
	rel = runSelect(t, src, "SELECT t.id FROM t AS t WHERE NOT (t.x > 15)")
	expectRows(t, rel, "1")
	rel = runSelect(t, src, "SELECT t.id FROM t AS t WHERE t.x IS NULL")
	expectRows(t, rel, "2")
	rel = runSelect(t, src, "SELECT t.id FROM t AS t WHERE t.x IS NOT NULL")
	expectRows(t, rel, "1", "3")
	// FALSE AND NULL = FALSE, TRUE OR NULL = TRUE (short circuit).
	rel = runSelect(t, src, "SELECT t.id FROM t AS t WHERE t.id = 2 AND (1 = 0 AND t.x > 5)")
	expectRows(t, rel)
	rel = runSelect(t, src, "SELECT t.id FROM t AS t WHERE t.id = 2 AND (1 = 1 OR t.x > 5)")
	expectRows(t, rel, "2")
	// IN with NULL element: unknown unless matched.
	rel = runSelect(t, src, "SELECT t.id FROM t AS t WHERE t.id IN (1, NULL)")
	expectRows(t, rel, "1")
	rel = runSelect(t, src, "SELECT t.id FROM t AS t WHERE t.id NOT IN (1, NULL)")
	expectRows(t, rel) // all unknown or false
}

func TestNullJoinKeysNeverMatch(t *testing.T) {
	src := memSource{
		"a": mkTable(t, "a", []catalog.Column{intCol("id"), intCol("k")}, []string{"id"},
			ir(1, 7), ir(2, nil)),
		"b": mkTable(t, "b", []catalog.Column{intCol("id"), intCol("k")}, []string{"id"},
			ir(10, 7), ir(11, nil)),
	}
	rel := runSelect(t, src, "SELECT a.id, b.id FROM a AS a, b AS b WHERE a.k = b.k")
	expectRows(t, rel, "1 | 10")
}

func TestLikeMatching(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_l_o", true},
		{"hello", "h_x_o", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "a%b%c", true},
		{"abc", "%x%", false},
		{"aXbXc", "a%c", true},
		{"ab", "a_b", false},
		{"sequel-anna", "sequel-%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
		// compileLike fast paths must agree with the general matcher.
		if got := compileLike(c.p)(c.s); got != c.want {
			t.Errorf("compileLike(%q)(%q) = %v, want %v", c.p, c.s, got, c.want)
		}
	}
}

func TestArith(t *testing.T) {
	src := memSource{
		"t": mkTable(t, "t", []catalog.Column{intCol("id"), intCol("x")}, []string{"id"}, ir(1, 7)),
	}
	rel := runSelect(t, src, "SELECT t.x + 1, t.x - 2, t.x * 3, t.x / 2, -t.x FROM t AS t")
	r := rel.Vec.Rows()[0]
	want := []int64{8, 5, 21, 3, -7}
	for i, w := range want {
		if r[i].Int() != w {
			t.Errorf("col %d = %v, want %d", i, r[i], w)
		}
	}
	// Division by zero errors.
	sel, _ := sqlparse.ParseSelect("SELECT t.x / 0 FROM t AS t")
	ex := &Executor{Src: src}
	if _, err := ex.Select(sel); err == nil {
		t.Error("division by zero should error")
	}
}

func TestAnalyzeSPJClassification(t *testing.T) {
	src := shopSource(t)
	sel, _ := sqlparse.ParseSelect(`
		SELECT c.name, p.name FROM customers AS c, orders AS o, products AS p
		WHERE c.state = 'NY' AND c.id = o.cid AND p.id = o.pid AND c.id + p.id > 0`)
	spec, err := AnalyzeSPJ(sel, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Rels) != 3 {
		t.Fatalf("rels = %d", len(spec.Rels))
	}
	if len(spec.Filters["c"]) != 1 {
		t.Errorf("c filters = %v", spec.Filters["c"])
	}
	if len(spec.JoinPreds) != 2 {
		t.Errorf("join preds = %v", spec.JoinPreds)
	}
	if len(spec.Residual) != 1 {
		t.Errorf("residual = %v", spec.Residual)
	}
	if got := strings.Join(spec.OutputRels(), ","); got != "c,p" {
		t.Errorf("output rels = %s", got)
	}
	if got := strings.Join(spec.JoinAttrsOf("o"), ","); got != "cid,pid" {
		t.Errorf("o join attrs = %s", got)
	}
	if got := strings.Join(spec.ProjectionOf("p"), ","); got != "name" {
		t.Errorf("p projection = %s", got)
	}
}

func TestAnalyzeSPJBareColumnResolution(t *testing.T) {
	src := shopSource(t)
	// "state" is unique to customers; "name" is ambiguous.
	sel, _ := sqlparse.ParseSelect(`SELECT state FROM customers AS c, products AS p WHERE c.id = p.id`)
	spec, err := AnalyzeSPJ(sel, src)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Projection[0].Rel != "c" {
		t.Errorf("bare column resolved to %s", spec.Projection[0].Rel)
	}
	sel2, _ := sqlparse.ParseSelect(`SELECT name FROM customers AS c, products AS p WHERE c.id = p.id`)
	if _, err := AnalyzeSPJ(sel2, src); err == nil {
		t.Error("ambiguous bare column should fail analysis")
	}
}

func TestAnalyzeSPJRejectsOuterJoinsAndDuplicateAliases(t *testing.T) {
	src := shopSource(t)
	sel, _ := sqlparse.ParseSelect(`SELECT p.id FROM products AS p LEFT OUTER JOIN orders AS o ON p.id = o.pid`)
	if _, err := AnalyzeSPJ(sel, src); err == nil {
		t.Error("outer join should be rejected")
	}
	sel2, _ := sqlparse.ParseSelect(`SELECT c.id FROM customers AS c, orders AS c WHERE 1 = 1`)
	if _, err := AnalyzeSPJ(sel2, src); err == nil {
		t.Error("duplicate alias should be rejected")
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	rel := runSelect(t, shopSource(t), `
		SELECT a.name, b.name FROM customers AS a, customers AS b
		WHERE a.state = b.state AND a.id < b.id`)
	expectRows(t, rel, "custA | custC")
}

func TestJoinAllCycleEdgesApplied(t *testing.T) {
	// Triangle: a-b, b-c, a-c; the a-c edge closes a cycle and must be
	// enforced exactly once by the greedy joiner.
	src := memSource{
		"a": mkTable(t, "a", []catalog.Column{intCol("id"), intCol("x")}, []string{"id"},
			ir(1, 100), ir(2, 200)),
		"b": mkTable(t, "b", []catalog.Column{intCol("id"), intCol("aid")}, []string{"id"},
			ir(1, 1), ir(2, 2)),
		"c": mkTable(t, "c", []catalog.Column{intCol("id"), intCol("bid"), intCol("ax")}, []string{"id"},
			ir(1, 1, 100), ir(2, 2, 100)),
	}
	rel := runSelect(t, src, `
		SELECT a.id, c.id FROM a AS a, b AS b, c AS c
		WHERE a.id = b.aid AND b.id = c.bid AND a.x = c.ax`)
	expectRows(t, rel, "1 | 1")
}

// TestJoinAllGathersEachColumnOnce: a star of one fact and three dimensions
// is joined in positions and each output column gathered once, so JoinAll
// allocates no more than the output frame plus, per join step, a gathered key
// column, the step's (build, probe) pairs and their split, and one position
// list per joined relation. Gathering every accumulated column at every step
// allocates about twice that.
func TestJoinAllGathersEachColumnOnce(t *testing.T) {
	const n, dimRows, factCols, dimCols = 10240, 25, 20, 10 // 8n bytes: whole pages
	rel := func(alias string, rows, width int, cell func(i, c int) int64) *Relation {
		cols := make([]ColRef, width)
		for c := range cols {
			cols[c] = ColRef{Rel: alias, Name: fmt.Sprintf("c%d", c), Kind: types.KindInt}
		}
		data := make([]types.Row, rows)
		for i := range data {
			data[i] = make(types.Row, width)
			for c := range data[i] {
				data[i][c] = types.NewInt(cell(i, c))
			}
		}
		return FromRows(cols, data)
	}
	// f.c1, f.c2 and f.c3 reference d1.c0, d2.c0 and d3.c0, the dimension ids.
	rels := map[string]*Relation{"f": rel("f", n, factCols, func(i, c int) int64 {
		if c >= 1 && c <= 3 {
			return int64((i*7 + c) % dimRows)
		}
		return int64(i*factCols + c)
	})}
	var preds []JoinPred
	for d := 1; d <= 3; d++ {
		alias := fmt.Sprintf("d%d", d)
		rels[alias] = rel(alias, dimRows, dimCols, func(i, c int) int64 {
			if c == 0 {
				return int64(i)
			}
			return int64(i*dimCols + c)
		})
		preds = append(preds, JoinPred{LeftRel: "f", LeftCol: fmt.Sprintf("c%d", d), RightRel: alias, RightCol: "c0"})
	}
	ex, spec := &Executor{Run: parallel.NewRun(1)}, &SPJSpec{JoinPreds: preds}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out, err := ex.JoinAll(spec, rels, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != n || len(out.Cols) != factCols+3*dimCols {
		t.Fatalf("joined %d rows of %d columns, want %d of %d", out.Len(), len(out.Cols), n, factCols+3*dimCols)
	}
	budget := n * len(out.Cols) * 8 // the output frame
	for joined := 2; joined <= 4; joined++ {
		budget += n * (8 + 16 + 4*joined)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(budget) {
		t.Errorf("JoinAll allocated %d bytes, more than the output frame and position lists (%d)", got, budget)
	}
}

// keyForms returns rel in the two shapes an operator can meet a relation in:
// a dense frame (nil selection) and a selection over a frame that interleaves
// every row with a decoy.
func keyForms(rel *Relation) map[string]*Relation {
	rows := rel.Vec.Rows()
	padded := make([]types.Row, 0, 2*len(rows))
	sel := make([]int32, 0, len(rows))
	for i, r := range rows {
		padded = append(padded, rows[(i*7+3)%len(rows)])
		sel = append(sel, int32(len(padded)))
		padded = append(padded, r)
	}
	return map[string]*Relation{"dense": rel, "sel": FromRows(rel.Cols, padded).Narrow(sel)}
}

// nestedLoopJoin is the linear-scan oracle for an inner equi-join on column 0
// of both sides: NULL keys never match, output in l-major order.
func nestedLoopJoin(l, r []types.Row) []types.Row {
	var out []types.Row
	for _, lr := range l {
		for _, rr := range r {
			if !lr[0].IsNull() && !rr[0].IsNull() && types.Equal(lr[0], rr[0]) {
				out = append(out, append(append(types.Row(nil), lr...), rr...))
			}
		}
	}
	return out
}

func TestHashJoinMatchesNestedLoopOracle(t *testing.T) {
	lCols := []ColRef{{Rel: "l", Name: "k", Kind: types.KindInt}, {Rel: "l", Name: "v", Kind: types.KindInt}}
	rCols := []ColRef{{Rel: "r", Name: "k", Kind: types.KindInt}, {Rel: "r", Name: "w", Kind: types.KindInt}}
	rfCols := []ColRef{{Rel: "r", Name: "k", Kind: types.KindFloat}, {Rel: "r", Name: "w", Kind: types.KindInt}}
	// Randomized sides over a small key domain: duplicate keys and NULL keys
	// on both sides.
	side := func(seed int64, n, tag int) []types.Row {
		rng := newTestRand(seed)
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = ir(rng(8), i+tag)
			if rng(9) == 0 {
				rows[i][0] = types.Null()
			}
		}
		return rows
	}
	floatKeys := func(rows []types.Row) []types.Row {
		out := make([]types.Row, len(rows))
		for i, r := range rows {
			out[i] = r.Clone()
			if !r[0].IsNull() {
				out[i][0] = types.NewFloat(float64(r[0].Int())) // 3 joins 3.0
			}
		}
		return out
	}
	cases := []struct {
		name  string
		rCols []ColRef
		l, r  []types.Row
	}{
		{"equal sizes", rCols, side(1, 60, 0), side(2, 60, 1000)},
		{"build side swaps to l", rCols, side(3, 20, 0), side(4, 90, 1000)},
		{"int x float keys", rfCols, side(5, 50, 0), floatKeys(side(6, 40, 1000))},
		{"empty build", rCols, side(7, 30, 0), nil},
		{"empty probe", rCols, nil, side(8, 30, 1000)},
	}
	for _, c := range cases {
		// The probe side's order is the output's: l-major when r is the
		// build side, r-major after the swap.
		want := nestedLoopJoin(c.l, c.r)
		if len(c.r) > len(c.l) {
			want = want[:0]
			for _, rr := range c.r {
				want = append(want, nestedLoopJoin(c.l, []types.Row{rr})...)
			}
		}
		if len(c.l) > 0 && len(c.r) > 0 && len(want) == 0 {
			t.Fatalf("%s: test setup: no matches", c.name)
		}
		for lf, lrel := range keyForms(FromRows(lCols, c.l)) {
			for rf, rrel := range keyForms(FromRows(c.rCols, c.r)) {
				for _, par := range []int{1, 4} {
					got := HashJoin(lrel, rrel, []int{0}, []int{0}, parallel.NewRun(par), nil)
					what := fmt.Sprintf("%s, l %s, r %s, par=%d", c.name, lf, rf, par)
					identicalRows(t, what, got, FromRows(concatCols(lCols, c.rCols), want))
				}
			}
		}
	}
}

// newTestRand returns a tiny deterministic generator.
func newTestRand(seed int64) func(n int) int {
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	return func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
}

// TestJoinOutputSharesDictionaries: a join output's TEXT columns are code
// gathers over its inputs' dictionaries (pointer-equal backing arrays), which
// is the precondition of the hash kernel's code-compare rule — so a fold node
// semi-joins a base relation over a TEXT key by dictionary code. The result
// is checked against a scan, and the allocation count must not grow with the
// rows: nothing row- or string-shaped is built on the way.
func TestJoinOutputSharesDictionaries(t *testing.T) {
	cols := func(alias string) []ColRef {
		return []ColRef{{Rel: alias, Name: "k", Kind: types.KindInt}, {Rel: alias, Name: "s", Kind: types.KindText}}
	}
	side := func(alias string, n int) *Relation {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = ir(i%50, fmt.Sprintf("%s-%d", alias, i%17))
		}
		return keyForms(FromRows(cols(alias), rows))["sel"]
	}
	dictOf := func(rel *Relation, col int) []string {
		tc, ok := rel.Vec.Frame.Col(col).(*colstore.TextColumn)
		if !ok {
			t.Fatalf("column %d is %T, want a dictionary-encoded TEXT column", col, rel.Vec.Frame.Col(col))
		}
		return tc.Dict
	}
	for _, n := range []int{400, 4000} {
		l, r := side("l", n), side("r", n/2)
		fold := HashJoin(l, r, []int{0}, []int{0}, parallel.NewRun(4), nil)
		if fold.Len() == 0 {
			t.Fatal("test setup: join produced no rows")
		}
		if &dictOf(fold, 1)[0] != &dictOf(l, 1)[0] || &dictOf(fold, 3)[0] != &dictOf(r, 1)[0] {
			t.Fatal("join output copied a TEXT dictionary instead of sharing its input's")
		}
		// fold ⋉ l and l ⋉ fold over the TEXT column: same rows as the scan.
		keep := map[string]bool{}
		for _, row := range fold.Vec.Rows() {
			keep[row[1].Text()] = true
		}
		var want []types.Row
		for _, row := range l.Vec.Rows() {
			if keep[row[1].Text()] {
				want = append(want, row)
			}
		}
		got := SemiJoin(l, []int{1}, fold, []int{1}, parallel.NewRun(1), nil)
		identicalRows(t, "base ⋉ fold over TEXT", got, FromRows(l.Cols, want))
		if out := SemiJoin(fold, []int{1}, l, []int{1}, parallel.NewRun(1), nil); out != fold {
			t.Error("fold ⋉ base over its own TEXT column dropped rows")
		}
		if a := testing.AllocsPerRun(5, func() { SemiJoin(l, []int{1}, fold, []int{1}, parallel.NewRun(1), nil) }); a > 16 {
			t.Errorf("n=%d: base ⋉ fold over a shared dictionary allocates %v objects", n, a)
		}
	}
}

func TestSemiJoinExported(t *testing.T) {
	l := FromRows([]ColRef{{Rel: "l", Name: "k"}}, []types.Row{ir(1), ir(2), ir(3), ir(2)})
	r := FromRows([]ColRef{{Rel: "r", Name: "k"}}, []types.Row{ir(2), ir(4)})
	for _, lrel := range keyForms(l) {
		for _, rrel := range keyForms(r) {
			out := SemiJoin(lrel, []int{0}, rrel, []int{0}, parallel.NewRun(1), nil)
			expectRows(t, out, "2", "2")
			if out.Vec.Frame != lrel.Vec.Frame {
				t.Error("semi-join output is not a selection over its input's frame")
			}
		}
	}
}

// intsRelation is the one-INTEGER-column relation 0..n-1.
func intsRelation(n int) *Relation {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = ir(i)
	}
	return FromRows([]ColRef{{Rel: "t", Name: "k", Kind: types.KindInt}}, rows)
}

// allocBytes is the heap bytes one call of fn allocates (serial code only).
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSemiJoinAllocations: a semi-join over single-INTEGER keys allocates a
// number of objects that does not depend on how many rows or distinct keys
// there are, what it allocates per kept probe row is the selection vector
// and nothing row-shaped (a []types.Row header alone is 24 bytes a row), and
// one that drops nothing returns its input instead of copying it.
func TestSemiJoinAllocations(t *testing.T) {
	allocs := func(n int) float64 {
		l, r := intsRelation(n), intsRelation(n/2) // half of l survives
		return testing.AllocsPerRun(10, func() { SemiJoin(l, []int{0}, r, []int{0}, parallel.NewRun(1), nil) })
	}
	if few, many := allocs(100), allocs(10000); many != few || many > 16 {
		t.Errorf("SemiJoin: %v allocations over 100 keys, %v over 10000", few, many)
	}
	// Double the probe side over a fixed build side (every other probe row
	// finds its key): the extra bytes are what the extra kept rows cost.
	build := intsRelation(5000)
	bytes := func(n int) uint64 {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = ir(i % 10000)
		}
		probe := FromRows(build.Cols, rows)
		return allocBytes(func() {
			if out := SemiJoin(probe, []int{0}, build, []int{0}, parallel.NewRun(1), nil); out.Len() != n/2 {
				t.Fatalf("kept %d of %d rows, want half", out.Len(), n)
			}
		})
	}
	if perKept := float64(bytes(20000)-bytes(10000)) / 5000; perKept >= 24 {
		t.Errorf("SemiJoin allocates %.1f bytes per kept probe row, want under 24", perKept)
	}
	for form, rel := range keyForms(intsRelation(2000)) {
		if out := SemiJoin(rel, []int{0}, rel, []int{0}, parallel.NewRun(4), nil); out != rel {
			t.Errorf("%s: a semi-join that kept every row copied the relation", form)
		}
	}
}

// TestBaseRelationAllocatesNoRows: a scan whose filter compiles to kernels is
// a selection over the table's frame — it allocates less than the row headers
// of its survivors alone would take.
func TestBaseRelationAllocatesNoRows(t *testing.T) {
	const n = 10000
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = ir(i, i%7)
	}
	src := memSource{"t": mkTable(t, "t", []catalog.Column{intCol("id"), intCol("m")}, []string{"id"}, rows...)}
	filters := parseConjuncts(t, "t", []string{"t.id < 5000"})
	ex := &Executor{Src: src, Run: parallel.NewRun(1)}
	scan := func() *Relation {
		rel, err := ex.baseRelation(RelRef{Alias: "t", Table: "t"}, filters)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	if rel := scan(); rel.Len() != n/2 { // also builds and caches the frame
		t.Fatalf("scan kept %d rows, want %d", rel.Len(), n/2)
	}
	if got := allocBytes(func() { scan() }); got >= 24*n/2 {
		t.Errorf("filtered scan allocates %d bytes, want under %d (the survivors' row headers)", got, 24*n/2)
	}
}

func TestRelationHelpers(t *testing.T) {
	rel := FromRows(
		[]ColRef{{Rel: "a", Name: "x"}, {Rel: "a", Name: "y"}, {Rel: "b", Name: "x"}},
		[]types.Row{ir(1, 2, 3)})
	if _, err := rel.ColIndex("", "x"); err == nil {
		t.Error("ambiguous bare name should error")
	}
	if i, err := rel.ColIndex("b", "x"); err != nil || i != 2 {
		t.Errorf("ColIndex(b.x) = %d, %v", i, err)
	}
	if _, err := rel.ColIndex("a", "zz"); err == nil {
		t.Error("unknown column should error")
	}
	if got := rel.ColumnsOf("a"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("ColumnsOf(a) = %v", got)
	}
	if names := rel.ColumnNames(); names[2] != "b.x" {
		t.Errorf("ColumnNames = %v", names)
	}
	p := rel.Project([]int{2, 0})
	if p.Vec.Rows()[0][0].Int() != 3 || p.Cols[0].Rel != "b" {
		t.Errorf("Project = %+v", p)
	}
}

// TestFromRowsRoundTrip: boxing gives back exactly the tuples a relation was
// built from — kinds included — whether it is the frame FromRows built, a
// gather of it, or never saw the values' kinds declared.
func TestFromRowsRoundTrip(t *testing.T) {
	cols := []ColRef{
		{Rel: "t", Name: "i", Kind: types.KindInt},
		{Rel: "t", Name: "f", Kind: types.KindFloat}, // holds an INTEGER: AnyColumn
		{Rel: "t", Name: "s", Kind: types.KindText},
		{Rel: "t", Name: "n", Kind: types.KindBool}, // all NULL: stays typed
		{Rel: "t", Name: "u"},                       // undeclared kind
	}
	rows := []types.Row{
		ir(1, 1.5, "a", nil, true),
		ir(nil, 2, "b", nil, "x"),
		ir(3, nil, nil, nil, nil),
		ir(4, 4.25, "a", nil, 7),
	}
	rel := FromRows(cols, rows)
	if _, ok := rel.Vec.Frame.Col(1).(*colstore.AnyColumn); !ok {
		t.Errorf("FLOAT column holding an INTEGER is %T, want the AnyColumn fallback", rel.Vec.Frame.Col(1))
	}
	if _, ok := rel.Vec.Frame.Col(3).(*colstore.BoolColumn); !ok {
		t.Errorf("all-NULL BOOLEAN column is %T, want its declared kind preserved", rel.Vec.Frame.Col(3))
	}
	gathered := &Relation{Cols: cols, Vec: &colstore.View{
		Frame: colstore.GatherView(rel.Vec, allCols(len(cols)), []int32{0, 1, 2, 3}, parallel.NewRun(1))}}
	for name, r := range map[string]*Relation{"FromRows": rel, "gathered": gathered} {
		if got := r.Vec.Rows(); !reflect.DeepEqual(got, rows) {
			t.Errorf("%s: Rows() = %v, want %v", name, got, rows)
		}
	}
	want := []types.Row{rows[1], rows[3]}
	for name, r := range map[string]*Relation{"FromRows": rel, "gathered": gathered} {
		if got := r.Narrow([]int32{1, 3}).Vec.Rows(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s narrowed: Rows() = %v, want %v", name, got, want)
		}
	}
	if empty := FromRows(cols, nil); empty.Len() != 0 || len(empty.Vec.Rows()) != 0 {
		t.Errorf("empty relation has %d rows", empty.Len())
	}
}
