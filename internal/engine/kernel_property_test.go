package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/sqlparse"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// The scan's contract: the selection vector the compiled kernels (plus the
// residual) produce names exactly the rows for which the bound expression of
// the whole conjunction is TRUE. The bound expression defines predicate
// semantics; a kernel is only ever a faster way to the same answer. These
// tests check that directly, over data shaped to hit the corners of the
// columnar layout, for every kernel shape, every prefix/residual split, and
// both serial and morsel-parallel execution.

// kernelVariant shapes the random data: NULL-heavy columns (bitmap paths,
// three-valued logic) and degenerate TEXT dictionaries (one entry; all
// distinct entries).
type kernelVariant struct {
	name     string
	nullProb float64
	// textMode: 0 = small shared dictionary, 1 = single value, 2 = all distinct
	textMode int
}

var kernelVariants = []kernelVariant{
	{"nullheavy", 0.35, 0},
	{"dict1", 0.15, 1},
	{"dictN", 0.15, 2},
}

// kernelTable builds r(k INT, a INT, b FLOAT, c TEXT, d BOOL) with enough
// seeded random rows to engage chunking at parallelism 4.
func kernelTable(t *testing.T, rng *rand.Rand, v kernelVariant) *storage.Table {
	t.Helper()
	cols := []catalog.Column{
		intCol("k"), intCol("a"),
		{Name: "b", Type: types.KindFloat},
		textCol("c"),
		{Name: "d", Type: types.KindBool},
	}
	orNull := func(gen func() types.Value) types.Value {
		if rng.Float64() < v.nullProb {
			return types.Null()
		}
		return gen()
	}
	text := func(i int) string {
		switch v.textMode {
		case 1:
			return "const"
		case 2:
			return fmt.Sprintf("u%d", i)
		default:
			return fmt.Sprintf("v%d", rng.Intn(8))
		}
	}
	rows := make([]types.Row, 1200)
	for i := range rows {
		i := i
		rows[i] = types.Row{
			orNull(func() types.Value { return types.NewInt(int64(rng.Intn(20))) }),
			orNull(func() types.Value { return types.NewInt(int64(rng.Intn(100))) }),
			orNull(func() types.Value { return types.NewFloat(float64(rng.Intn(50)) + float64(rng.Intn(10))/10) }),
			orNull(func() types.Value { return types.NewText(text(i)) }),
			orNull(func() types.Value { return types.NewBool(rng.Intn(2) == 0) }),
		}
	}
	return mkTable(t, "r", cols, nil, rows...)
}

// kernelPreds covers every kernel shape: typed comparisons in both operand
// orders, BETWEEN, IN with a NULL item, LIKE, IS [NOT] NULL, bool equality,
// and cross-kind comparisons that degenerate to constants.
var kernelPreds = []string{
	"r.a < 50",
	"60 > r.a",
	"40 < r.a",
	"30 >= r.a",
	"20 <= r.a",
	"r.a BETWEEN 10 AND 60",
	"r.a NOT BETWEEN 20 AND 80",
	"r.a IN (1, 2, 3, 17, 44)",
	"r.a IN (5, NULL, 61)",
	"r.a NOT IN (7, 8)",
	"r.c LIKE 'v%'",
	"r.c NOT LIKE '%3'",
	"r.c = 'v3'",
	"r.c IN ('v1', 'v2', 'const')",
	"r.c IS NULL",
	"r.b IS NOT NULL",
	"r.d = TRUE",
	"r.d <> FALSE",
	"r.a = 'not_a_number'",
	"r.a >= 25.5",
	"r.a <> 30",
}

// residualPreds are shapes with no kernel (column-vs-column, arithmetic):
// they and everything after them evaluate through the bound expression.
var residualPreds = []string{
	"r.a = r.k",
	"r.a + 0 < 50",
}

// parseConjuncts parses preds as the WHERE conjuncts of a scan of table.
func parseConjuncts(t *testing.T, table string, preds []string) []sqlparse.Expr {
	t.Helper()
	sel, err := sqlparse.ParseSelect(fmt.Sprintf("SELECT * FROM %s AS %s WHERE %s", table, table, strings.Join(preds, " AND ")))
	if err != nil {
		t.Fatalf("parse %v: %v", preds, err)
	}
	return sqlparse.Conjuncts(sel.Where)
}

// boundSelection is the definition: positions of the rows the bound
// expression of the whole conjunction finds TRUE. (The pools raise no runtime
// errors, so AND's three-valued evaluation and the scan's drop-at-first-
// failure agree; TestScanConjunctionShortCircuitsErrors covers where they
// differ.)
func boundSelection(t *testing.T, cols []ColRef, rows []types.Row, filters []sqlparse.Expr) []int32 {
	t.Helper()
	keep, err := BindPredicate(cols, sqlparse.AndAll(filters))
	if err != nil {
		t.Fatal(err)
	}
	var sel []int32
	for i, row := range rows {
		ok, err := keep(row)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

func TestKernelSelectionMatchesBoundExpression(t *testing.T) {
	for _, v := range kernelVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			tab := kernelTable(t, rand.New(rand.NewSource(31+int64(v.textMode))), v)
			f, tabRows := tab.Columns(), tab.Rows()
			rel := make([]ColRef, len(tab.Def.Columns))
			for i, c := range tab.Def.Columns {
				rel[i] = ColRef{Rel: "r", Name: c.Name, Kind: c.Type}
			}

			// selection runs the scan's filter with an explicit split and
			// returns the frame positions it selects.
			selection := func(par int, kernelPart, residualPart []sqlparse.Expr) []int32 {
				kernels, rest := compileScanKernels(f, rel, kernelPart)
				if len(rest) != 0 {
					t.Fatalf("%s has no kernel", rest[0].SQL())
				}
				e := &Executor{Src: memSource{"r": tab}, Parallelism: par}
				view, err := e.filterView(f, nil, rel, kernels, residualPart)
				if err != nil {
					t.Fatal(err)
				}
				sel := make([]int32, view.Len())
				for j := range sel {
					sel[j] = int32(view.Index(j))
				}
				return sel
			}

			// Every kernel shape on its own; the shapes without a kernel must
			// be left to the residual.
			for _, p := range kernelPreds {
				filters := parseConjuncts(t, "r", []string{p})
				want := boundSelection(t, rel, tabRows, filters)
				for _, par := range []int{1, 4} {
					if got := selection(par, filters, nil); !slices.Equal(got, want) {
						t.Errorf("%s par=%d: kernel selects %d rows, bound expression %d", p, par, len(got), len(want))
					}
				}
			}
			for _, p := range residualPreds {
				if k, rest := compileScanKernels(f, rel, parseConjuncts(t, "r", []string{p})); len(k) != 0 || len(rest) != 1 {
					t.Errorf("%s compiled to a kernel; it must stay in the residual", p)
				}
			}

			// Every split of a conjunction into kernel prefix and bound
			// residual selects the same rows, including the all-kernel and
			// all-residual extremes.
			rng := rand.New(rand.NewSource(97 + int64(v.textMode)))
			for iter := 0; iter < 40; iter++ {
				var preds []string
				for n := rng.Intn(4) + 1; n > 0; n-- {
					preds = append(preds, kernelPreds[rng.Intn(len(kernelPreds))])
				}
				filters := parseConjuncts(t, "r", preds)
				want := boundSelection(t, rel, tabRows, filters)
				for split := 0; split <= len(filters); split++ {
					for _, par := range []int{1, 4} {
						if got := selection(par, filters[:split], filters[split:]); !slices.Equal(got, want) {
							t.Fatalf("%v split at %d par=%d: selects %d rows, bound expression %d",
								preds, split, par, len(got), len(want))
						}
					}
				}
			}

			// The scan itself, splitting where the first conjunct without a
			// kernel falls: selection, rows and order all follow the definition.
			for iter := 0; iter < 40; iter++ {
				var preds []string
				for n := rng.Intn(4) + 1; n > 0; n-- {
					if rng.Intn(4) == 0 {
						preds = append(preds, residualPreds[rng.Intn(len(residualPreds))])
					} else {
						preds = append(preds, kernelPreds[rng.Intn(len(kernelPreds))])
					}
				}
				filters := parseConjuncts(t, "r", preds)
				want := boundSelection(t, rel, tabRows, filters)
				for _, par := range []int{1, 4} {
					e := &Executor{Src: memSource{"r": tab}, Parallelism: par}
					got, err := e.baseRelation(RelRef{Alias: "r", Table: "r"}, filters)
					if err != nil {
						t.Fatal(err)
					}
					rows := got.Vec.Rows()
					if len(rows) != len(want) || got.Len() != len(want) {
						t.Fatalf("%v par=%d: scan returns %d rows (view %d), bound expression %d",
							preds, par, len(rows), got.Len(), len(want))
					}
					for j, pos := range want {
						if got.Vec.Index(j) != int(pos) || !rows[j].Equal(tabRows[pos]) {
							t.Fatalf("%v par=%d: row %d is table row %d, want %d", preds, par, j, got.Vec.Index(j), pos)
						}
					}

					// Restricted to some rows (every third from row 7), the
					// scan selects the same rows among those.
					var some, wantSome []int32
					for i := 7; i < len(tabRows); i += 3 {
						some = append(some, int32(i))
						if slices.Contains(want, int32(i)) {
							wantSome = append(wantSome, int32(i))
						}
					}
					part, err := e.ScanRows(RelRef{Alias: "r", Table: "r"}, filters, some)
					if err != nil {
						t.Fatal(err)
					}
					for j := 0; j < part.Len() || j < len(wantSome); j++ {
						if j >= part.Len() || j >= len(wantSome) || part.Vec.Index(j) != int(wantSome[j]) {
							t.Fatalf("%v par=%d: the scan of some rows selects %d of them, want %d", preds, par, part.Len(), len(wantSome))
						}
					}
				}
			}
		})
	}
}

// TestScanConjunctionShortCircuitsErrors pins the one place where evaluating
// a conjunction conjunct by conjunct is observable: a row an earlier conjunct
// rejects (NULL or FALSE) is never shown to later conjuncts, so their runtime
// errors do not surface for it — whether or not the earlier conjunct has a
// kernel.
func TestScanConjunctionShortCircuitsErrors(t *testing.T) {
	tab := mkTable(t, "m", []catalog.Column{intCol("id"), intCol("n")}, nil,
		ir(1, nil), ir(2, 5))
	e := &Executor{Src: memSource{"m": tab}, Parallelism: 1}
	scan := func(preds ...string) (*Relation, error) {
		return e.baseRelation(RelRef{Alias: "m", Table: "m"}, parseConjuncts(t, "m", preds))
	}
	// LIKE on an INT errors for every row it sees. n is NULL for row 1 and 5
	// for row 2, so neither reaches it past "n > 9" — as a kernel ("m.n > 9")
	// or as a bound expression ("m.n + 0 > 9").
	for _, first := range []string{"m.n > 9", "m.n + 0 > 9"} {
		if rel, err := scan(first, "m.id LIKE 'x%'"); err != nil || rel.Len() != 0 {
			t.Errorf("%s: rejected rows reached the LIKE: %v rows, err %v", first, rel, err)
		}
	}
	// A row that passes the first conjunct does reach it.
	for _, first := range []string{"m.n > 1", "m.n + 0 > 1"} {
		if _, err := scan(first, "m.id LIKE 'x%'"); err == nil {
			t.Errorf("%s: LIKE on an INT that a row reaches must raise its error", first)
		}
	}
}
