package engine

import (
	"math/rand"
	"strings"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/sqlparse"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

func TestDPMatchesGreedyOnPaperExample(t *testing.T) {
	src := shopSource(t)
	sel, _ := sqlparse.ParseSelect(`
		SELECT c.name, p.name FROM customers AS c, orders AS o, products AS p
		WHERE c.id = o.cid AND p.id = o.pid AND c.state = 'NY'`)
	spec, err := AnalyzeSPJ(sel, src)
	if err != nil {
		t.Fatal(err)
	}
	exGreedy := &Executor{Src: src}
	exDP := &Executor{Src: src, DPJoinOrder: true}
	a, err := exGreedy.RunSPJ(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exDP.RunSPJ(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("greedy %d rows, DP %d rows", a.Len(), b.Len())
	}
	// Same multiset of rows (column order may differ between join orders).
	if got, want := sumCells(a), sumCells(b); got != want {
		t.Fatalf("row content differs: %v vs %v", got, want)
	}
}

// sumCells builds an order-insensitive fingerprint over cell values.
func sumCells(r *Relation) int {
	seen := map[string]int{}
	for _, row := range r.Vec.Rows() {
		for i, v := range row {
			seen[r.Cols[i].Rel+"."+r.Cols[i].Name+"="+v.String()]++
		}
	}
	n := 0
	for k, c := range seen {
		n += len(k) * c
	}
	return n
}

// TestDPMatchesGreedyRandomized: both orders must produce identical result
// multisets on random queries (join order never changes semantics).
func TestDPMatchesGreedyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		nTables := 3 + rng.Intn(2)
		src := memSource{}
		for i := 0; i < nTables; i++ {
			name := string(rune('a' + i))
			def := catalog.MustTableDef(name, []catalog.Column{
				{Name: "id", Type: types.KindInt},
				{Name: "j", Type: types.KindInt},
				{Name: "k", Type: types.KindInt},
			})
			tab := newTab(t, def, rng, 5+rng.Intn(20))
			src[name] = tab
		}
		var preds []string
		for i := 1; i < nTables; i++ {
			l := string(rune('a' + i))
			r := string(rune('a' + rng.Intn(i)))
			cols := []string{"j", "k"}
			preds = append(preds, l+"."+cols[rng.Intn(2)]+" = "+r+"."+cols[rng.Intn(2)])
		}
		sql := "SELECT a.id FROM "
		var from []string
		for i := 0; i < nTables; i++ {
			n := string(rune('a' + i))
			from = append(from, n+" AS "+n)
		}
		sql += strings.Join(from, ", ") + " WHERE " + strings.Join(preds, " AND ")

		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := AnalyzeSPJ(sel, src)
		if err != nil {
			t.Fatal(err)
		}
		g := &Executor{Src: src}
		d := &Executor{Src: src, DPJoinOrder: true}
		ra, err := g.RunSPJ(spec)
		if err != nil {
			t.Fatalf("trial %d greedy: %v", trial, err)
		}
		rb, err := d.RunSPJ(spec)
		if err != nil {
			t.Fatalf("trial %d dp: %v", trial, err)
		}
		if ra.Len() != rb.Len() || sumCells(ra) != sumCells(rb) {
			t.Fatalf("trial %d: %q: greedy %d rows vs dp %d rows", trial, sql, ra.Len(), rb.Len())
		}
	}
}

func newTab(t *testing.T, def *catalog.TableDef, rng *rand.Rand, rows int) *storage.Table {
	t.Helper()
	tab := mkTable(t, def.Name, def.Columns, nil)
	for r := 0; r < rows; r++ {
		err := tab.Insert(types.Row{
			types.NewInt(int64(r)),
			types.NewInt(int64(rng.Intn(6))),
			types.NewInt(int64(rng.Intn(4))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestDPPlanPrefersSelectiveJoins(t *testing.T) {
	// big1 x big2 via a low-selectivity key would be huge; the filteredtiny
	// relation keys should join first.
	src := memSource{}
	big := func(name string, rows int) {
		def := catalog.MustTableDef(name, []catalog.Column{
			{Name: "id", Type: types.KindInt},
			{Name: "k", Type: types.KindInt},
		})
		tab := mkTable(t, name, def.Columns, nil)
		for i := 0; i < rows; i++ {
			if err := tab.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 3))}); err != nil {
				t.Fatal(err)
			}
		}
		src[name] = tab
	}
	big("big1", 300)
	big("big2", 300)
	big("tiny", 3)
	sel, _ := sqlparse.ParseSelect(`SELECT big1.id FROM big1 AS big1, big2 AS big2, tiny AS tiny
		WHERE big1.k = big2.k AND big2.id = tiny.id AND big1.id = tiny.id`)
	spec, err := AnalyzeSPJ(sel, src)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Src: src}
	rels, err := ex.BaseRelations(spec)
	if err != nil {
		t.Fatal(err)
	}
	planStr, err := PlanString(spec.JoinPreds, rels)
	if err != nil {
		t.Fatal(err)
	}
	// tiny must not be joined last: the plan that leaves big1 ⋈ big2 for
	// the first step materializes ~30000 rows.
	if planStr == "((big1 ⋈ big2) ⋈ tiny)" {
		t.Errorf("DP chose the worst plan: %s", planStr)
	}
}

func TestDPFallsBackBeyondLimit(t *testing.T) {
	// 15+ relations fall back to greedy — just check it still runs.
	src := memSource{}
	var from, preds []string
	for i := 0; i < 16; i++ {
		name := "r" + string(rune('a'+i))
		def := catalog.MustTableDef(name, []catalog.Column{
			{Name: "id", Type: types.KindInt},
		})
		tab := mkTable(t, name, def.Columns, nil, ir(1), ir(2))
		src[name] = tab
		from = append(from, name+" AS "+name)
		if i > 0 {
			prev := "r" + string(rune('a'+i-1))
			preds = append(preds, name+".id = "+prev+".id")
		}
	}
	sql := "SELECT ra.id FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(preds, " AND ")
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Src: src, DPJoinOrder: true}
	rel, err := ex.Select(sel)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("rows = %d, want 2", rel.Len())
	}
}

// PlanString renders the chosen DP plan.
func PlanString(preds []JoinPred, rels map[string]*Relation) (string, error) {
	opt, err := newOptimizer(preds, rels)
	if err != nil {
		return "", err
	}
	root, err := opt.plan()
	if err != nil {
		return "", err
	}
	var render func(n *planNode) string
	render = func(n *planNode) string {
		if n.left == nil {
			return opt.aliases[n.leaf]
		}
		return "(" + render(n.left) + " ⋈ " + render(n.right) + ")"
	}
	return render(root), nil
}
