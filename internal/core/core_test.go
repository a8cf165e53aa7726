package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/engine"
	"resultdb/internal/sqlparse"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// memSource is a trivial engine.Source for tests.
type memSource map[string]*storage.Table

func (m memSource) Table(name string) (*storage.Table, error) {
	if t, ok := m[strings.ToLower(name)]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("no table %q", name)
}

func intCol(n string) catalog.Column { return catalog.Column{Name: n, Type: types.KindInt} }

func mkTable(t *testing.T, name string, cols []catalog.Column, rows ...types.Row) *storage.Table {
	t.Helper()
	def := catalog.MustTableDef(name, cols)
	tab := storage.NewTable(def)
	if err := tab.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	return tab
}

func ir(vals ...int) types.Row {
	row := make(types.Row, len(vals))
	for i, v := range vals {
		row[i] = types.NewInt(int64(v))
	}
	return row
}

// chainSource builds a 4-relation chain r1 - r2 - r3 - r4 joined on k.
func chainSource(t *testing.T) memSource {
	t.Helper()
	cols := []catalog.Column{intCol("id"), intCol("k")}
	return memSource{
		"r1": mkTable(t, "r1", cols, ir(1, 10), ir(2, 20), ir(3, 30)),
		"r2": mkTable(t, "r2", cols, ir(1, 10), ir(2, 20), ir(3, 40)),
		"r3": mkTable(t, "r3", cols, ir(1, 10), ir(2, 50)),
		"r4": mkTable(t, "r4", cols, ir(1, 10), ir(2, 10), ir(3, 60)),
	}
}

const chainQuery = `
SELECT r1.id, r4.id FROM r1 AS r1, r2 AS r2, r3 AS r3, r4 AS r4
WHERE r1.k = r2.k AND r2.k = r3.k AND r3.k = r4.k`

// bare and serial execute with no tracer and no statistics, so reduction
// makes the paper's heuristic choices: bare at the automatic degree, serial
// at degree 1.
var (
	bare   = &engine.Executor{}
	serial = &engine.Executor{Parallelism: 1}
)

func analyze(t *testing.T, src engine.Source, sql string) (*engine.SPJSpec, map[string]*engine.Relation) {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := engine.AnalyzeSPJ(sel, src)
	if err != nil {
		t.Fatal(err)
	}
	ex := &engine.Executor{Src: src}
	rels, err := ex.BaseRelations(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, rels
}

// mixForms returns rels with some relations rebuilt from their boxed rows, so
// the operators under test meet every pairing of column representations: form
// 0 keeps every scan's selection over its table's frame, form 1 rebuilds
// every other relation in alias order as a dense frame with dictionaries of
// its own (what a decoded result set looks like), form 2 rebuilds all of them
// with undeclared kinds, so every column is an exact-value AnyColumn and every
// compare goes through types.Equal.
func mixForms(rels map[string]*engine.Relation, form int) map[string]*engine.Relation {
	aliases := make([]string, 0, len(rels))
	for a := range rels {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	out := make(map[string]*engine.Relation, len(rels))
	for i, a := range aliases {
		rel := rels[a]
		switch {
		case form == 2:
			cols := append([]engine.ColRef(nil), rel.Cols...)
			for c := range cols {
				cols[c].Kind = types.KindNull
			}
			rel = engine.FromRows(cols, rel.Vec.Rows())
		case form == 1 && i%2 == 1:
			rel = engine.FromRows(rel.Cols, rel.Vec.Rows())
		}
		out[a] = rel
	}
	return out
}

func TestBuildGraphMergesParallelEdges(t *testing.T) {
	src := memSource{
		"a": mkTable(t, "a", []catalog.Column{intCol("id"), intCol("x"), intCol("y")}, ir(1, 2, 3)),
		"b": mkTable(t, "b", []catalog.Column{intCol("id"), intCol("x"), intCol("y")}, ir(1, 2, 3)),
	}
	spec, rels := analyze(t, src, `
		SELECT a.id, b.id FROM a AS a, b AS b WHERE a.x = b.x AND a.y = b.y`)
	g, err := BuildGraph(spec, rels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 1 {
		t.Fatalf("parallel predicates must merge into one edge, got %d", len(g.Edges))
	}
	if len(g.Edges[0].Preds) != 2 {
		t.Fatalf("edge preds = %d, want 2", len(g.Edges[0].Preds))
	}
	if g.IsCyclic() {
		t.Error("two nodes with one (conjunctive) edge are acyclic")
	}
}

func TestIsCyclic(t *testing.T) {
	src := memSource{
		"a": mkTable(t, "a", []catalog.Column{intCol("id"), intCol("k")}, ir(1, 1)),
		"b": mkTable(t, "b", []catalog.Column{intCol("id"), intCol("k")}, ir(1, 1)),
		"c": mkTable(t, "c", []catalog.Column{intCol("id"), intCol("k")}, ir(1, 1)),
	}
	spec, rels := analyze(t, src, `
		SELECT a.id, b.id, c.id FROM a AS a, b AS b, c AS c
		WHERE a.k = b.k AND b.k = c.k AND a.k = c.k`)
	g, err := BuildGraph(spec, rels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsCyclic() {
		t.Error("triangle must be cyclic")
	}
	// Chain is acyclic.
	spec2, rels2 := analyze(t, chainSource(t), chainQuery)
	g2, _ := BuildGraph(spec2, rels2, nil)
	if g2.IsCyclic() {
		t.Error("chain must be acyclic")
	}
	if got := g2.Components(); got != 1 {
		t.Errorf("components = %d", got)
	}
}

func TestReduceRelationsChain(t *testing.T) {
	spec, rels := analyze(t, chainSource(t), chainQuery)
	st := &Stats{}
	g, err := BuildGraph(spec, rels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReduceRelations(bare, g, DefaultOptions(), st); err != nil {
		t.Fatal(err)
	}
	// Only k=10 survives the full chain: r1{1}, r2{1}, r3{1}, r4{1,2}.
	wantLens := map[string]int{"r1": 1, "r2": 1, "r3": 1, "r4": 2}
	for alias, want := range wantLens {
		n := g.NodeOf(alias)
		if n == nil {
			t.Fatalf("missing node %s", alias)
		}
		if n.Rel.Len() != want {
			t.Errorf("%s reduced to %d rows, want %d", alias, n.Rel.Len(), want)
		}
	}
	if st.SemiJoins == 0 {
		t.Error("no semi-joins recorded")
	}
}

func TestReduceRelationsRejectsCyclicAndDisconnected(t *testing.T) {
	src := memSource{
		"a": mkTable(t, "a", []catalog.Column{intCol("id"), intCol("k")}, ir(1, 1)),
		"b": mkTable(t, "b", []catalog.Column{intCol("id"), intCol("k")}, ir(1, 1)),
	}
	spec, rels := analyze(t, src, "SELECT a.id, b.id FROM a AS a, b AS b WHERE a.id = 1 AND b.id = 1")
	g, _ := BuildGraph(spec, rels, nil)
	err := ReduceRelations(bare, g, DefaultOptions(), &Stats{})
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Errorf("disconnected graph error = %v", err)
	}
}

func TestEarlyStopSkipsUnprojectedSubtrees(t *testing.T) {
	// Star: center r2 joined to r1, r3, r4; only r1 projected.
	src := chainSource(t)
	sql := `
SELECT r1.id FROM r1 AS r1, r2 AS r2, r3 AS r3, r4 AS r4
WHERE r2.k = r1.k AND r2.k = r3.k AND r2.k = r4.k`
	spec, rels := analyze(t, src, sql)

	withStop := Options{Root: RootHeuristic, Fold: FoldMaxDegree, EarlyStop: true}
	without := Options{Root: RootHeuristic, Fold: FoldMaxDegree, EarlyStop: false}

	out1, st1, err := SemiJoinReduce(bare, spec, rels, nil, withStop)
	if err != nil {
		t.Fatal(err)
	}
	spec2, rels2 := analyze(t, src, sql)
	out2, st2, err := SemiJoinReduce(bare, spec2, rels2, nil, without)
	if err != nil {
		t.Fatal(err)
	}
	if st1.SemiJoins >= st2.SemiJoins {
		t.Errorf("early stop did not save semi-joins: %d vs %d", st1.SemiJoins, st2.SemiJoins)
	}
	if !sameRelation(out1["r1"], out2["r1"]) {
		t.Error("early stop changed the projected relation's reduction")
	}
}

func sameRelation(a, b *engine.Relation) bool {
	as, bs := renderSorted(a), renderSorted(b)
	return strings.Join(as, "\n") == strings.Join(bs, "\n")
}

func renderSorted(r *engine.Relation) []string {
	out := make([]string, r.Len())
	for i, row := range r.Vec.Rows() {
		out[i] = row.String()
	}
	sort.Strings(out)
	return out
}

func TestFoldJoinGraphTriangle(t *testing.T) {
	src := memSource{
		"a": mkTable(t, "a", []catalog.Column{intCol("id"), intCol("k")}, ir(1, 1), ir(2, 2)),
		"b": mkTable(t, "b", []catalog.Column{intCol("id"), intCol("k")}, ir(1, 1), ir(2, 3)),
		"c": mkTable(t, "c", []catalog.Column{intCol("id"), intCol("k")}, ir(1, 1), ir(2, 2)),
	}
	spec, rels := analyze(t, src, `
		SELECT a.id, b.id, c.id FROM a AS a, b AS b, c AS c
		WHERE a.k = b.k AND b.k = c.k AND a.k = c.k`)
	g, err := BuildGraph(spec, rels, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := &Stats{}
	if err := FoldJoinGraph(serial, g, FoldMaxDegree, st); err != nil {
		t.Fatal(err)
	}
	if g.IsCyclic() {
		t.Error("graph still cyclic after folding")
	}
	if st.Folds == 0 {
		t.Error("no folds recorded")
	}
	// One fold of a triangle leaves 2 nodes and 1 merged edge.
	if len(g.Nodes) != 2 || len(g.Edges) != 1 {
		t.Errorf("nodes=%d edges=%d after fold", len(g.Nodes), len(g.Edges))
	}
	foundFold := false
	for _, n := range g.Nodes {
		if n.IsFold() {
			foundFold = true
			if len(n.Rel.Cols) != 4 {
				t.Errorf("fold has %d cols, want 4", len(n.Rel.Cols))
			}
		}
	}
	if !foundFold {
		t.Error("no fold node present")
	}
}

func TestFoldStrategiesAllTerminate(t *testing.T) {
	for _, strat := range []FoldStrategy{FoldMaxDegree, FoldFirst, FoldMinCard} {
		src := memSource{
			"a": mkTable(t, "a", []catalog.Column{intCol("id"), intCol("k")}, ir(1, 1)),
			"b": mkTable(t, "b", []catalog.Column{intCol("id"), intCol("k")}, ir(1, 1)),
			"c": mkTable(t, "c", []catalog.Column{intCol("id"), intCol("k")}, ir(1, 1)),
			"d": mkTable(t, "d", []catalog.Column{intCol("id"), intCol("k")}, ir(1, 1)),
		}
		// K4: every pair joined — multiple cycles (the paper's JG 1 shape).
		spec, rels := analyze(t, src, `
			SELECT a.id, b.id, c.id, d.id FROM a AS a, b AS b, c AS c, d AS d
			WHERE a.k = b.k AND a.k = c.k AND a.k = d.k
			  AND b.k = c.k AND b.k = d.k AND c.k = d.k`)
		g, err := BuildGraph(spec, rels, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := &Stats{}
		if err := FoldJoinGraph(serial, g, strat, st); err != nil {
			t.Fatalf("strategy %d: %v", strat, err)
		}
		if g.IsCyclic() {
			t.Errorf("strategy %d left a cyclic graph", strat)
		}
	}
}

func TestSemiJoinReduceCyclicMatchesDecompose(t *testing.T) {
	src := memSource{
		"a": mkTable(t, "a", []catalog.Column{intCol("id"), intCol("k")},
			ir(1, 1), ir(2, 2), ir(3, 3)),
		"b": mkTable(t, "b", []catalog.Column{intCol("id"), intCol("k")},
			ir(1, 1), ir(2, 2), ir(3, 9)),
		"c": mkTable(t, "c", []catalog.Column{intCol("id"), intCol("k")},
			ir(1, 1), ir(2, 8)),
	}
	sql := `SELECT a.id, b.id, c.id FROM a AS a, b AS b, c AS c
		WHERE a.k = b.k AND b.k = c.k AND a.k = c.k`
	assertReduceMatchesDecompose(t, src, sql)
}

// assertReduceMatchesDecompose checks Theorem 4.4 for one query: the native
// algorithm's reduced relations (projected, deduped) equal the Decompose of
// the single-table result.
func assertReduceMatchesDecompose(t *testing.T, src engine.Source, sql string) {
	t.Helper()
	spec, rels := analyze(t, src, sql)
	ex := &engine.Executor{Src: src}
	joined, err := ex.RunSPJ(spec)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Decompose(serial, joined, spec.OutputRels())
	if err != nil {
		t.Fatal(err)
	}
	for form := 0; form < 3; form++ {
		reduced, _, err := SemiJoinReduce(bare, spec, mixForms(rels, form), nil, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, alias := range spec.OutputRels() {
			key := strings.ToLower(alias)
			got := reduced[key].Distinct(0)
			want := oracle[key]
			if !sameRelation(got, want) {
				t.Errorf("%s (form %d): relation %s mismatch:\nreduced: %v\ndecompose: %v",
					sql, form, alias, renderSorted(got), renderSorted(want))
			}
		}
	}
}

func TestRootStrategies(t *testing.T) {
	spec, rels := analyze(t, chainSource(t), chainQuery)
	for _, strat := range []RootStrategy{RootHeuristic, RootFirst, RootMaxDegree} {
		spec2, rels2 := spec, rels
		_ = spec2
		reduced, st, err := SemiJoinReduce(bare, spec, rels2, nil, Options{Root: strat, EarlyStop: false})
		if err != nil {
			t.Fatalf("strategy %d: %v", strat, err)
		}
		if st.Root == "" {
			t.Errorf("strategy %d: no root recorded", strat)
		}
		if reduced["r1"].Len() != 1 {
			t.Errorf("strategy %d: r1 rows = %d", strat, reduced["r1"].Len())
		}
		// Rebuild rels: the reduction mutates node relations but not the
		// input map's relations (SemiJoin allocates new row slices); verify.
		if rels["r1"].Len() != 3 {
			t.Fatalf("input relations mutated: r1 has %d rows", rels["r1"].Len())
		}
	}
	// The heuristic must pick a projected relation as root.
	_, st, err := SemiJoinReduce(bare, spec, rels, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Root != "r1" && st.Root != "r4" {
		t.Errorf("heuristic root = %s, want a projected relation (r1/r4)", st.Root)
	}
}

func TestPostJoinReconstruction(t *testing.T) {
	src := chainSource(t)
	sel, _ := sqlparse.ParseSelect(chainQuery)
	spec, err := engine.AnalyzeSPJ(sel, src)
	if err != nil {
		t.Fatal(err)
	}
	ex := &engine.Executor{Src: src}
	// Original single-table result.
	orig, err := ex.Select(sel)
	if err != nil {
		t.Fatal(err)
	}
	// Reduce with relationship-preserving outputs: every relation with
	// non-empty A_i* (all four here, since all have join attributes).
	rels, _ := ex.BaseRelations(spec)
	outputs := []string{"r1", "r2", "r3", "r4"}
	reduced, _, err := SemiJoinReduce(bare, spec, rels, outputs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Project each to A_i* and post-join.
	rpRels := make(map[string]*engine.Relation)
	for _, alias := range outputs {
		attrs := RelationshipPreservingAttrs(spec, alias)
		cols := make([]int, len(attrs))
		for i, a := range attrs {
			idx, err := reduced[alias].ColIndex(alias, a)
			if err != nil {
				t.Fatal(err)
			}
			cols[i] = idx
		}
		rpRels[alias] = reduced[alias].Project(cols).Distinct(0)
	}
	post, err := PostJoin(spec.JoinPreds, rpRels, spec.Projection)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRelation(post, orig) {
		t.Fatalf("post-join mismatch:\npost: %v\norig: %v", renderSorted(post), renderSorted(orig))
	}
}

func TestRelationshipPreservingAttrs(t *testing.T) {
	src := chainSource(t)
	sel, _ := sqlparse.ParseSelect(chainQuery)
	spec, _ := engine.AnalyzeSPJ(sel, src)
	if got := strings.Join(RelationshipPreservingAttrs(spec, "r1"), ","); got != "id,k" {
		t.Errorf("r1 attrs = %s", got)
	}
	if got := strings.Join(RelationshipPreservingAttrs(spec, "r2"), ","); got != "k" {
		t.Errorf("r2 attrs = %s", got)
	}
}

func TestDecomposeErrors(t *testing.T) {
	rel := engine.FromRows([]engine.ColRef{{Rel: "a", Name: "x"}}, nil)
	if _, err := Decompose(serial, rel, []string{"missing"}); err == nil {
		t.Error("Decompose with unknown alias should fail")
	}
}

func TestStatsString(t *testing.T) {
	st := &Stats{Cyclic: true, Folds: 2, SemiJoins: 5, Root: "t", EarlyStopped: true}
	s := st.String()
	for _, want := range []string{"root=t", "semijoins=5", "folds=2", "cyclic", "early-stop"} {
		if !strings.Contains(s, want) {
			t.Errorf("Stats.String() = %q missing %q", s, want)
		}
	}
}

// TestUntracedNotesAllocateNothing: with no tracer attached the reduction
// formats no plan note. The two statements run the same semi-joins over the
// same rows (every key matches, so nothing is narrowed). In the first the
// top-down pass skips the step into x, whose subtree holds no output
// relation, which a tracer would note with x's name. In the second that step
// comes last and early stop ends the pass before it, with a constant note. So
// they must allocate alike.
func TestUntracedNotesAllocateNothing(t *testing.T) {
	src := memSource{
		"r": mkTable(t, "r", []catalog.Column{intCol("id"), intCol("a"), intCol("b")}, ir(1, 1, 1), ir(2, 2, 2)),
		"x": mkTable(t, "x", []catalog.Column{intCol("a")}, ir(1), ir(2)),
		"y": mkTable(t, "y", []catalog.Column{intCol("b")}, ir(1), ir(2)),
	}
	allocs := func(sql string, skipped int) float64 {
		spec, rels := analyze(t, src, sql)
		opts := DefaultOptions()
		_, st, err := SemiJoinReduce(serial, spec, rels, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.SkippedSemiJoins != skipped || st.SemiJoins != 3 || st.TuplesDropped != 0 {
			t.Fatalf("%s: %s, want %d skipped of 3 semi-joins dropping nothing", sql, st, skipped)
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := SemiJoinReduce(serial, spec, rels, nil, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	skip := allocs(`SELECT r.id, y.b FROM r AS r, x AS x, y AS y WHERE r.a = x.a AND r.b = y.b`, 1)
	stop := allocs(`SELECT r.id, y.b FROM r AS r, x AS x, y AS y WHERE r.b = y.b AND r.a = x.a`, 0)
	if skip != stop {
		t.Errorf("an untraced reduction skipping a top-down step allocates %v times, one stopping early %v", skip, stop)
	}
}
