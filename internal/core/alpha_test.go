package core

import (
	"strings"
	"testing"

	"resultdb/internal/catalog"
)

// sameClassTriangleSrc: a, b, c each with (id, k); the query joins all three
// pairwise on k — JG-cyclic, α-acyclic.
func sameClassTriangleSrc(t *testing.T) memSource {
	t.Helper()
	cols := []catalog.Column{intCol("id"), intCol("k")}
	return memSource{
		"a": mkTable(t, "a", cols, ir(1, 1), ir(2, 2), ir(3, 7)),
		"b": mkTable(t, "b", cols, ir(1, 1), ir(2, 2), ir(3, 8)),
		"c": mkTable(t, "c", cols, ir(1, 1), ir(2, 9)),
	}
}

const sameClassTriangle = `
SELECT a.id, b.id, c.id FROM a AS a, b AS b, c AS c
WHERE a.k = b.k AND b.k = c.k AND a.k = c.k`

func TestDropImpliedEdgesSameClassTriangle(t *testing.T) {
	spec, rels := analyze(t, sameClassTriangleSrc(t), sameClassTriangle)
	g, err := BuildGraph(spec, rels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsCyclic() {
		t.Fatal("triangle must be JG-cyclic before reduction")
	}
	st := &Stats{}
	DropImpliedEdges(g, st)
	if st.ImpliedEdgesDropped != 1 {
		t.Errorf("dropped = %d, want 1", st.ImpliedEdgesDropped)
	}
	if g.IsCyclic() {
		t.Error("graph must be a tree after dropping the implied edge")
	}
}

func TestDropImpliedEdgesKeepsGenuineCycles(t *testing.T) {
	cols := []catalog.Column{intCol("id"), intCol("k"), intCol("l")}
	src := memSource{
		"a": mkTable(t, "a", cols, ir(1, 1, 1)),
		"b": mkTable(t, "b", cols, ir(1, 1, 1)),
		"c": mkTable(t, "c", cols, ir(1, 1, 1)),
	}
	// Three distinct attribute classes: no predicate is implied.
	spec, rels := analyze(t, src, `
		SELECT a.id, b.id, c.id FROM a AS a, b AS b, c AS c
		WHERE a.k = b.k AND b.l = c.k AND a.l = c.l`)
	g, _ := BuildGraph(spec, rels, nil)
	st := &Stats{}
	DropImpliedEdges(g, st)
	if st.ImpliedEdgesDropped != 0 {
		t.Errorf("dropped = %d, want 0 (genuine cycle)", st.ImpliedEdgesDropped)
	}
	if !g.IsCyclic() {
		t.Error("genuine cycle must survive alpha-reduction")
	}
}

// TestAlphaReduceSkipsFolding: with AlphaReduce, the same-class triangle
// runs without folds and still matches the Decompose oracle; without it,
// folding happens and the results agree anyway.
func TestAlphaReduceSkipsFolding(t *testing.T) {
	src := sameClassTriangleSrc(t)
	spec, rels := analyze(t, src, sameClassTriangle)

	with := DefaultOptions()
	outWith, stWith, err := SemiJoinReduce(spec, rels, nil, with)
	if err != nil {
		t.Fatal(err)
	}
	if stWith.Folds != 0 || stWith.ImpliedEdgesDropped != 1 {
		t.Errorf("alpha path: folds=%d dropped=%d", stWith.Folds, stWith.ImpliedEdgesDropped)
	}

	spec2, rels2 := analyze(t, src, sameClassTriangle)
	without := DefaultOptions()
	without.AlphaReduce = false
	outWithout, stWithout, err := SemiJoinReduce(spec2, rels2, nil, without)
	if err != nil {
		t.Fatal(err)
	}
	if stWithout.Folds == 0 {
		t.Error("non-alpha path should have folded")
	}
	for _, alias := range []string{"a", "b", "c"} {
		if !sameRelation(outWith[alias].Distinct(), outWithout[alias].Distinct()) {
			t.Errorf("relation %s differs between alpha and fold paths", alias)
		}
	}
	// Both k=1 and k=2 survive (present in all three relations)?
	// a{1,2}, b{1,2}, c{1}: only k=1 joins all three.
	if outWith["a"].Len() != 1 || outWith["a"].Vec.Rows()[0][0].Int() != 1 {
		t.Errorf("a reduced to %v", outWith["a"].Vec.Rows())
	}
}

// TestAlphaReduceTransitiveChainWithShortcut: a 4-chain plus a shortcut
// a.k = d.k (all one class) — the shortcut is implied by the chain.
func TestAlphaReduceTransitiveChainWithShortcut(t *testing.T) {
	cols := []catalog.Column{intCol("id"), intCol("k")}
	src := memSource{
		"a": mkTable(t, "a", cols, ir(1, 1)),
		"b": mkTable(t, "b", cols, ir(1, 1)),
		"c": mkTable(t, "c", cols, ir(1, 1)),
		"d": mkTable(t, "d", cols, ir(1, 1)),
	}
	spec, rels := analyze(t, src, `
		SELECT a.id, d.id FROM a AS a, b AS b, c AS c, d AS d
		WHERE a.k = b.k AND b.k = c.k AND c.k = d.k AND a.k = d.k`)
	g, _ := BuildGraph(spec, rels, nil)
	st := &Stats{}
	DropImpliedEdges(g, st)
	if st.ImpliedEdgesDropped != 1 || g.IsCyclic() {
		t.Errorf("dropped=%d cyclic=%v; want the shortcut removed", st.ImpliedEdgesDropped, g.IsCyclic())
	}
}

// TestStatsStringIncludesAlpha covers the stats rendering.
func TestStatsStringIncludesAlpha(t *testing.T) {
	st := &Stats{ImpliedEdgesDropped: 2}
	if !strings.Contains(st.String(), "implied-edges-dropped=2") {
		t.Errorf("stats = %q", st.String())
	}
}
