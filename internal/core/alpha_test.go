package core

import (
	"slices"
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

// abcdSource: a, b, c, d, each (id, k, l) with one row.
func abcdSource(t *testing.T) memSource {
	t.Helper()
	cols := []catalog.Column{intCol("id"), intCol("k"), intCol("l")}
	src := memSource{}
	for _, name := range []string{"a", "b", "c", "d"} {
		src[name] = mkTable(t, name, cols, ir(1, 1, 1))
	}
	return src
}

// joinTree builds sql's join graph over src and its GYO join tree (nil when
// the query is α-cyclic).
func joinTree(t *testing.T, src memSource, sql string) (*Graph, []*Edge) {
	t.Helper()
	spec, rels := analyze(t, src, sql)
	g, err := BuildGraph(spec, rels, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, alphaJoinTree(g)
}

// TestDropImpliedEdgesSameClassTriangle: the paper's motivating gap. A
// triangle of predicates over ONE attribute class is JG-cyclic (3 joins >= 3
// relations) but α-acyclic: its join tree has two edges, so the third,
// implied by the other two, is dropped.
func TestDropImpliedEdgesSameClassTriangle(t *testing.T) {
	g, tree := joinTree(t, sameClassTriangleSrc(t), sameClassTriangle)
	if !g.IsCyclic() {
		t.Fatal("triangle must be JG-cyclic")
	}
	if len(tree) != 2 {
		t.Fatalf("join tree = %d edges, want 2", len(tree))
	}
	g.Edges = tree
	if g.IsCyclic() || g.Components() != 1 {
		t.Error("the join tree must be a spanning tree")
	}
}

// TestDropImpliedEdgesKeepsGenuineCycles: a genuine cycle — three relations
// pairwise joined on three different attribute classes — has no join tree:
// no edge is implied, none is dropped, and the reduction folds it.
func TestDropImpliedEdgesKeepsGenuineCycles(t *testing.T) {
	const sql = `SELECT a.id, b.id, c.id FROM a AS a, b AS b, c AS c
		WHERE a.k = b.k AND b.l = c.k AND a.l = c.l`
	if _, tree := joinTree(t, abcdSource(t), sql); tree != nil {
		t.Fatalf("distinct-attribute triangle got a join tree: %d edges", len(tree))
	}
	spec, rels := analyze(t, abcdSource(t), sql)
	_, st, err := SemiJoinReduce(bare, spec, rels, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.ImpliedEdgesDropped != 0 || st.Folds == 0 {
		t.Errorf("dropped=%d folds=%d, want a fold and nothing dropped", st.ImpliedEdgesDropped, st.Folds)
	}
}

// TestCycleOfFourDistinctClasses: an a-b-c-d-a square on distinct
// attributes is cyclic under both notions.
func TestCycleOfFourDistinctClasses(t *testing.T) {
	_, tree := joinTree(t, abcdSource(t), `SELECT a.id FROM a AS a, b AS b, c AS c, d AS d
		WHERE a.k = b.k AND b.l = c.k AND c.l = d.k AND d.l = a.l`)
	if tree != nil {
		t.Fatalf("square on distinct attributes got a join tree: %d edges", len(tree))
	}
}

func TestChainIsAlphaAcyclic(t *testing.T) {
	g, tree := joinTree(t, abcdSource(t), `SELECT a.id FROM a AS a, b AS b, c AS c
		WHERE a.k = b.k AND b.l = c.l`)
	if g.IsCyclic() || len(tree) != 2 {
		t.Errorf("chain: cyclic=%v tree=%d edges, want a JG-acyclic chain with a two-edge tree", g.IsCyclic(), len(tree))
	}
}

// TestStarIsAlphaAcyclic: every join tree edge of a star touches its center.
func TestStarIsAlphaAcyclic(t *testing.T) {
	g, tree := joinTree(t, abcdSource(t), `SELECT a.id FROM a AS a, b AS b, c AS c, d AS d
		WHERE a.k = b.k AND a.l = c.k AND a.id = d.k`)
	if len(tree) != 3 {
		t.Fatalf("star: tree = %d edges, want 3", len(tree))
	}
	center := g.NodeOf("a")
	for _, e := range tree {
		if e.X != center && e.Y != center {
			t.Errorf("edge %s - %s misses the center", e.X.Name(), e.Y.Name())
		}
	}
}

// TestEquivalenceClasses: a.k, b.l, c.id and d.k are one class through
// transitivity, so every tree edge compares two of them, whichever pairs the
// query's predicates name.
func TestEquivalenceClasses(t *testing.T) {
	_, tree := joinTree(t, abcdSource(t), `SELECT a.id FROM a AS a, b AS b, c AS c, d AS d
		WHERE a.k = b.l AND b.l = c.id AND c.id = d.k AND d.k = a.k`)
	if len(tree) != 3 {
		t.Fatalf("one-class square: tree = %d edges, want 3", len(tree))
	}
	class := map[string]bool{"a.k": true, "b.l": true, "c.id": true, "d.k": true}
	for _, e := range tree {
		if len(e.Preds) != 1 {
			t.Errorf("edge %s - %s: %v, want one predicate", e.X.Name(), e.Y.Name(), e.Preds)
		}
		for _, p := range e.Preds {
			if !class[p.LeftRel+"."+p.LeftCol] || !class[p.RightRel+"."+p.RightCol] {
				t.Errorf("predicate %s leaves the class", p)
			}
		}
	}
}

// TestSharedClassesOnTreeEdges: a tree edge compares every class its ends
// share.
func TestSharedClassesOnTreeEdges(t *testing.T) {
	_, tree := joinTree(t, abcdSource(t), `SELECT a.id FROM a AS a, b AS b WHERE a.k = b.k AND a.l = b.l`)
	if len(tree) != 1 || len(tree[0].Preds) != 2 {
		t.Fatalf("tree = %v, want one edge with both predicates", tree)
	}
}

// TestJoinTreeEnforcesTwoAttributesOfOneClass: a.k and a.l fall into one
// class (a.k = b.k = c.k = a.l), so the join requires a.k = a.l although no
// predicate says so directly. The tree edge at a must compare both of a's
// attributes, whether a hangs off another node (a first in FROM order) or
// another node hangs off a (a last, and the smallest).
func TestJoinTreeEnforcesTwoAttributesOfOneClass(t *testing.T) {
	cols := []catalog.Column{intCol("id"), intCol("k"), intCol("l")}
	src := memSource{
		// a2 has k = 1 but l = 2: it joins b and c on k, but not on l.
		"a": mkTable(t, "a", cols, ir(1, 1, 1), ir(2, 1, 2), ir(3, 2, 2)),
		"b": mkTable(t, "b", cols, ir(1, 1, 0), ir(2, 2, 0), ir(3, 3, 0), ir(4, 4, 0)),
		"c": mkTable(t, "c", cols, ir(1, 1, 0), ir(2, 2, 0), ir(3, 5, 0), ir(4, 6, 0)),
	}
	for _, from := range []string{"a AS a, b AS b, c AS c", "b AS b, c AS c, a AS a"} {
		sql := "SELECT a.id, b.id, c.id FROM " + from + " WHERE a.k = b.k AND b.k = c.k AND c.k = a.l"
		spec, rels := analyze(t, src, sql)
		out, st, err := SemiJoinReduce(bare, spec, rels, nil, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cyclic || st.Folds != 0 || st.ImpliedEdgesDropped != 1 {
			t.Errorf("%s: %s, want cyclic, no folds, one edge dropped", from, st)
		}
		if got := renderSorted(out["a"].Distinct(0)); len(got) != 2 {
			t.Errorf("%s: a reduced to %v, want rows 1 and 3", from, got)
		}
		assertReduceMatchesDecompose(t, src, sql)
	}
}

// paperSelfJoinSrc: the paper example's customers (id, state; NY = 0,
// CA = 1) and orders (cid, pid).
func paperSelfJoinSrc(t *testing.T) memSource {
	t.Helper()
	return memSource{
		"customers": mkTable(t, "customers", []catalog.Column{intCol("id"), intCol("state")},
			ir(0, 0), ir(1, 1), ir(2, 0)),
		"orders": mkTable(t, "orders", []catalog.Column{intCol("cid"), intCol("pid")},
			ir(0, 1), ir(1, 1), ir(1, 2), ir(2, 1), ir(0, 2), ir(1, 3)),
	}
}

// paperSelfJoin is JG-cyclic but α-acyclic: a.id, b.id, oa.cid and ob.cid
// are one class.
const paperSelfJoin = `
SELECT a.id, b.id FROM customers AS a, customers AS b, orders AS oa, orders AS ob
WHERE a.id = oa.cid AND b.id = ob.cid AND oa.pid = ob.pid AND a.id = b.id`

// TestAlphaReduceSkipsFolding: with AlphaReduce, the same-class triangle and
// the paper example's self-join run without folds and still match the
// Decompose oracle; without it, folding happens and the results agree
// anyway.
func TestAlphaReduceSkipsFolding(t *testing.T) {
	for _, c := range []struct {
		name    string
		src     memSource
		sql     string
		outputs []string
		aIDs    []int64 // the ids a reduces to
	}{
		// a{1,2}, b{1,2}, c{1}: only k=1 joins all three.
		{"same-class triangle", sameClassTriangleSrc(t), sameClassTriangle, []string{"a", "b", "c"}, []int64{1}},
		// Every customer has an order.
		{"paper self-join", paperSelfJoinSrc(t), paperSelfJoin, []string{"a", "b"}, []int64{0, 1, 2}},
	} {
		spec, rels := analyze(t, c.src, c.sql)
		outWith, stWith, err := SemiJoinReduce(bare, spec, rels, nil, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !stWith.Cyclic || stWith.Folds != 0 || stWith.ImpliedEdgesDropped != 1 {
			t.Errorf("%s: alpha path: %s, want cyclic, no folds, one edge dropped", c.name, stWith)
		}

		spec2, rels2 := analyze(t, c.src, c.sql)
		without := DefaultOptions()
		without.AlphaReduce = false
		outWithout, stWithout, err := SemiJoinReduce(bare, spec2, rels2, nil, without)
		if err != nil {
			t.Fatal(err)
		}
		if stWithout.Folds == 0 {
			t.Errorf("%s: non-alpha path should have folded", c.name)
		}
		for _, alias := range c.outputs {
			if !sameRelation(outWith[alias].Distinct(0), outWithout[alias].Distinct(0)) {
				t.Errorf("%s: relation %s differs between alpha and fold paths", c.name, alias)
			}
		}
		assertReduceMatchesDecompose(t, c.src, c.sql)
		var ids []int64
		for _, row := range outWith["a"].Vec.Rows() {
			ids = append(ids, row[0].Int())
		}
		if !slices.Equal(ids, c.aIDs) {
			t.Errorf("%s: a reduced to %v, want ids %v", c.name, outWith["a"].Vec.Rows(), c.aIDs)
		}
	}
}

// TestAlphaReduceTransitiveChainWithShortcut: a 4-chain plus a shortcut
// a.k = d.k (all one class) — the join tree has one edge fewer than the
// join graph.
func TestAlphaReduceTransitiveChainWithShortcut(t *testing.T) {
	const sql = `SELECT a.id, d.id FROM a AS a, b AS b, c AS c, d AS d
		WHERE a.k = b.k AND b.k = c.k AND c.k = d.k AND a.k = d.k`
	spec, rels := analyze(t, abcdSource(t), sql)
	_, st, err := SemiJoinReduce(bare, spec, rels, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cyclic || st.ImpliedEdgesDropped != 1 || st.Folds != 0 {
		t.Errorf("%s; want the shortcut removed and no folds", st)
	}
}

// TestStatsStringIncludesAlpha covers the stats rendering.
func TestStatsStringIncludesAlpha(t *testing.T) {
	st := &Stats{ImpliedEdgesDropped: 2}
	if !strings.Contains(st.String(), "implied-edges-dropped=2") {
		t.Errorf("stats = %q", st.String())
	}
}
