package core

import (
	"strings"

	"resultdb/internal/engine"
	"resultdb/internal/hypergraph"
)

// alphaJoinTree is the α-acyclicity test the paper trades for the cheaper
// JG-acyclicity (Section 4.1) and leaves to future work (Section 7(1)): the
// GYO (Graham/Yu–Özsoyoğlu) reduction over the query's attribute classes. A
// JG-cyclic query can be α-acyclic — a triangle of predicates over one
// attribute class is the canonical example — and its join tree then lets
// Algorithm 2 run without the expensive folding step.
//
// The join attributes of g's predicates fall into classes under the
// predicates' equalities, and each node's hyperedge is the set of classes
// its attributes belong to. hypergraph.GYO reduces that hypergraph over the
// node ordinals (FROM order), weighted by row count: an ear hangs off the
// containing node with the fewest rows, since the parent is the source of
// the ear's top-down semi-join and a small one prunes the most.
//
// Each tree edge equates, per shared class, every attribute the child holds
// in it with the parent's first one, and the child's first with each further
// parent attribute, so a relation holding two attributes of one class still
// enforces their equality. The tree's edges run child (X) to parent (Y) in
// removal order. It returns nil when g is α-cyclic or disconnected. Nothing
// here iterates a map, so the tree is the same on every run.
func alphaJoinTree(g *Graph) []*Edge {
	idx := make(map[*Node]int, len(g.Nodes))
	for i, nd := range g.Nodes {
		idx[nd] = i
	}
	// The join attributes in order of first appearance, under a union-find
	// whose root is always a class's earliest attribute.
	type attr struct {
		node     int
		rel, col string
	}
	type attrKey struct {
		node int
		col  string
	}
	var attrs []attr
	var parent []int
	ids := map[attrKey]int{}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	add := func(node int, rel, col string) int {
		k := attrKey{node, strings.ToLower(col)}
		if i, ok := ids[k]; ok {
			return find(i)
		}
		ids[k] = len(attrs)
		attrs = append(attrs, attr{node, rel, col})
		parent = append(parent, len(parent))
		return len(parent) - 1
	}
	for _, e := range g.Edges {
		x, y := idx[e.X], idx[e.Y]
		for _, p := range e.Preds {
			a, b := add(x, p.LeftRel, p.LeftCol), add(y, p.RightRel, p.RightCol)
			parent[max(a, b)] = min(a, b)
		}
	}
	// Number the classes by their earliest attribute; holds[v][c] marks node
	// v's hyperedge.
	class := make([]int, len(attrs))
	k := 0
	for i := range attrs {
		if r := find(i); r == i {
			class[i] = k
			k++
		} else {
			class[i] = class[r]
		}
	}
	holds := make([][]bool, len(g.Nodes))
	for v := range holds {
		holds[v] = make([]bool, k)
	}
	for i, a := range attrs {
		holds[a.node][class[i]] = true
	}

	weight := make([]int, len(g.Nodes))
	for v, nd := range g.Nodes {
		weight[v] = nd.Rel.Len()
	}
	ears, ok := hypergraph.GYO(holds, weight)
	if !ok {
		return nil
	}
	eq := func(a, b attr) engine.JoinPred {
		return engine.JoinPred{LeftRel: a.rel, LeftCol: a.col, RightRel: b.rel, RightCol: b.col}
	}
	tree := make([]*Edge, 0, len(ears))
	for _, ear := range ears {
		v, p := ear.Node, ear.Parent
		e := &Edge{X: g.Nodes[v], Y: g.Nodes[p]}
		for _, c := range ear.Shared {
			var cv, cp []attr
			for i, a := range attrs {
				switch {
				case class[i] != c:
				case a.node == v:
					cv = append(cv, a)
				case a.node == p:
					cp = append(cp, a)
				}
			}
			for _, a := range cv {
				e.Preds = append(e.Preds, eq(a, cp[0]))
			}
			for _, b := range cp[1:] {
				e.Preds = append(e.Preds, eq(cv[0], b))
			}
		}
		tree = append(tree, e)
	}
	return tree
}
