package hypergraph

import (
	"reflect"
	"testing"
)

// hyper builds a hypergraph over k vertices from each node's vertex list.
func hyper(k int, nodes ...[]int) [][]bool {
	holds := make([][]bool, len(nodes))
	for v, cs := range nodes {
		holds[v] = make([]bool, k)
		for _, c := range cs {
			holds[v][c] = true
		}
	}
	return holds
}

// TestTriangleSameAttributeIsAlphaAcyclic: the paper's motivating gap. Three
// relations joined pairwise on ONE attribute class are JG-cyclic but
// α-acyclic: every node holds the one vertex, so two of them are ears of the
// third.
func TestTriangleSameAttributeIsAlphaAcyclic(t *testing.T) {
	holds := hyper(1, []int{0}, []int{0}, []int{0})
	ears, ok := GYO(holds, []int{5, 5, 2})
	if !ok {
		t.Fatal("same-vertex triangle must be α-acyclic")
	}
	want := []Ear{{Node: 0, Parent: 2, Shared: []int{0}}, {Node: 1, Parent: 2, Shared: []int{0}}}
	if !reflect.DeepEqual(ears, want) {
		t.Errorf("ears = %+v, want %+v", ears, want)
	}
	if !reflect.DeepEqual(holds, hyper(1, []int{0}, []int{0}, []int{0})) {
		t.Error("GYO modified its input")
	}
}

// TestTriangleDistinctAttributesIsCyclic: a genuine cycle — three relations
// pairwise joined on three DIFFERENT attribute classes — has no ear, and
// neither has the square on four.
func TestTriangleDistinctAttributesIsCyclic(t *testing.T) {
	for _, holds := range [][][]bool{
		hyper(3, []int{0, 2}, []int{0, 1}, []int{1, 2}),
		hyper(4, []int{0, 3}, []int{0, 1}, []int{1, 2}, []int{2, 3}),
	} {
		if ears, ok := GYO(holds, make([]int, len(holds))); ok || len(ears) != 0 {
			t.Errorf("%v: ok=%v ears=%+v, want cyclic with no ear", holds, ok, ears)
		}
	}
}

// TestEarHangsOffLightestContainer: of the live nodes containing an ear, the
// one of least weight is its parent, ties to the lower ordinal; a vertex only
// the ear holds is dropped first and so is not shared.
func TestEarHangsOffLightestContainer(t *testing.T) {
	// Node 0 holds {0, 1, 2}; 2 is its own. Nodes 1, 2 and 3 all hold {0, 1}.
	holds := hyper(3, []int{0, 1, 2}, []int{0, 1}, []int{0, 1}, []int{0, 1})
	ears, ok := GYO(holds, []int{9, 7, 3, 3})
	if !ok {
		t.Fatal("want α-acyclic")
	}
	want := []Ear{
		{Node: 0, Parent: 2, Shared: []int{0, 1}},
		{Node: 1, Parent: 2, Shared: []int{0, 1}},
		{Node: 2, Parent: 3, Shared: []int{0, 1}},
	}
	if !reflect.DeepEqual(ears, want) {
		t.Errorf("ears = %+v, want %+v", ears, want)
	}
}

// TestCrossProductHasNoJoinTree: a node sharing no vertex with the rest is
// no ear, so a disconnected hypergraph does not reduce to one node.
func TestCrossProductHasNoJoinTree(t *testing.T) {
	holds := hyper(2, []int{0}, []int{0}, []int{1})
	if ears, ok := GYO(holds, []int{1, 1, 1}); ok {
		t.Errorf("cross product reduced: %+v", ears)
	}
}
