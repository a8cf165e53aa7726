// Package hypergraph is the GYO (Graham/Yu–Özsoyoğlu) reduction: the
// α-acyclicity test the paper trades for the cheaper JG-acyclicity (Section
// 4.1) and leaves to future work (Section 7(1)).
//
// It knows nothing of queries. A hypergraph is given as which vertices each
// node holds; internal/core builds one per JG-cyclic query, a node per
// relation and a vertex per attribute class, and turns the ears into its
// join tree.
package hypergraph

import "slices"

// Ear is one removal of a GYO reduction: node Node, whose remaining vertices
// all lie in node Parent's, leaves the hypergraph as Parent's child in the
// join tree.
type Ear struct {
	Node, Parent int
	// Shared lists, ascending, the vertices Node still held when it left:
	// the ones it shares with Parent.
	Shared []int
}

// GYO reduces the hypergraph whose node v holds vertex c iff holds[v][c];
// every holds[v] has one mark per vertex. It
// repeats two steps until neither changes anything: drop every vertex that
// only one live node still holds, then sweep the live nodes in ordinal order
// and remove each ear — a node whose remaining vertices all lie in another
// live node's. An ear hangs off the containing live node of least weight,
// ties to the lower ordinal.
//
// It reports whether one node remains, that is whether the hypergraph is
// α-acyclic and connected, and returns the ears in removal order: a join
// tree of len(holds)-1 edges. A node with no vertex left is cut off from the
// rest (a cross product), so it is no ear. holds is not modified, and nothing
// here iterates a map, so the ears are the same on every run.
func GYO(holds [][]bool, weight []int) ([]Ear, bool) {
	n := len(holds)
	if n == 0 {
		return nil, true
	}
	k := len(holds[0])
	rest := make([][]bool, n)
	for v, hv := range holds {
		rest[v] = slices.Clone(hv)
	}
	live := make([]bool, n)
	for v := range live {
		live[v] = true
	}
	left := n
	// earParent returns the live node v hangs off, or -1 when v is no ear.
	earParent := func(v int) int {
		if !slices.Contains(rest[v], true) {
			return -1
		}
		best := -1
		for u := range rest {
			if u == v || !live[u] || !subset(rest[v], rest[u]) {
				continue
			}
			if best < 0 || weight[u] < weight[best] {
				best = u
			}
		}
		return best
	}
	count := make([]int, k)
	var ears []Ear
	for changed := true; changed && left > 1; {
		changed = false
		clear(count)
		for v, hv := range rest {
			for c, h := range hv {
				if h && live[v] {
					count[c]++
				}
			}
		}
		for v, hv := range rest {
			for c, h := range hv {
				if h && live[v] && count[c] == 1 {
					hv[c] = false
					changed = true
				}
			}
		}
		for v := range rest {
			if !live[v] || left == 1 {
				continue
			}
			p := earParent(v)
			if p < 0 {
				continue
			}
			ear := Ear{Node: v, Parent: p}
			for c, h := range rest[v] {
				if h {
					ear.Shared = append(ear.Shared, c)
				}
			}
			ears = append(ears, ear)
			live[v] = false
			left--
			changed = true
		}
	}
	return ears, left <= 1
}

// subset reports a ⊆ b over vertex marks.
func subset(a, b []bool) bool {
	for c, h := range a {
		if h && !b[c] {
			return false
		}
	}
	return true
}
