// Package core implements the paper's contribution: computing a result
// subdatabase (SELECT RESULTDB) natively inside the DBMS.
//
// It provides the join graph model (Section 4.1), the Yannakakis-based
// reduction for acyclic topologies (Section 4.2, Algorithm 2), the
// cyclic-to-acyclic folding transformation (Section 4.3, Algorithm 3), the
// complete RESULTDB-SEMIJOIN algorithm (Section 4.4, Algorithm 4), the
// Decompose operator used as the single-table baseline (Section 6.3), and
// the post-join reconstruction of Definition 2.3.
package core

import (
	"fmt"
	"sort"
	"strings"

	"resultdb/internal/engine"
	"resultdb/internal/stats"
)

// Node is one vertex of a join graph. Initially it wraps a single filtered
// base relation; after folding it may contain several (Section 4.3).
type Node struct {
	// Aliases lists the base relation instances contained in this node.
	// len(Aliases) > 1 marks a fold.
	Aliases []string
	// Rel holds the node's tuples with alias-qualified columns, so join
	// predicates stay resolvable across folds.
	Rel *engine.Relation
}

// IsFold reports whether the node is the join of multiple base relations.
func (n *Node) IsFold() bool { return len(n.Aliases) > 1 }

// Contains reports whether the node contains the base relation alias.
func (n *Node) Contains(alias string) bool {
	for _, a := range n.Aliases {
		if strings.EqualFold(a, alias) {
			return true
		}
	}
	return false
}

// Name renders the node for logs and tests, e.g. "t⋈u" for a fold.
func (n *Node) Name() string { return strings.Join(n.Aliases, "⋈") }

// Edge is one join between two nodes. Preds lists the (possibly conjunctive,
// after folding) equi predicates; each predicate's Left side resolves inside
// X and Right side inside Y.
type Edge struct {
	X, Y  *Node
	Preds []engine.JoinPred
}

// Other returns the opposite endpoint of n.
func (e *Edge) Other(n *Node) *Node {
	if e.X == n {
		return e.Y
	}
	return e.X
}

// Graph is an undirected join graph JG_Q = (R, J) (Section 4.1): nodes are
// relations, edges are joins. Conjunctive predicates between the same node
// pair form a single edge, matching the paper's edge-counting acyclicity
// test.
type Graph struct {
	Nodes []*Node
	Edges []*Edge
	// projected marks output aliases (those with projection attributes),
	// consulted by the root heuristic and the early-stop optimization.
	projected map[string]bool
	// stats maps lower-cased aliases to their base tables' statistics
	// (SemiJoinReduce takes them from its executor). With them reduction is
	// planned by the cost model; nil plans by the paper's heuristics.
	stats map[string]*stats.Table
}

// BuildGraph constructs the join graph of an analyzed SPJ query from the
// per-alias filtered base relations (keyed by lower-cased alias). outputs
// lists the aliases that must end up fully reduced — the projected relations
// for Definition 2.2, or every relation with non-empty A_i* for
// Definition 2.3. The root heuristic and the early-stop optimization both
// key off this set.
func BuildGraph(spec *engine.SPJSpec, rels map[string]*engine.Relation, outputs []string) (*Graph, error) {
	g := &Graph{projected: make(map[string]bool)}
	byAlias := make(map[string]*Node, len(spec.Rels))
	for _, r := range spec.Rels {
		key := strings.ToLower(r.Alias)
		rel, ok := rels[key]
		if !ok {
			return nil, fmt.Errorf("core: missing relation for alias %q", r.Alias)
		}
		n := &Node{Aliases: []string{r.Alias}, Rel: rel}
		byAlias[key] = n
		g.Nodes = append(g.Nodes, n)
	}
	if outputs == nil {
		outputs = spec.OutputRels()
	}
	for _, alias := range outputs {
		g.projected[strings.ToLower(alias)] = true
	}
	// Merge all predicates between the same node pair into one edge.
	type pairKey struct{ a, b string }
	edgeOf := make(map[pairKey]*Edge)
	for _, jp := range spec.JoinPreds {
		l, r := strings.ToLower(jp.LeftRel), strings.ToLower(jp.RightRel)
		x, ok := byAlias[l]
		if !ok {
			return nil, fmt.Errorf("core: join predicate references unknown alias %q", jp.LeftRel)
		}
		y, ok := byAlias[r]
		if !ok {
			return nil, fmt.Errorf("core: join predicate references unknown alias %q", jp.RightRel)
		}
		key := pairKey{l, r}
		rev := false
		if l > r {
			key = pairKey{r, l}
			rev = true
		}
		e, ok := edgeOf[key]
		if !ok {
			if rev {
				e = &Edge{X: y, Y: x}
			} else {
				e = &Edge{X: x, Y: y}
			}
			edgeOf[key] = e
			g.Edges = append(g.Edges, e)
		}
		p := jp
		if e.X != x {
			p = jp.Reverse()
		}
		e.Preds = append(e.Preds, p)
	}
	return g, nil
}

// NodeOf returns the node currently containing alias, or nil.
func (g *Graph) NodeOf(alias string) *Node {
	for _, n := range g.Nodes {
		if n.Contains(alias) {
			return n
		}
	}
	return nil
}

// Degree returns the number of edges incident to n.
func (g *Graph) Degree(n *Node) int {
	d := 0
	for _, e := range g.Edges {
		if e.X == n || e.Y == n {
			d++
		}
	}
	return d
}

// EdgesOf returns the edges incident to n.
func (g *Graph) EdgesOf(n *Node) []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.X == n || e.Y == n {
			out = append(out, e)
		}
	}
	return out
}

// Components returns the number of connected components.
func (g *Graph) Components() int {
	if len(g.Nodes) == 0 {
		return 0
	}
	idx := make(map[*Node]int, len(g.Nodes))
	for i, n := range g.Nodes {
		idx[n] = i
	}
	parent := make([]int, len(g.Nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.Edges {
		a, b := find(idx[e.X]), find(idx[e.Y])
		if a != b {
			parent[a] = b
		}
	}
	comps := map[int]bool{}
	for i := range g.Nodes {
		comps[find(i)] = true
	}
	return len(comps)
}

// IsCyclic implements JG-cyclicity (Definition 4.2 and the paper's test):
// a connected join graph is cyclic iff #joins >= #relations. Disconnected
// graphs (cross products) generalize via the forest bound
// #edges > #nodes - #components.
func (g *Graph) IsCyclic() bool {
	return len(g.Edges) > len(g.Nodes)-g.Components()
}

// Projected reports whether the node contains at least one output alias.
func (g *Graph) Projected(n *Node) bool {
	for _, a := range n.Aliases {
		if g.projected[strings.ToLower(a)] {
			return true
		}
	}
	return false
}

// resolvePred maps a predicate side to column positions inside a node.
func resolvePreds(n *Node, attrs []engine.Attr) ([]int, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		idx, err := n.Rel.ColIndex(a.Rel, a.Col)
		if err != nil {
			return nil, fmt.Errorf("core: node %s: %w", n.Name(), err)
		}
		cols[i] = idx
	}
	return cols, nil
}

// edgeCols resolves an edge's predicate columns in both endpoint nodes.
func edgeCols(e *Edge) (xCols, yCols []int, err error) {
	xa := make([]engine.Attr, len(e.Preds))
	ya := make([]engine.Attr, len(e.Preds))
	for i, p := range e.Preds {
		xa[i] = engine.Attr{Rel: p.LeftRel, Col: p.LeftCol}
		ya[i] = engine.Attr{Rel: p.RightRel, Col: p.RightCol}
	}
	xCols, err = resolvePreds(e.X, xa)
	if err != nil {
		return nil, nil, err
	}
	yCols, err = resolvePreds(e.Y, ya)
	if err != nil {
		return nil, nil, err
	}
	return xCols, yCols, nil
}

// sortNodesDeterministic orders candidate nodes by the criterion, breaking
// ties by the nodes' ordinal position in the input slice (callers pass
// g.Nodes copies, so ties resolve to FROM-clause order). The sort is stable
// and never consults names or map iteration order, so heuristic choices are
// reproducible across runs and independent of alias spelling.
func sortNodesDeterministic(nodes []*Node, better func(a, b *Node) bool) {
	sort.SliceStable(nodes, func(i, j int) bool {
		return better(nodes[i], nodes[j]) && !better(nodes[j], nodes[i])
	})
}
