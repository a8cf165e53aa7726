package core

import (
	"fmt"

	"resultdb/internal/engine"
	"resultdb/internal/trace"
)

// FoldStrategy selects which nodes to fold when breaking cycles (the paper's
// Tree Folding Enumeration Problem, Section 4.3).
type FoldStrategy uint8

const (
	// FoldMaxDegree is the paper's heuristic: fold the two neighboring
	// nodes with the highest degrees (high-degree nodes are most likely to
	// sit on cycles, so fewer folds are needed).
	FoldMaxDegree FoldStrategy = iota
	// FoldFirst folds the first edge found (a naive baseline for
	// ablations, standing in for the paper's "random" choice while staying
	// deterministic).
	FoldFirst
	// FoldMinCard folds the pair with the smallest joint cardinality
	// estimate (|X| * |Y|), an extension beyond the paper's heuristic.
	FoldMinCard
)

// FoldJoinGraph is Algorithm 3: repeatedly replace two adjacent nodes by
// their join until the graph is acyclic. It mutates g in place.
//
// Lemma 4.3 guarantees termination and result preservation: each fold
// removes one node and at least one edge, and joining adjacent relations
// never changes the overall join result (associativity).
//
// Each fold join runs at ex's degree and records one span on ex's tracer.
func FoldJoinGraph(ex *engine.Executor, g *Graph, strategy FoldStrategy, st *Stats) error {
	tr := ex.Tracer
	for g.IsCyclic() {
		x, y, err := chooseFoldPair(g, strategy)
		if err != nil {
			return err
		}
		xn, yn := x.Name(), y.Name()
		xr, yr := x.Rel.Len(), y.Rel.Len()
		var sp *trace.Span
		if tr.Enabled() {
			sp = tr.Span("fold", xn+" ⋈ "+yn)
			sp.Phase = "fold"
			sp.RowsIn = xr
			sp.RowsBuild = yr
		}
		if err := foldPair(g, x, y, ex, sp); err != nil {
			return err
		}
		st.Folds++
		z := g.Nodes[len(g.Nodes)-1]
		if sp != nil {
			sp.RowsOut = z.Rel.Len()
		}
	}
	return nil
}

// chooseFoldPair picks node x and neighbor y per the strategy.
func chooseFoldPair(g *Graph, strategy FoldStrategy) (*Node, *Node, error) {
	if len(g.Edges) == 0 {
		return nil, nil, fmt.Errorf("core: cyclic graph without edges (bug)")
	}
	switch strategy {
	case FoldFirst:
		e := g.Edges[0]
		return e.X, e.Y, nil
	case FoldMinCard:
		best := g.Edges[0]
		bestCard := cardProduct(best)
		for _, e := range g.Edges[1:] {
			if c := cardProduct(e); c < bestCard {
				best, bestCard = e, c
			}
		}
		return best.X, best.Y, nil
	default: // FoldMaxDegree
		// x := the highest-degree node that has at least one neighbor;
		// degree ties break towards smaller relations so the fold join
		// stays cheap.
		candidates := append([]*Node(nil), g.Nodes...)
		sortNodesDeterministic(candidates, func(a, b *Node) bool {
			da, db := g.Degree(a), g.Degree(b)
			if da != db {
				return da > db
			}
			return a.Rel.Len() < b.Rel.Len()
		})
		for _, x := range candidates {
			edges := g.EdgesOf(x)
			if len(edges) == 0 {
				continue
			}
			// y := x's highest-degree neighbor, ties towards the smaller
			// estimated fold size |x| * |y|.
			var y *Node
			yDeg := -1
			for _, e := range edges {
				o := e.Other(x)
				d := g.Degree(o)
				switch {
				case d > yDeg:
					y, yDeg = o, d
				case d == yDeg && y != nil && o.Rel.Len() < y.Rel.Len():
					y = o
				case d == yDeg && y != nil && o.Rel.Len() == y.Rel.Len() && o.Name() < y.Name():
					y = o
				}
			}
			return x, y, nil
		}
		return nil, nil, fmt.Errorf("core: no foldable pair found (bug)")
	}
}

func cardProduct(e *Edge) int {
	return e.X.Rel.Len() * e.Y.Rel.Len()
}

// foldPair replaces x and y by the node x ⋈ y, re-pointing and merging all
// affected edges (line 5 of Algorithm 3). The fold join runs at ex's run
// with deterministic ordered output, recording its build/probe timings on sp
// (nil = no tracing).
func foldPair(g *Graph, x, y *Node, ex *engine.Executor, sp *trace.Span) error {
	// Join x and y on the conjunction of all predicates between them.
	var between *Edge
	for _, e := range g.Edges {
		if e.X == x && e.Y == y || e.X == y && e.Y == x {
			between = e
			break
		}
	}
	if between == nil {
		return fmt.Errorf("core: fold pair %s, %s not adjacent", x.Name(), y.Name())
	}
	xCols, yCols, err := edgeCols(between)
	if err != nil {
		return err
	}
	if between.X != x {
		xCols, yCols = yCols, xCols
	}
	joined := engine.HashJoin(x.Rel, y.Rel, xCols, yCols, ex.Run, sp)
	z := &Node{
		Aliases: append(append([]string(nil), x.Aliases...), y.Aliases...),
		Rel:     joined,
	}

	// Rebuild the node and edge lists: drop x,y; re-point other edges to z,
	// merging parallel edges into conjunctions.
	var nodes []*Node
	for _, n := range g.Nodes {
		if n != x && n != y {
			nodes = append(nodes, n)
		}
	}
	nodes = append(nodes, z)

	merged := make(map[*Node]*Edge)
	var edges []*Edge
	for _, e := range g.Edges {
		touchesX, touchesY := e.X == x || e.Y == x, e.X == y || e.Y == y
		if touchesX && touchesY {
			continue // the folded edge disappears
		}
		if !touchesX && !touchesY {
			edges = append(edges, e)
			continue
		}
		// Normalize so z is the X side.
		other := e.Other(x)
		preds := e.Preds
		if touchesY {
			other = e.Other(y)
		}
		if e.X == other {
			// predicates have `other` on the Left; flip them so z is Left.
			flipped := make([]engine.JoinPred, len(preds))
			for i, p := range preds {
				flipped[i] = p.Reverse()
			}
			preds = flipped
		}
		if exist, ok := merged[other]; ok {
			exist.Preds = append(exist.Preds, preds...)
			continue
		}
		ne := &Edge{X: z, Y: other, Preds: append([]engine.JoinPred(nil), preds...)}
		merged[other] = ne
		edges = append(edges, ne)
	}
	g.Nodes = nodes
	g.Edges = edges
	return nil
}
