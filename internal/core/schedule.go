package core

import "strings"

// schedule is Algorithm 2's plan over node ordinals, the one structure the
// cost model and the executor both walk. It is built once per reduction,
// after folding: each edge's key columns resolved once (and, when planning
// with statistics, their base-table NDVs), the tree's adjacency and the
// projection marks. orient fills the part that depends on the root: the BFS
// steps, the early-stop marks and the cut-off. The cost model costs a
// candidate root by orienting to it and charging the steps to an estimated
// row array (simulate); ReduceRelations orients to the chosen root and runs
// the bottom-up and top-down passes from the same steps, so the plan the
// model costs is the plan that runs.
type schedule struct {
	nodes     []*Node
	edges     []schedEdge
	adj       [][]arc
	projected []bool
	projCount int
	earlyStop bool
	// withStats: the edges carry base NDVs and the plan is cost-based.
	withStats bool
	// live is each node's current row count; the executor updates it after
	// every reduction, and every estimate reads it or a copy of it.
	live []float64

	// From the root last passed to orient: the tree's edges in BFS order,
	// each directed parent -> child; needed marks the nodes whose subtree
	// holds a projected node (all of them without early stop); the top-down
	// pass stops at step cut, where every projected node is fully reduced
	// (len(steps) when it never stops early).
	steps  []step
	needed []bool
	cut    int

	// Scratch reused by every simulation, so costing a root allocates nothing.
	rows    []float64
	visited []bool
	queue   []int
	pending []int
	used    []bool
	reverse []int
	greedy  []int
	cands   []int
}

// schedEdge is one join-tree edge, indexed by side (0 = the edge's X): each
// endpoint's ordinal, its key columns and, with statistics, their base-table
// NDVs (0 = unknown).
type schedEdge struct {
	end  [2]int
	cols [2][]int
	ndv  [2][]float64
}

// arc is one direction of an edge in the adjacency lists.
type arc struct{ other, edge int }

// step is one tree edge directed away from the root.
type step struct{ parent, child, edge int }

// newSchedule builds the schedule of g's tree (the graph is acyclic, so its
// edges are the tree; a disconnected graph fails in orient).
func newSchedule(g *Graph, earlyStop bool) (*schedule, error) {
	n, ne := len(g.Nodes), len(g.Edges)
	s := &schedule{
		nodes:     g.Nodes,
		edges:     make([]schedEdge, ne),
		adj:       make([][]arc, n),
		projected: make([]bool, n),
		earlyStop: earlyStop,
		withStats: len(g.stats) > 0,
		live:      make([]float64, n),
		steps:     make([]step, 0, ne),
		needed:    make([]bool, n),
		rows:      make([]float64, n),
		visited:   make([]bool, n),
		queue:     make([]int, 0, n),
		pending:   make([]int, n),
		used:      make([]bool, ne),
		reverse:   make([]int, 0, ne),
		greedy:    make([]int, 0, ne),
		cands:     make([]int, 0, n),
	}
	idx := make(map[*Node]int, n)
	for i, nd := range g.Nodes {
		idx[nd] = i
		s.live[i] = float64(nd.Rel.Len())
		if g.Projected(nd) {
			s.projected[i] = true
			s.projCount++
		}
	}
	for k, e := range g.Edges {
		xCols, yCols, err := edgeCols(e)
		if err != nil {
			return nil, err
		}
		se := &s.edges[k]
		se.end, se.cols = [2]int{idx[e.X], idx[e.Y]}, [2][]int{xCols, yCols}
		s.adj[se.end[0]] = append(s.adj[se.end[0]], arc{other: se.end[1], edge: k})
		s.adj[se.end[1]] = append(s.adj[se.end[1]], arc{other: se.end[0], edge: k})
		if !s.withStats {
			continue
		}
		for side, nd := range [2]*Node{e.X, e.Y} {
			se.ndv[side] = make([]float64, len(se.cols[side]))
			for j, c := range se.cols[side] {
				// The alias-qualified ColRef resolves across folds, whose
				// relations keep per-alias column provenance.
				cr := nd.Rel.Cols[c]
				se.ndv[side][j] = g.stats[strings.ToLower(cr.Rel)].NDV(cr.Name)
			}
		}
	}
	return s, nil
}

// heuristicRoot is step (0) of Algorithm 2 under the given strategy, as a
// node ordinal. The paper's heuristic prefers projected relations, then
// higher degree (Section 4.2); ties go to the earliest node in FROM-clause
// order, never to names.
func (s *schedule) heuristicRoot(strategy RootStrategy) int {
	if strategy == RootFirst {
		return 0
	}
	best := 0
	for i := range s.nodes {
		if p := s.projected[i]; strategy != RootMaxDegree && p != s.projected[best] {
			if p {
				best = i
			}
			continue
		}
		if len(s.adj[i]) > len(s.adj[best]) {
			best = i
		}
	}
	return best
}

// orient directs the tree away from root in breadth-first order (the step
// before (1) in Algorithm 2) and, with early stop (Section 6.3), marks the
// subtrees holding a projected node and finds the cut-off. It reports false
// when root does not reach every node (a cross product).
func (s *schedule) orient(root int) bool {
	clear(s.visited)
	s.visited[root] = true
	s.queue, s.steps = append(s.queue[:0], root), s.steps[:0]
	for qi := 0; qi < len(s.queue); qi++ {
		n := s.queue[qi]
		for _, a := range s.adj[n] {
			if !s.visited[a.other] {
				s.visited[a.other] = true
				s.steps = append(s.steps, step{parent: n, child: a.other, edge: a.edge})
				s.queue = append(s.queue, a.other)
			}
		}
	}
	if len(s.queue) != len(s.nodes) {
		return false
	}
	s.cut = len(s.steps)
	if !s.earlyStop {
		for i := range s.needed {
			s.needed[i] = true
		}
		return true
	}
	// Children follow their parents in BFS order: walking the steps
	// backwards carries the marks from the leaves to the root.
	copy(s.needed, s.projected)
	for i := len(s.steps) - 1; i >= 0; i-- {
		if st := s.steps[i]; s.needed[st.child] {
			s.needed[st.parent] = true
		}
	}
	remaining := s.projCount
	if s.projected[root] {
		remaining--
	}
	for i, st := range s.steps {
		if remaining == 0 {
			s.cut = i
			break
		}
		if s.projected[st.child] {
			remaining--
		}
	}
	return true
}

// ends resolves step i's semi-join: the target and source ordinals, the edge
// and the target's side of it. The parent is the target bottom-up (up), the
// child top-down.
func (s *schedule) ends(i int, up bool) (t, src int, e *schedEdge, side int) {
	st := s.steps[i]
	t, src = st.parent, st.child
	if !up {
		t, src = src, t
	}
	e = &s.edges[st.edge]
	if e.end[0] != t {
		side = 1
	}
	return t, src, e, side
}

// reverseOrder lists the steps leaves first: reverse BFS order, the
// heuristic's bottom-up pass.
func (s *schedule) reverseOrder() []int {
	s.reverse = s.reverse[:0]
	for i := len(s.steps) - 1; i >= 0; i-- {
		s.reverse = append(s.reverse, i)
	}
	return s.reverse
}
