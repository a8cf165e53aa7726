package core

import (
	"math"
	"sort"
	"strings"

	"resultdb/internal/stats"
)

// This file is the cost model behind Options.TableStats: a thin estimator
// over per-table statistics and their containment model (internal/stats:
// KeyNDV, SemiJoinSel) that drives three planning
// decisions — root selection (the paper's open Root Node Enumeration
// Problem, Section 4.2), the order of the bottom-up semi-join pass, and the
// per-edge adaptive Bloom prefilter decision. Every decision changes only the
// plan; the executed operators are exact, so results stay byte-identical to
// the heuristic path.

const (
	// bloomMinTargetRows and bloomMaxSel gate the adaptive Bloom prefilter.
	// A Bloom probe costs about as much as the exact KeySet probe it fronts,
	// so the pass only pays when it empties most of a probe side too large
	// for the exact build to stay cache-resident — hence the aggressive
	// cardinality and selectivity bars. (Benchmarks at JOB scale 0.1 showed
	// a 6.5k-row drop via Bloom still losing to the exact pass alone.)
	bloomMinTargetRows = 32768
	bloomMaxSel        = 0.15
	// rootSwitchFrac and orderSwitchFrac are hysteresis: the cost model
	// replaces the heuristic root / reverse-BFS order only when the model
	// predicts a clear win. Estimates on small inputs are noisy, and a
	// misprediction there costs more than the marginal gain it chases.
	// The order bar is calibrated on JOB: schedules whose predicted saving
	// was under ~2-3% (20b at 0.977, 33c at 0.985) lost at execution, while
	// every real reorder win predicted at least ~5% (24a at 0.952, 12a at
	// 0.947, 15d at 0.873) — 0.965 sits in the gap.
	rootSwitchFrac  = 0.8
	orderSwitchFrac = 0.965
	// rootBeamWidth bounds root enumeration: besides the heuristic root,
	// only the largest nodes are simulated. Each simulation costs a BFS plus
	// O(edges) selectivity math, and on wide queries (JOB 33c joins 13
	// relations) enumerating every node costs more than the plan saves;
	// roots that beat the heuristic are in practice large central relations.
	rootBeamWidth = 4
)

// estimator holds the cost model's state: alias-keyed base-table statistics
// plus the current (actual, updated as the passes execute) per-node row
// counts. colNDV lazily caches each node's per-column base NDV (0 =
// unresolved, NaN = no statistics) so the hot sel/ndv path — called
// O(nodes·edges) times during root enumeration — resolves the alias+column
// stats lookup at most once per column, and only for columns that actually
// join; the zero-value sentinel keeps the cache a plain zeroed allocation.
// Nil estimator = heuristic mode; every entry point tolerates nil.
type estimator struct {
	stats  map[string]*stats.Table
	rows   map[*Node]float64
	colNDV map[*Node][]float64
}

// newEstimator returns an estimator over the graph's current relations, or
// nil when no statistics were provided (planning falls back to heuristics).
func newEstimator(g *Graph, tableStats map[string]*stats.Table) *estimator {
	if len(tableStats) == 0 {
		return nil
	}
	est := &estimator{
		stats:  tableStats,
		rows:   make(map[*Node]float64, len(g.Nodes)),
		colNDV: make(map[*Node][]float64, len(g.Nodes)),
	}
	for _, n := range g.Nodes {
		est.rows[n] = float64(n.Rel.Len())
		est.colNDV[n] = make([]float64, len(n.Rel.Cols))
	}
	return est
}

// baseNDV resolves (and caches) the base-table NDV of one column of n;
// any non-positive return (NaN) means no statistics for that column.
func (est *estimator) baseNDV(n *Node, c int) float64 {
	ndvs := est.colNDV[n]
	if ndvs[c] == 0 {
		ndvs[c] = math.NaN()
		// The alias-qualified ColRef resolves across folds, whose relations
		// keep per-alias column provenance.
		cr := n.Rel.Cols[c]
		if d := est.stats[strings.ToLower(cr.Rel)].NDV(cr.Name); d > 0 {
			ndvs[c] = d
		}
	}
	return ndvs[c]
}

// observe records a node's actual cardinality after an executed reduction,
// keeping later estimates anchored to reality.
func (est *estimator) observe(n *Node) {
	if est != nil {
		est.rows[n] = float64(n.Rel.Len())
	}
}

// ndv estimates the number of distinct keys of n over the key columns cols,
// given per-node row counts rows: stats.KeyNDV over the columns' base NDVs.
func (est *estimator) ndv(rows map[*Node]float64, n *Node, cols []int) float64 {
	var buf [4]float64
	base := buf[:0]
	for _, c := range cols {
		base = append(base, est.baseNDV(n, c))
	}
	return stats.KeyNDV(rows[n], base...)
}

// sel estimates the retained fraction of target under target ⋉ source along
// e (stats.SemiJoinSel). An empty source empties the target (sel 0).
func (est *estimator) sel(rows map[*Node]float64, target, source *Node, e *Edge) float64 {
	tCols, sCols, err := edgeColsFor(target, e)
	if err != nil {
		return 1
	}
	return est.selCols(rows, target, source, tCols, sCols)
}

// selCols is sel with the edge's columns already resolved (the planning
// loops resolve each edge once and reuse the slices; resolution allocates).
func (est *estimator) selCols(rows map[*Node]float64, target, source *Node, tCols, sCols []int) float64 {
	return stats.SemiJoinSel(est.ndv(rows, target, tCols), est.ndv(rows, source, sCols))
}

// liveSel is sel against the estimator's live (actual) row counts.
func (est *estimator) liveSel(target, source *Node, e *Edge) float64 {
	return est.sel(est.rows, target, source, e)
}

// bloomWorth decides whether an adaptive Bloom prefilter pays for the edge:
// the probe side must be large enough to amortize the build, and the
// estimated drop substantial enough that the (approximate) pass saves the
// exact pass real work.
func (est *estimator) bloomWorth(target, source *Node, e *Edge) bool {
	if target.Rel.Len() < bloomMinTargetRows {
		return false
	}
	return est.liveSel(target, source, e) <= bloomMaxSel
}

// bloomSize returns the expected distinct build-key count for sizing the
// filter (the fill factor depends on distinct insertions, not rows).
func (est *estimator) bloomSize(source *Node, e *Edge) int {
	// edgeColsFor(source, e) resolves source's own key columns first.
	sCols, _, err := edgeColsFor(source, e)
	if err != nil {
		return source.Rel.Len()
	}
	n := int(est.ndv(est.rows, source, sCols))
	if n < 1 {
		n = 1
	}
	return n
}

// simArc is one direction of a spanning-tree edge in the root simulator.
type simArc struct {
	other int // ordinal of the node across the edge
	edge  int // index into rootSim's per-edge arrays
}

// simStep is one directed edge of a simulated BFS orientation.
type simStep struct {
	parent, child int
	edge          int
	parentIsA     bool // parent is the edge's a-endpoint (column resolution)
}

// rootSim precomputes the join tree's structure over node ordinals —
// adjacency, per-edge key-column base NDVs, projection marks — and owns
// reusable scratch buffers, so simulating one candidate root is an
// allocation-free BFS plus O(edges) float math. Planning overhead must stay
// well under the runtime of the smallest real query, or planning with
// statistics loses on exactly the queries it cannot improve.
type rootSim struct {
	est       *estimator
	nodes     []*Node
	adj       [][]simArc
	base      []float64 // starting per-node cardinalities
	projected []bool
	projCount int
	// Per spanning-tree edge: base NDVs of the key columns on each endpoint
	// (a = the BFS parent side at construction). selErr marks edges whose
	// columns failed to resolve; their selectivity is 1, as in sel.
	edgeA      []int
	aNDV, bNDV [][]float64
	selErr     []bool
	// Scratch reused across candidate simulations.
	rows    []float64
	visited []bool
	queue   []int
	order   []simStep
	needed  []bool
	cands   []int
}

// newRootSim builds the simulator directly over g's edge list (the reduced
// graph is a tree, so the edges ARE the spanning tree; a disconnected graph
// just fails every candidate's connectivity check in simulate). ok is false
// only on an empty graph.
func newRootSim(g *Graph, est *estimator) (*rootSim, bool) {
	n := len(g.Nodes)
	if n == 0 {
		return nil, false
	}
	ne := len(g.Edges)
	s := &rootSim{
		est:       est,
		nodes:     g.Nodes,
		adj:       make([][]simArc, n),
		base:      make([]float64, n),
		projected: make([]bool, n),
		edgeA:     make([]int, 0, ne),
		aNDV:      make([][]float64, ne),
		bNDV:      make([][]float64, ne),
		selErr:    make([]bool, ne),
		rows:      make([]float64, n),
		visited:   make([]bool, n),
		queue:     make([]int, 0, n),
		order:     make([]simStep, 0, ne),
		needed:    make([]bool, n),
	}
	idx := make(map[*Node]int, n)
	for i, nd := range g.Nodes {
		idx[nd] = i
		s.base[i] = est.rows[nd]
		if g.Projected(nd) {
			s.projected[i] = true
			s.projCount++
		}
	}
	for _, e := range g.Edges {
		a, okA := idx[e.X]
		b, okB := idx[e.Y]
		if !okA || !okB {
			continue
		}
		k := len(s.edgeA)
		s.edgeA = append(s.edgeA, a)
		s.adj[a] = append(s.adj[a], simArc{other: b, edge: k})
		s.adj[b] = append(s.adj[b], simArc{other: a, edge: k})
		aCols, bCols, err := edgeColsFor(e.X, e)
		if err != nil {
			s.selErr[k] = true
			continue
		}
		s.aNDV[k] = ndvsOf(est, e.X, aCols)
		s.bNDV[k] = ndvsOf(est, e.Y, bCols)
	}
	return s, true
}

// ndvsOf prefetches the base NDVs (NaN = unknown) of a node's key columns.
func ndvsOf(est *estimator, n *Node, cols []int) []float64 {
	out := make([]float64, len(cols))
	for i, c := range cols {
		out[i] = est.baseNDV(n, c)
	}
	return out
}

// stepSel is the containment selectivity of target ⋉ source for one
// simulated step (parentTarget selects which endpoint is the target), over
// the prefetched base NDVs and the simulated cardinalities.
func (s *rootSim) stepSel(st simStep, parentTarget bool) float64 {
	if s.selErr[st.edge] {
		return 1
	}
	tNDV, sNDV := s.aNDV[st.edge], s.bNDV[st.edge]
	tIdx, sIdx := st.parent, st.child
	if !parentTarget {
		tIdx, sIdx = st.child, st.parent
	}
	if (st.parentIsA && !parentTarget) || (!st.parentIsA && parentTarget) {
		tNDV, sNDV = sNDV, tNDV
	}
	return stats.SemiJoinSel(stats.KeyNDV(s.rows[tIdx], tNDV...), stats.KeyNDV(s.rows[sIdx], sNDV...))
}

// simulate runs both reduction passes (including the early-stop schedule)
// from the given root ordinal and returns the estimated total semi-join
// work: Σ (build rows + probe rows) over every executed edge. ok is false
// when the tree is disconnected from root.
func (s *rootSim) simulate(root int, opts *Options) (float64, bool) {
	for i := range s.visited {
		s.visited[i] = false
	}
	s.queue, s.order = s.queue[:0], s.order[:0]
	s.visited[root] = true
	s.queue = append(s.queue, root)
	for qi := 0; qi < len(s.queue); qi++ {
		n := s.queue[qi]
		for _, arc := range s.adj[n] {
			if s.visited[arc.other] {
				continue
			}
			s.visited[arc.other] = true
			s.order = append(s.order, simStep{
				parent: n, child: arc.other, edge: arc.edge,
				parentIsA: s.edgeA[arc.edge] == n,
			})
			s.queue = append(s.queue, arc.other)
		}
	}
	if len(s.queue) != len(s.nodes) {
		return 0, false
	}
	copy(s.rows, s.base)
	cost := 0.0
	for i := len(s.order) - 1; i >= 0; i-- {
		st := s.order[i]
		cost += s.rows[st.parent] + s.rows[st.child]
		s.rows[st.parent] *= s.stepSel(st, true)
	}
	remaining := 0
	if opts.EarlyStop {
		copy(s.needed, s.projected)
		for i := len(s.order) - 1; i >= 0; i-- {
			if s.needed[s.order[i].child] {
				s.needed[s.order[i].parent] = true
			}
		}
		remaining = s.projCount
		if s.projected[root] {
			remaining--
		}
	}
	for _, st := range s.order {
		if opts.EarlyStop {
			if remaining == 0 {
				break
			}
			if !s.needed[st.child] {
				continue
			}
		}
		cost += s.rows[st.parent] + s.rows[st.child]
		s.rows[st.child] *= s.stepSel(st, false)
		if opts.EarlyStop && s.projected[st.child] {
			remaining--
		}
	}
	return cost, true
}

// candidates returns up to rootBeamWidth non-heuristic root ordinals: the
// largest nodes by current cardinality, in ordinal order (ties and the final
// slice keep g.Nodes order, so enumeration is deterministic).
func (s *rootSim) candidates(heur int) []int {
	s.cands = s.cands[:0]
	for i := range s.nodes {
		if i != heur {
			s.cands = append(s.cands, i)
		}
	}
	if len(s.cands) > rootBeamWidth {
		// Selection by size with ordinal tie-break, then restore ordinal order.
		sort.SliceStable(s.cands, func(i, j int) bool {
			return s.base[s.cands[i]] > s.base[s.cands[j]]
		})
		s.cands = s.cands[:rootBeamWidth]
		sort.Ints(s.cands)
	}
	return s.cands
}

// chooseRootByCost picks the root minimizing the simulated total semi-join
// work, but only deposes heur, the heuristic's choice, when the predicted
// saving clears rootSwitchFrac (estimates mispredict on small inputs, and the
// heuristic is already good). Candidates are tried in ordinal (g.Nodes)
// order and ties keep the earliest, so the choice is deterministic.
func chooseRootByCost(g *Graph, heur *Node, opts *Options, est *estimator) *Node {
	sim, ok := newRootSim(g, est)
	if !ok {
		return heur
	}
	heurIdx := -1
	for i, n := range g.Nodes {
		if n == heur {
			heurIdx = i
			break
		}
	}
	heurCost, ok := sim.simulate(heurIdx, opts)
	if !ok {
		return heur
	}
	bestIdx, bestCost := heurIdx, heurCost
	for _, ci := range sim.candidates(heurIdx) {
		c, ok := sim.simulate(ci, opts)
		if !ok {
			continue
		}
		if c < bestCost {
			bestIdx, bestCost = ci, c
		}
	}
	if bestCost >= heurCost*rootSwitchFrac {
		return heur
	}
	return g.Nodes[bestIdx]
}

// costOrderBottomUp orders the bottom-up pass: it returns the edges of order
// in execution order — reverse BFS order, the heuristic's, unless statistics
// (est non-nil) predict a clearly cheaper schedule that runs at each step the
// most selective ready edge. An edge (parent ⋉ child) is ready once every
// edge below the child has executed, so the child is fully reduced by its
// subtree — the classic Yannakakis invariant. Any such children-first
// linearization yields the identical fully-reduced relations (each node's
// final content depends only on its subtree, and semi-joins preserve target
// row order), so this is a pure cost decision with byte-identical output.
func costOrderBottomUp(order []bfsEdge, est *estimator) []bfsEdge {
	reverse := make([]bfsEdge, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		reverse = append(reverse, order[i])
	}
	if est == nil || len(order) <= 1 {
		return reverse
	}
	pending := make(map[*Node]int, len(order))
	for _, be := range order {
		pending[be.parent]++
	}
	rows := make(map[*Node]float64, len(est.rows))
	for k, v := range est.rows {
		rows[k] = v
	}
	// Resolve every edge's key columns once; the candidate scan below
	// re-estimates selectivity O(edges) times per scheduled edge.
	tCols := make([][]int, len(order))
	sCols := make([][]int, len(order))
	for i, be := range order {
		tc, sc, err := edgeColsFor(be.parent, be.edge)
		if err == nil {
			tCols[i], sCols[i] = tc, sc
		}
	}
	// Baseline: the reverse-BFS schedule's simulated probe+build cost.
	baseCost := 0.0
	for i := len(order) - 1; i >= 0; i-- {
		be := order[i]
		baseCost += rows[be.parent] + rows[be.child]
		if tCols[i] != nil {
			rows[be.parent] *= est.selCols(rows, be.parent, be.child, tCols[i], sCols[i])
		}
	}
	for k, v := range est.rows {
		rows[k] = v
	}
	used := make([]bool, len(order))
	schedule := make([]bfsEdge, 0, len(order))
	greedyCost := 0.0
	for len(schedule) < len(order) {
		bestIdx := -1
		bestSel := 0.0
		// Scan candidates from the end (the reverse-BFS position the
		// heuristic would run first), so ties keep the heuristic order.
		for i := len(order) - 1; i >= 0; i-- {
			if used[i] || pending[order[i].child] > 0 {
				continue
			}
			s := 1.0
			if tCols[i] != nil {
				s = est.selCols(rows, order[i].parent, order[i].child, tCols[i], sCols[i])
			}
			if bestIdx == -1 || s < bestSel {
				bestIdx, bestSel = i, s
			}
		}
		if bestIdx == -1 {
			// Cannot happen on a forest; bail to the remaining reverse-BFS
			// order rather than loop forever.
			for i := len(order) - 1; i >= 0; i-- {
				if !used[i] {
					schedule = append(schedule, order[i])
				}
			}
			return schedule
		}
		be := order[bestIdx]
		used[bestIdx] = true
		pending[be.parent]--
		greedyCost += rows[be.parent] + rows[be.child]
		rows[be.parent] *= bestSel
		schedule = append(schedule, be)
	}
	// Hysteresis: keep the heuristic's reverse-BFS order unless the
	// most-selective-first schedule predicts a clearly cheaper pass.
	if greedyCost >= baseCost*orderSwitchFrac {
		return reverse
	}
	return schedule
}
