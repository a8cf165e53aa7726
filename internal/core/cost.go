package core

import (
	"sort"

	"resultdb/internal/stats"
)

// This file is the cost model behind a graph with statistics (Graph.stats,
// the executor's AliasStats): the containment model (internal/stats: KeyNDV,
// SemiJoinSel) charged along the reduction schedule, driving two planning
// decisions — root selection (the paper's open Root Node Enumeration
// Problem, Section 4.2) and the order of the bottom-up semi-join pass. Every
// decision changes only the plan; the executed operators are exact, so
// results stay byte-identical to the heuristic path.

const (
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

// sel estimates the fraction of step i's target that survives its
// semi-join, given per-node row counts rows.
func (s *schedule) sel(rows []float64, i int, up bool) float64 {
	t, src, e, side := s.ends(i, up)
	return stats.SemiJoinSel(stats.KeyNDV(rows[t], e.ndv[side]...), stats.KeyNDV(rows[src], e.ndv[1-side]...))
}

// charge adds step i's semi-join to a simulation over rows: it returns the
// step's work (probe plus build rows) and shrinks the target by its
// estimated selectivity.
func (s *schedule) charge(rows []float64, i int, up bool) float64 {
	st := s.steps[i]
	work := rows[st.parent] + rows[st.child]
	t, _, _, _ := s.ends(i, up)
	rows[t] *= s.sel(rows, i, up)
	return work
}

// upCost charges the bottom-up pass in the given step order.
func (s *schedule) upCost(rows []float64, order []int) float64 {
	cost := 0.0
	for _, i := range order {
		cost += s.charge(rows, i, true)
	}
	return cost
}

// simulate orients the schedule from root and returns the estimated work of
// both passes — Σ (build + probe rows) over every step that runs, early stop
// included — from the live row counts. Once the schedule is built it
// allocates nothing: planning overhead must stay well under the runtime of
// the smallest real query. ok is false when root does not reach every node.
func (s *schedule) simulate(root int) (float64, bool) {
	if !s.orient(root) {
		return 0, false
	}
	copy(s.rows, s.live)
	cost := s.upCost(s.rows, s.reverseOrder())
	for i := range s.steps[:s.cut] {
		if s.needed[s.steps[i].child] {
			cost += s.charge(s.rows, i, false)
		}
	}
	return cost, true
}

// candidates returns up to rootBeamWidth non-heuristic root ordinals: the
// largest nodes by current cardinality, in ordinal order (ties and the final
// slice keep g.Nodes order, so enumeration is deterministic).
func (s *schedule) candidates(heur int) []int {
	s.cands = s.cands[:0]
	for i := range s.nodes {
		if i != heur {
			s.cands = append(s.cands, i)
		}
	}
	if len(s.cands) > rootBeamWidth {
		// Selection by size with ordinal tie-break, then restore ordinal order.
		sort.SliceStable(s.cands, func(i, j int) bool {
			return s.live[s.cands[i]] > s.live[s.cands[j]]
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
func (s *schedule) chooseRootByCost(heur int) int {
	heurCost, ok := s.simulate(heur)
	if !ok {
		return heur
	}
	best, bestCost := heur, heurCost
	for _, c := range s.candidates(heur) {
		if cost, ok := s.simulate(c); ok && cost < bestCost {
			best, bestCost = c, cost
		}
	}
	if bestCost >= heurCost*rootSwitchFrac {
		return heur
	}
	return best
}

// bottomUp orders the bottom-up pass over the oriented steps: reverse BFS
// order, the heuristic's, unless statistics predict, from the live row
// counts, a clearly cheaper schedule that runs at each step the most
// selective ready step. A step (parent ⋉ child) is ready once every step
// below the child has run, so the child is fully reduced by its subtree —
// the classic Yannakakis invariant. Any such children-first linearization
// yields the identical fully-reduced relations (each node's final content
// depends only on its subtree, and semi-joins preserve target row order), so
// this is a pure cost decision with byte-identical output. Like simulate, it
// allocates nothing.
func (s *schedule) bottomUp() []int {
	reverse := s.reverseOrder()
	if !s.withStats || len(s.steps) <= 1 {
		return reverse
	}
	copy(s.rows, s.live)
	baseCost := s.upCost(s.rows, reverse)
	clear(s.pending)
	for _, st := range s.steps {
		s.pending[st.parent]++
	}
	clear(s.used)
	copy(s.rows, s.live)
	s.greedy = s.greedy[:0]
	greedyCost := 0.0
	for len(s.greedy) < len(s.steps) {
		// The deepest unused step is always ready. Scan from the end (the
		// reverse-BFS position the heuristic would run first), so ties keep
		// the heuristic order.
		best, bestSel := -1, 0.0
		for i := len(s.steps) - 1; i >= 0; i-- {
			if s.used[i] || s.pending[s.steps[i].child] > 0 {
				continue
			}
			if sel := s.sel(s.rows, i, true); best == -1 || sel < bestSel {
				best, bestSel = i, sel
			}
		}
		s.used[best] = true
		s.pending[s.steps[best].parent]--
		greedyCost += s.charge(s.rows, best, true)
		s.greedy = append(s.greedy, best)
	}
	// Hysteresis: keep the heuristic's reverse-BFS order unless the
	// most-selective-first schedule predicts a clearly cheaper pass.
	if greedyCost >= baseCost*orderSwitchFrac {
		return reverse
	}
	return s.greedy
}
