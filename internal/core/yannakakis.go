package core

import (
	"errors"
	"fmt"
	"strings"

	"resultdb/internal/engine"
	"resultdb/internal/trace"
)

// ErrDisconnected reports a join graph whose relations are not all
// connected by join predicates (a cross product). Semi-join reduction
// cannot reduce across a cross product; callers fall back to the Decompose
// strategy.
var ErrDisconnected = errors.New("core: join graph is disconnected; cross products cannot be semi-join reduced")

// RootStrategy selects the root node for the Yannakakis passes (the paper's
// Root Node Enumeration Problem, Section 4.2).
type RootStrategy uint8

const (
	// RootHeuristic is the paper's default: prefer relations included in
	// the projections, prioritizing higher degree among those. With table
	// statistics (engine.Executor.AliasStats) the heuristic's choice is a
	// candidate the cost model may depose (chooseRootByCost).
	RootHeuristic RootStrategy = iota
	// RootFirst picks the first node (a naive baseline for ablations).
	RootFirst
	// RootMaxDegree picks the highest-degree node regardless of projection.
	RootMaxDegree
)

// ReduceRelations is Algorithm 2: fully reduce every relation of an acyclic
// join graph with one bottom-up and one top-down pass of semi-joins.
//
// The passes run from the graph's schedule (schedule.go), built once after
// folding: every edge's key columns are resolved there, and the steps the
// passes execute are the ones the cost model simulates. With the graph's
// statistics the cost model (cost.go) plans them: the heuristic root may be
// deposed and the bottom-up pass runs most-selective-first. Without
// statistics every decision is the paper's heuristic. Either way the reduced
// relations are the same, row for row.
//
// With opts.EarlyStop (the Section 6.3 optimization) the top-down pass skips
// subtrees that contain no projected relation, and stops entirely once every
// projected node has been reduced. Every semi-join probe runs at ex's degree
// and records its span on ex's tracer.
func ReduceRelations(ex *engine.Executor, g *Graph, opts Options, st *Stats) error {
	if g.IsCyclic() {
		return fmt.Errorf("core: ReduceRelations requires an acyclic join graph")
	}
	if len(g.Nodes) <= 1 {
		return nil
	}
	s, err := newSchedule(g, opts.EarlyStop)
	if err != nil {
		return err
	}
	root := s.heuristicRoot(opts.Root)
	if s.withStats && opts.Root == RootHeuristic {
		root = s.chooseRootByCost(root)
	}
	rn := s.nodes[root]
	st.Root = rn.Name()
	tr := ex.Tracer
	if sp := tr.Span("root", rn.Name()); sp != nil {
		sp.Detail = fmt.Sprintf("(degree %d, projected %v)", len(s.adj[root]), s.projected[root])
		sp.RowsIn = rn.Rel.Len()
		sp.RowsOut = rn.Rel.Len()
	}
	if !s.orient(root) {
		return fmt.Errorf("%w (%d of %d nodes reachable)", ErrDisconnected, len(s.queue), len(s.nodes))
	}

	// (1) Bottom-up: reduce parents by children, leaves towards root: in
	// reverse BFS order, or, with statistics, the same steps
	// most-selective-first (a valid children-first linearization, see
	// bottomUp).
	for _, i := range s.bottomUp() {
		s.semiJoin(ex, i, true, st)
	}

	// (2) Top-down: reduce children by parents, root towards leaves, up to
	// the early-stop cut-off and skipping subtrees without a projected node.
	for i := range s.steps[:s.cut] {
		if child := s.steps[i].child; !s.needed[child] {
			st.SkippedSemiJoins++
			if tr.Enabled() {
				tr.Note("skip top-down into " + s.nodes[child].Name() + " (no output relation in subtree)")
			}
			continue
		}
		s.semiJoin(ex, i, false, st)
	}
	if s.cut < len(s.steps) {
		st.EarlyStopped = true
		tr.Note("early stop: all output relations fully reduced")
	}
	return nil
}

// semiJoin executes step i's exact semi-join: parent ⋉ child bottom-up
// (up), child ⋉ parent top-down. The probe over the target's rows runs at
// ex's degree with deterministic ordered merge. Its span records the pass as
// its phase and, when planning has statistics, the estimated output
// cardinality.
func (s *schedule) semiJoin(ex *engine.Executor, i int, up bool, st *Stats) {
	t, src, e, side := s.ends(i, up)
	target, source := s.nodes[t], s.nodes[src]
	before := target.Rel.Len()
	tr := ex.Tracer
	var sp *trace.Span
	if tr.Enabled() {
		sp = tr.Span("semi-join", target.Name()+" ⋉ "+source.Name())
		sp.Phase = "top-down"
		if up {
			sp.Phase = "bottom-up"
		}
		sp.RowsIn = before
		sp.RowsBuild = source.Rel.Len()
		if s.withStats {
			sp.EstOut = int(s.sel(s.live, i, up)*float64(before) + 0.5)
		}
	}
	target.Rel = engine.SemiJoin(target.Rel, e.cols[side], source.Rel, e.cols[1-side], ex.Run, sp)
	s.live[t] = float64(target.Rel.Len())
	st.SemiJoins++
	st.TuplesDropped += before - target.Rel.Len()
	if sp != nil {
		sp.RowsOut = target.Rel.Len()
	}
}

// Options are the paper's plan choices for the RESULTDB-SEMIJOIN algorithm.
// The database always runs DefaultOptions; the ablation benchmarks and the
// tests set the others. How a statement executes (its degree, its tracer,
// its statistics) is the engine executor's, not an option.
type Options struct {
	// Root selects the root-node strategy (default: the paper heuristic).
	Root RootStrategy
	// Fold selects the folding strategy (default: highest degree).
	Fold FoldStrategy
	// EarlyStop enables the Section 6.3 optimization: stop the top-down
	// pass once all projected relations are fully reduced.
	EarlyStop bool
	// AlphaReduce replaces a JG-cyclic join graph's edges by the GYO join
	// tree over its attribute classes when the query is α-acyclic (Section
	// 4.1's gap between the two notions), so such queries skip folding
	// entirely. Exact: the tree's predicates equate exactly the attributes
	// the query's predicates equate. α-cyclic queries fold as without it.
	AlphaReduce bool
}

// DefaultOptions mirror the paper's implementation choices, plus the
// α-reduction extension (exact and strictly work-saving).
func DefaultOptions() Options {
	return Options{Root: RootHeuristic, Fold: FoldMaxDegree, EarlyStop: true, AlphaReduce: true}
}

// Stats reports what the algorithm did; the ablation benches and tests
// inspect it.
type Stats struct {
	Cyclic           bool
	Folds            int
	SemiJoins        int
	SkippedSemiJoins int
	TuplesDropped    int
	EarlyStopped     bool
	Root             string
	// ImpliedEdgesDropped is how many fewer edges α-reduction's join tree
	// has than the join graph it replaced (0 when it found none).
	ImpliedEdgesDropped int
}

// String summarizes the stats on one line.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "root=%s semijoins=%d skipped=%d dropped=%d folds=%d",
		s.Root, s.SemiJoins, s.SkippedSemiJoins, s.TuplesDropped, s.Folds)
	if s.Cyclic {
		b.WriteString(" cyclic")
	}
	if s.ImpliedEdgesDropped > 0 {
		fmt.Fprintf(&b, " implied-edges-dropped=%d", s.ImpliedEdgesDropped)
	}
	if s.EarlyStopped {
		b.WriteString(" early-stop")
	}
	return b.String()
}
