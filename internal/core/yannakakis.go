package core

import (
	"errors"
	"fmt"
	"strings"

	"resultdb/internal/engine"
	"resultdb/internal/parallel"
	"resultdb/internal/stats"
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
	// statistics (Options.TableStats) the heuristic's choice is a candidate
	// the cost model may depose (chooseRootByCost).
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
// passes execute are the ones the cost model simulates. With
// opts.TableStats the cost model (cost.go) plans them: the heuristic root may
// be deposed and the bottom-up pass runs most-selective-first. Without
// statistics every decision is the paper's heuristic. Either way the reduced
// relations are the same, row for row.
//
// With opts.EarlyStop (the Section 6.3 optimization) the top-down pass skips
// subtrees that contain no projected relation, and stops entirely once every
// projected node has been reduced.
func ReduceRelations(g *Graph, opts Options, st *Stats) error {
	if g.IsCyclic() {
		return fmt.Errorf("core: ReduceRelations requires an acyclic join graph")
	}
	if len(g.Nodes) <= 1 {
		return nil
	}
	st.Parallelism = parallel.Degree(opts.Parallelism)
	s, err := newSchedule(g, &opts)
	if err != nil {
		return err
	}
	root := s.heuristicRoot(opts.Root)
	if s.withStats && opts.Root == RootHeuristic {
		root = s.chooseRootByCost(root)
	}
	rn := s.nodes[root]
	st.Root = rn.Name()
	if sp := opts.Tracer.Span("root", rn.Name()); sp != nil {
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
		s.semiJoin(i, true, st, &opts)
	}

	// (2) Top-down: reduce children by parents, root towards leaves, up to
	// the early-stop cut-off and skipping subtrees without a projected node.
	for i := range s.steps[:s.cut] {
		if child := s.steps[i].child; !s.needed[child] {
			st.SkippedSemiJoins++
			if opts.Tracer.Enabled() {
				opts.Tracer.Note("skip top-down into " + s.nodes[child].Name() + " (no output relation in subtree)")
			}
			continue
		}
		s.semiJoin(i, false, st, &opts)
	}
	if s.cut < len(s.steps) {
		st.EarlyStopped = true
		opts.Tracer.Note("early stop: all output relations fully reduced")
	}
	return nil
}

// semiJoin executes step i's exact semi-join: parent ⋉ child bottom-up
// (up), child ⋉ parent top-down. The probe over the target's rows runs at
// degree opts.Parallelism (0 = auto, 1 = serial) with deterministic ordered
// merge. Its span records the pass as its phase and, when planning has
// statistics, the estimated output cardinality.
func (s *schedule) semiJoin(i int, up bool, st *Stats, opts *Options) {
	t, src, e, side := s.ends(i, up)
	target, source := s.nodes[t], s.nodes[src]
	before := target.Rel.Len()
	var sp *trace.Span
	if opts.Tracer.Enabled() {
		sp = opts.Tracer.Span("semi-join", target.Name()+" ⋉ "+source.Name())
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
	target.Rel = engine.SemiJoin(target.Rel, e.cols[side], source.Rel, e.cols[1-side], opts.Parallelism, sp)
	s.live[t] = float64(target.Rel.Len())
	st.SemiJoins++
	st.TuplesDropped += before - target.Rel.Len()
	if sp != nil {
		sp.RowsOut = target.Rel.Len()
		opts.Tracer.AddRowsDropped(before - target.Rel.Len())
	}
}

// Options configures the RESULTDB-SEMIJOIN algorithm.
type Options struct {
	// Root selects the root-node strategy (default: the paper heuristic).
	Root RootStrategy
	// Fold selects the folding strategy (default: highest degree).
	Fold FoldStrategy
	// EarlyStop enables the Section 6.3 optimization: stop the top-down
	// pass once all projected relations are fully reduced.
	EarlyStop bool
	// Parallelism is the degree of intra-query parallelism used by the
	// semi-join probes, folding joins and Decompose: 0 = auto (GOMAXPROCS),
	// 1 = serial, n > 1 = n workers. Results are bit-identical at any degree
	// (ordered morsel merge).
	Parallelism int
	// ResultCache enables the semantic query-result cache at the database
	// layer (internal/cache wired through internal/db): SELECT results —
	// classic, RESULTDB, and RESULTDB PRESERVING — are cached under their
	// canonical statement fingerprint and valid at the table versions they
	// were computed at. After an INSERT a RESULTDB entry whose appended rows
	// join nothing is extended to the new versions; any other DML, and all
	// DDL, invalidates it. core itself ignores the field; it lives
	// here so the whole execution configuration travels in one options bag
	// (db.Database.CoreOptions), alongside Parallelism. Defaults to off
	// (db.Config.CacheEnabled turns it on). The budget lives with the cache
	// itself (db.Database.EnableCache, CacheStats().Budget).
	ResultCache bool
	// TableStats maps lower-cased relation aliases to their base tables'
	// statistics (derived lazily, once per table version: stats.Of). When
	// present, reduction is planned by the cost model: the heuristic root
	// may be deposed by a simulated cheaper one, and the bottom-up pass runs
	// most-selective-first. The reduced relations are
	// identical to the heuristic plan's — only the plan (and speed) changes.
	// The database always provides them; direct callers that leave them nil
	// get the paper's heuristics.
	TableStats map[string]*stats.Table
	// AlphaReduce replaces a JG-cyclic join graph's edges by the GYO join
	// tree over its attribute classes when the query is α-acyclic (Section
	// 4.1's gap between the two notions), so such queries skip folding
	// entirely. Exact: the tree's predicates equate exactly the attributes
	// the query's predicates equate. α-cyclic queries fold as without it.
	AlphaReduce bool
	// Tracer, when non-nil, records structured per-operator spans (per-edge
	// semi-join reductions of the forward/backward passes, folds, root
	// choice). Nil is the disabled fast path.
	Tracer *trace.Tracer
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
	// Parallelism records the effective degree of parallelism used
	// (after resolving 0 = auto to GOMAXPROCS).
	// String leaves it out: the one-line summary is part of EXPLAIN's
	// deterministic text, and the degree varies with the host.
	Parallelism int
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
