package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"resultdb/internal/bloom"
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

// bfsEdge is one tree edge directed away from the root.
type bfsEdge struct {
	parent, child *Node
	edge          *Edge
}

// chooseRoot implements step (0) of Algorithm 2 under the given strategy.
func chooseRoot(g *Graph, strategy RootStrategy) *Node {
	if len(g.Nodes) == 0 {
		return nil
	}
	candidates := append([]*Node(nil), g.Nodes...)
	switch strategy {
	case RootFirst:
		return g.Nodes[0]
	case RootMaxDegree:
		sortNodesDeterministic(candidates, func(a, b *Node) bool {
			return g.Degree(a) > g.Degree(b)
		})
		return candidates[0]
	default:
		// Projected relations first, then higher degree (Section 4.2).
		sortNodesDeterministic(candidates, func(a, b *Node) bool {
			pa, pb := g.Projected(a), g.Projected(b)
			if pa != pb {
				return pa
			}
			return g.Degree(a) > g.Degree(b)
		})
		return candidates[0]
	}
}

// bfsEdges orders the tree's edges in breadth-first order from root, each
// directed parent -> child (step before (1) in Algorithm 2).
func bfsEdges(g *Graph, root *Node) ([]bfsEdge, error) {
	visited := map[*Node]bool{root: true}
	queue := []*Node{root}
	var order []bfsEdge
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range g.EdgesOf(n) {
			o := e.Other(n)
			if visited[o] {
				continue
			}
			visited[o] = true
			order = append(order, bfsEdge{parent: n, child: o, edge: e})
			queue = append(queue, o)
		}
	}
	if len(visited) != len(g.Nodes) {
		return nil, fmt.Errorf("%w (%d of %d nodes reachable)", ErrDisconnected, len(visited), len(g.Nodes))
	}
	return order, nil
}

// semiJoinNodes reduces target by source along edge e (target ⋉ source).
// The probe over target's rows runs at degree par (0 = auto, 1 = serial)
// with deterministic ordered merge. phase labels the pass ("bottom-up" or
// "top-down") in the recorded span, which, when planning has statistics (est
// non-nil), also gets the estimated output cardinality.
func semiJoinNodes(target, source *Node, e *Edge, st *Stats, opts *Options, phase string, est *estimator) error {
	tCols, sCols, err := edgeColsFor(target, e)
	if err != nil {
		return err
	}
	before := target.Rel.Len()
	var sp *trace.Span
	if opts.Tracer.Enabled() {
		sp = opts.Tracer.Span("semi-join", target.Name()+" ⋉ "+source.Name())
		sp.Phase = phase
		sp.RowsIn = before
		sp.RowsBuild = source.Rel.Len()
		if est != nil {
			sp.EstOut = int(est.liveSel(target, source, e)*float64(before) + 0.5)
		}
	}
	target.Rel = engine.SemiJoin(target.Rel, tCols, source.Rel, sCols, opts.Parallelism, sp)
	st.SemiJoins++
	st.TuplesDropped += before - target.Rel.Len()
	est.observe(target)
	if sp != nil {
		sp.RowsOut = target.Rel.Len()
		opts.Tracer.AddRowsDropped(before - target.Rel.Len())
	}
	return nil
}

// bloomSemiJoinNodes reduces target by an approximate membership test on
// source's join keys. It may retain false positives but never drops a
// matching tuple. Both the filter build (atomic bit sets) and the probe
// (chunked with ordered merge) run at degree par. nEst sizes the filter
// (planning with statistics passes the estimated distinct build-key count,
// which governs fill; 0 falls back to the build side's row count).
func bloomSemiJoinNodes(target, source *Node, e *Edge, nEst int, fpRate float64, st *Stats, opts *Options) error {
	par := opts.Parallelism
	if nEst <= 0 {
		nEst = source.Rel.Len()
	}
	tCols, sCols, err := edgeColsFor(target, e)
	if err != nil {
		return err
	}
	var sp *trace.Span
	var t0 time.Time
	if opts.Tracer.Enabled() {
		sp = opts.Tracer.Span("bloom-semi-join", target.Name()+" ⋉ "+source.Name())
		sp.Phase = "bloom-prefilter"
		sp.RowsIn = target.Rel.Len()
		sp.RowsBuild = source.Rel.Len()
		sp.Par = parallel.Degree(par)
		sp.Morsels = parallel.Chunks(target.Rel.Len(), par)
		t0 = time.Now()
	}
	f := bloom.New(nEst, fpRate)
	// Build and probe hash straight from the key columns, skipping NULL keys,
	// and narrow the target's selection to the probable matches.
	sk := source.Rel.Key(sCols)
	add := f.AddHash
	if parallel.Chunks(sk.Len(), par) > 1 {
		add = f.AddHashAtomic
	}
	parallel.For(sk.Len(), par, func(lo, hi int) {
		sk.EachHash(lo, hi, func(_ int, h uint64) { add(h) })
	})
	if sp != nil {
		sp.BuildNS = time.Since(t0).Nanoseconds()
		t0 = time.Now()
	}
	tk := target.Rel.Key(tCols)
	kept := parallel.Map(tk.Len(), par, func(lo, hi int) []int32 {
		var idx []int32
		tk.EachHash(lo, hi, func(j int, h uint64) {
			if f.ContainsHash(h) {
				idx = append(idx, int32(j))
			}
		})
		return idx
	})
	out := target.Rel
	if len(kept) < out.Len() {
		out = out.Narrow(kept)
	}
	st.BloomSemiJoins++
	st.BloomDropped += target.Rel.Len() - out.Len()
	if sp != nil {
		sp.ProbeNS = time.Since(t0).Nanoseconds()
		sp.RowsOut = out.Len()
		opts.Tracer.AddRowsDropped(target.Rel.Len() - out.Len())
	}
	target.Rel = out
	return nil
}

// ReduceRelations is Algorithm 2: fully reduce every relation of an acyclic
// join graph with one bottom-up and one top-down pass of semi-joins.
//
// With opts.TableStats the passes are planned by the cost model (cost.go):
// the heuristic root may be deposed, the bottom-up pass runs
// most-selective-first, and each edge decides for itself whether a Bloom
// prefilter pays. Without statistics every decision is the paper's
// heuristic. Either way the reduced relations are the same, row for row.
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
	par := parallel.Degree(opts.Parallelism)
	st.Parallelism = par
	est := newEstimator(g, opts.TableStats)
	root := chooseRoot(g, opts.Root)
	if est != nil && opts.Root == RootHeuristic {
		root = chooseRootByCost(g, root, &opts, est)
	}
	st.Root = root.Name()
	if sp := opts.Tracer.Span("root", root.Name()); sp != nil {
		sp.Detail = fmt.Sprintf("(degree %d, projected %v)", g.Degree(root), g.Projected(root))
		sp.RowsIn = root.Rel.Len()
		sp.RowsOut = root.Rel.Len()
	}
	order, err := bfsEdges(g, root)
	if err != nil {
		return err
	}

	// (0) Bloom prefilter: the same two passes with approximate membership
	// tests; shrinks inputs before the exact passes. Without statistics it
	// runs every edge when opts.BloomPrefilter is set; with them each edge
	// decides (and sizes its filter from the estimated distinct build-key
	// count) whether the approximate pass pays for itself.
	if opts.BloomPrefilter || est != nil {
		fp := opts.BloomFPRate
		if fp <= 0 {
			fp = 0.01
		}
		runBloom := func(target, source *Node, e *Edge) error {
			nEst := 0
			if est != nil {
				if !est.bloomWorth(target, source, e) {
					return nil
				}
				nEst = est.bloomSize(source, e)
			}
			if err := bloomSemiJoinNodes(target, source, e, nEst, fp, st, &opts); err != nil {
				return err
			}
			est.observe(target)
			return nil
		}
		for i := len(order) - 1; i >= 0; i-- {
			be := order[i]
			if err := runBloom(be.parent, be.child, be.edge); err != nil {
				return err
			}
		}
		for _, be := range order {
			if err := runBloom(be.child, be.parent, be.edge); err != nil {
				return err
			}
		}
	}

	// (1) Bottom-up: reduce parents by children, leaves towards root: in
	// reverse BFS order, or, with statistics, the same edge set
	// most-selective-first (a valid children-first linearization, see
	// costOrderBottomUp).
	for _, be := range costOrderBottomUp(order, est) {
		if err := semiJoinNodes(be.parent, be.child, be.edge, st, &opts, "bottom-up", est); err != nil {
			return err
		}
	}

	// (2) Top-down: reduce children by parents, root towards leaves.
	var needed map[*Node]bool
	if opts.EarlyStop {
		needed = subtreesWithProjection(g, order)
	}
	remainingProjected := 0
	if opts.EarlyStop {
		for _, n := range g.Nodes {
			if g.Projected(n) && n != root {
				remainingProjected++
			}
		}
	}
	for _, be := range order {
		if opts.EarlyStop {
			if remainingProjected == 0 {
				st.EarlyStopped = true
				opts.Tracer.Note("early stop: all output relations fully reduced")
				break
			}
			if !needed[be.child] {
				st.SkippedSemiJoins++
				opts.Tracer.Note("skip top-down into " + be.child.Name() + " (no output relation in subtree)")
				continue
			}
		}
		if err := semiJoinNodes(be.child, be.parent, be.edge, st, &opts, "top-down", est); err != nil {
			return err
		}
		if opts.EarlyStop && g.Projected(be.child) {
			remainingProjected--
		}
	}
	return nil
}

// subtreesWithProjection marks, for every node, whether its subtree (under
// the BFS orientation) contains a projected node. Children of unmarked
// subtrees never influence the output and need no top-down reduction.
func subtreesWithProjection(g *Graph, order []bfsEdge) map[*Node]bool {
	marked := make(map[*Node]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		marked[n] = g.Projected(n)
	}
	// Children appear after their parents in BFS order; walking the edges
	// backwards propagates marks from leaves to the root.
	for i := len(order) - 1; i >= 0; i-- {
		be := order[i]
		if marked[be.child] {
			marked[be.parent] = true
		}
	}
	return marked
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
	// BloomPrefilter runs a cheap Bloom-filter pass over the same semi-join
	// schedule before the exact passes (a correctness-preserving adaptation
	// of predicate transfer, Section 5 related work): the Bloom pass may
	// keep false positives but never drops a contributing tuple, and the
	// subsequent exact passes remove the strays.
	BloomPrefilter bool
	// BloomFPRate is the target false-positive rate of the prefilter
	// (default 0.01 when zero).
	BloomFPRate float64
	// Parallelism is the degree of intra-query parallelism used by the
	// semi-join probes, the Bloom prefilter build/probe, folding joins, and
	// Decompose: 0 = auto (the RESULTDB_PARALLELISM environment variable,
	// else GOMAXPROCS), 1 = serial, n > 1 = n workers. Results are
	// bit-identical at any degree (ordered morsel merge).
	Parallelism int
	// ResultCache enables the semantic query-result cache at the database
	// layer (internal/cache wired through internal/db): SELECT results —
	// classic, RESULTDB, and RESULTDB PRESERVING — are cached under their
	// canonical statement fingerprint and valid at the table versions they
	// were computed at. After an INSERT a RESULTDB entry whose appended rows
	// join nothing is extended to the new versions; any other DML, and all
	// DDL, invalidates it. core itself ignores the field; it lives
	// here so the whole execution configuration travels in one options bag
	// (db.Database.CoreOptions), alongside Parallelism. Defaults to off; the
	// RESULTDB_CACHE environment variable ("on", "off", or a byte budget
	// like "256MB") overrides it at db.New time. The budget lives with the
	// cache itself (db.Database.EnableCache, CacheStats().Budget).
	ResultCache bool
	// TableStats maps lower-cased relation aliases to their base tables'
	// statistics (derived lazily, once per table version: stats.Of). When
	// present, reduction is planned by the cost model: the heuristic root
	// may be deposed by a simulated cheaper one, the bottom-up pass runs
	// most-selective-first, and Bloom prefilters become per-edge decisions
	// sized from estimated distinct key counts. The reduced relations are
	// identical to the heuristic plan's — only the plan (and speed) changes.
	// The database always provides them; direct callers that leave them nil
	// get the paper's heuristics.
	TableStats map[string]*stats.Table
	// AlphaReduce drops join-graph edges whose predicates are implied by
	// transitivity before checking for cycles, so α-acyclic-but-JG-cyclic
	// queries (Section 4.1's gap between the two notions) skip folding
	// entirely. Exact: only logically redundant predicates are removed.
	AlphaReduce bool
	// Tracer, when non-nil, records structured per-operator spans (per-edge
	// semi-join reductions of the forward/backward passes, Bloom prefilter
	// work, folds, root choice). Nil is the disabled fast path.
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
	// BloomSemiJoins and BloomDropped count the prefilter pass's work.
	BloomSemiJoins int
	BloomDropped   int
	// ImpliedEdgesDropped counts join-graph edges removed by α-reduction.
	ImpliedEdgesDropped int
	// Parallelism records the effective degree of parallelism used
	// (after resolving 0 = auto against the environment and GOMAXPROCS).
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
