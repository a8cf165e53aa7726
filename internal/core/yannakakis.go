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

// ReduceRelations is Algorithm 2: fully reduce every relation of an acyclic
// join graph with one bottom-up and one top-down pass of semi-joins.
//
// The passes run from the graph's schedule (schedule.go), built once after
// folding: every edge's key columns are resolved there, and the steps the
// passes execute are the ones the cost model simulates. With
// opts.TableStats the cost model (cost.go) plans them: the heuristic root may
// be deposed, the bottom-up pass runs most-selective-first, and each step
// decides for itself whether a Bloom prefilter pays. Without statistics every
// decision is the paper's heuristic. Either way the reduced relations are the
// same, row for row.
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

	// (0) Bloom prefilter: the same two passes with approximate membership
	// tests; shrinks inputs before the exact passes. Without statistics it
	// runs every step when opts.BloomPrefilter is set; with them each step
	// decides (and sizes its filter from the estimated distinct build-key
	// count) whether the approximate pass pays for itself.
	if opts.BloomPrefilter || s.withStats {
		fp := opts.BloomFPRate
		if fp <= 0 {
			fp = 0.01
		}
		for i := len(s.steps) - 1; i >= 0; i-- {
			s.bloom(i, true, fp, st, &opts)
		}
		for i := range s.steps {
			s.bloom(i, false, fp, st, &opts)
		}
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

// bloom runs step i's Bloom prefilter, oriented as semiJoin orients the
// step. With statistics it runs only where bloomWorth says it pays, with the
// filter sized by bloomSize, and notes a step it leaves to a bitmap key set;
// without them it always runs, sized by the source's rows.
func (s *schedule) bloom(i int, up bool, fp float64, st *Stats, opts *Options) {
	t, src, e, side := s.ends(i, up)
	nEst := s.nodes[src].Rel.Len()
	if s.withStats {
		worth, bitmap := s.bloomWorth(i, up)
		if bitmap && opts.Tracer.Enabled() {
			opts.Tracer.Note("bloom prefilter skipped on " + s.nodes[t].Name() + " ⋉ " + s.nodes[src].Name() + ": bitmap key set")
		}
		if !worth {
			return
		}
		nEst = s.bloomSize(i, up)
	}
	bloomSemiJoinNodes(s.nodes[t], s.nodes[src], e.cols[side], e.cols[1-side], nEst, fp, st, opts)
	s.live[t] = float64(s.nodes[t].Rel.Len())
}

// bloomSemiJoinNodes reduces target by an approximate membership test on
// source's join keys (tCols against sCols). It may retain false positives
// but never drops a matching tuple. Both the filter build (atomic bit sets)
// and the probe (chunked with ordered merge) run at degree
// opts.Parallelism. nEst sizes the filter.
func bloomSemiJoinNodes(target, source *Node, tCols, sCols []int, nEst int, fpRate float64, st *Stats, opts *Options) {
	par := opts.Parallelism
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
	// Decompose: 0 = auto (GOMAXPROCS), 1 = serial, n > 1 = n workers.
	// Results are bit-identical at any degree (ordered morsel merge).
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
	// may be deposed by a simulated cheaper one, the bottom-up pass runs
	// most-selective-first, and Bloom prefilters become per-edge decisions
	// sized from estimated distinct key counts. The reduced relations are
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
