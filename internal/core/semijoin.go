package core

import (
	"fmt"
	"strings"
	"time"

	"resultdb/internal/engine"
	"resultdb/internal/parallel"
)

// SemiJoinReduce is the paper's RESULTDB-SEMIJOIN algorithm (Algorithm 4):
//
//	(1) if the join graph is cyclic, fold it acyclic (Algorithm 3),
//	(2) reduce all relations with Yannakakis' passes (Algorithm 2),
//	(3) decompose folds back into their base relations,
//	(4) remove duplicates introduced by decomposition.
//
// Input: the analyzed query, its filtered base relations (keyed by
// lower-cased alias, as produced by engine scans with pushed-down filters),
// and the aliases to return (nil means the projected relations,
// Definition 2.2; pass every relation with non-empty A_i* for
// Definition 2.3). Output: for every requested alias, the fully reduced
// base relation at full width; the caller projects to A_i or A_i* and
// deduplicates after projection.
//
// ex is the statement's executor: every join and semi-join runs at its
// degree and records its spans on its tracer, and with its statistics
// (AliasStats) the cost model plans the reduction.
func SemiJoinReduce(ex *engine.Executor, spec *engine.SPJSpec, rels map[string]*engine.Relation, outputs []string, opts Options) (map[string]*engine.Relation, *Stats, error) {
	st := &Stats{}
	g, err := BuildGraph(spec, rels, outputs)
	if err != nil {
		return nil, nil, err
	}
	g.stats = ex.AliasStats(spec)
	tr := ex.Tracer
	if outputs == nil {
		outputs = spec.OutputRels()
	}
	st.Cyclic = g.IsCyclic()
	if st.Cyclic && opts.AlphaReduce {
		// α-reduction: a JG-cyclic but α-acyclic query reduces over its GYO
		// join tree and needs no folding.
		if tree := alphaJoinTree(g); tree != nil {
			st.ImpliedEdgesDropped = len(g.Edges) - len(tree)
			g.Edges = tree
			if tr.Enabled() {
				tr.Note(fmt.Sprintf("alpha-reduction dropped %d implied edge(s)", st.ImpliedEdgesDropped))
			}
		}
	}
	if g.IsCyclic() {
		if tr.Enabled() {
			tr.Note(fmt.Sprintf("join graph cyclic (%d nodes, %d edges); folding", len(g.Nodes), len(g.Edges)))
		}
		if err := FoldJoinGraph(ex, g, opts.Fold, st); err != nil {
			return nil, nil, err
		}
	}
	if err := ReduceRelations(ex, g, opts, st); err != nil {
		return nil, nil, err
	}

	out := make(map[string]*engine.Relation)
	for _, n := range g.Nodes {
		if n.IsFold() {
			// Decompose the fold: project out each contained base relation
			// and deduplicate (the join may have multiplied its tuples). Each
			// alias dedups on column-data key hashes and gathers only the
			// surviving rows.
			for _, alias := range n.Aliases {
				if !g.projected[strings.ToLower(alias)] {
					continue
				}
				base := n.Rel.ProjectDistinctPar(n.Rel.ColumnsOf(alias), ex.Run)
				if sp := tr.Span("decompose", alias); sp != nil {
					sp.Phase = "decompose"
					sp.Detail = "unfold " + n.Name()
					sp.RowsIn = n.Rel.Len()
					sp.RowsOut = base.Len()
				}
				out[strings.ToLower(alias)] = base
			}
			continue
		}
		alias := n.Aliases[0]
		if !g.projected[strings.ToLower(alias)] {
			continue
		}
		out[strings.ToLower(alias)] = n.Rel
	}
	// Sanity: every requested alias must be present.
	for _, alias := range outputs {
		if _, ok := out[strings.ToLower(alias)]; !ok {
			return nil, nil, fmt.Errorf("core: output relation %q missing after reduction (bug)", alias)
		}
	}
	return out, st, nil
}

// Decompose is the paper's Decompose operator (Section 6.3): split a
// single-table join result back into its per-relation components and remove
// duplicates. It is placed on top of a standard plan to give the ResultDB
// output from a single-table execution, and serves as the correctness oracle
// for SemiJoinReduce (Theorem 4.4).
//
// joined must carry alias-qualified columns for every alias in aliases
// (engine.Executor.RunSPJ produces exactly that). The per-relation
// project+dedup steps are independent, so they run concurrently across
// aliases at ex's degree, each step's own work chunked at the same degree.
// Results are identical at any degree. One span per decomposed relation
// (rows before projection, rows after dedup) is registered on ex's tracer
// after the fan-out completes, in alias order, so the trace is deterministic
// too.
func Decompose(ex *engine.Executor, joined *engine.Relation, aliases []string) (map[string]*engine.Relation, error) {
	run, tr := ex.Run, ex.Tracer
	var t0 time.Time
	if tr.Enabled() {
		t0 = time.Now()
	}
	results := make([]*engine.Relation, len(aliases))
	errs := make([]error, len(aliases))
	run.Each(len(aliases), func(i int) {
		alias := aliases[i]
		cols := joined.ColumnsOf(alias)
		if len(cols) == 0 {
			errs[i] = fmt.Errorf("core: decompose: no columns for relation %q", alias)
			return
		}
		results[i] = joined.ProjectDistinctPar(cols, run)
	})
	var durNS int64
	if tr.Enabled() {
		durNS = time.Since(t0).Nanoseconds()
	}
	out := make(map[string]*engine.Relation, len(aliases))
	for i, alias := range aliases {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if sp := tr.Span("decompose", alias); sp != nil {
			sp.Phase = "decompose"
			sp.RowsIn = joined.Len()
			sp.RowsOut = results[i].Len()
			if i == 0 {
				sp.DurNS = durNS // whole fan-out, attributed once
			}
		}
		out[strings.ToLower(alias)] = results[i]
	}
	return out, nil
}

// PostJoin reconstructs the single-table result from a relationship-
// preserving subdatabase (Definition 2.3): join the reduced relations on the
// original join predicates and project to the original attributes. Filters
// are not re-applied — the reduced relations already satisfy them. The join
// gathers the projected attributes alone (a nil projection keeps every
// column), each once, at GOMAXPROCS, ordered by cardinality: the returned
// relations name no table, so there are no statistics.
func PostJoin(preds []engine.JoinPred, rels map[string]*engine.Relation, projection []engine.Attr) (*engine.Relation, error) {
	return (&engine.Executor{Run: parallel.NewRun(0)}).JoinAll(&engine.SPJSpec{JoinPreds: preds}, rels, projection)
}

// RelationshipPreservingAttrs returns A_i* = A_i ∪ A_i^J of Definition 2.3
// for one alias: the projected attributes extended by the attributes needed
// to compute the post-join, in stable order without duplicates.
func RelationshipPreservingAttrs(spec *engine.SPJSpec, alias string) []string {
	seen := map[string]bool{}
	var out []string
	add := func(col string) {
		key := strings.ToLower(col)
		if !seen[key] {
			seen[key] = true
			out = append(out, col)
		}
	}
	for _, col := range spec.ProjectionOf(alias) {
		add(col)
	}
	for _, col := range spec.JoinAttrsOf(alias) {
		add(col)
	}
	return out
}
