package bench

import (
	"fmt"
	"strings"
	"time"

	"resultdb/internal/core"
	"resultdb/internal/engine"
	"resultdb/internal/parallel"
	"resultdb/internal/workload/job"
)

// AblationRow compares strategy variants of the RESULTDB-SEMIJOIN algorithm
// on one query: the paper's heuristics against naive baselines, quantifying
// the Root Node Enumeration Problem and Tree Folding Enumeration Problem
// (Sections 4.2/4.3, future work 1).
type AblationRow struct {
	Query    string
	Variants map[string]time.Duration
	// SemiJoins tracks reduction work per variant (semi-joins executed).
	SemiJoins map[string]int
}

// rootVariants are the Root Node Enumeration ablation points.
var rootVariants = []struct {
	Name string
	Opts core.Options
}{
	{"heuristic", core.Options{Root: core.RootHeuristic, Fold: core.FoldMaxDegree, EarlyStop: true}},
	{"first-node", core.Options{Root: core.RootFirst, Fold: core.FoldMaxDegree, EarlyStop: true}},
	{"max-degree", core.Options{Root: core.RootMaxDegree, Fold: core.FoldMaxDegree, EarlyStop: true}},
	{"no-early-stop", core.Options{Root: core.RootHeuristic, Fold: core.FoldMaxDegree, EarlyStop: false}},
}

// foldVariants are the Tree Folding Enumeration ablation points (they only
// differ on cyclic queries).
var foldVariants = []struct {
	Name string
	Opts core.Options
}{
	{"max-degree", core.Options{Root: core.RootHeuristic, Fold: core.FoldMaxDegree, EarlyStop: true}},
	{"first-edge", core.Options{Root: core.RootHeuristic, Fold: core.FoldFirst, EarlyStop: true}},
	{"min-card", core.Options{Root: core.RootHeuristic, Fold: core.FoldMinCard, EarlyStop: true}},
	// alpha-reduce avoids folding altogether when the cycle consists of
	// transitively implied predicates (this repo's extension).
	{"alpha-reduce", core.Options{Root: core.RootHeuristic, Fold: core.FoldMaxDegree, EarlyStop: true, AlphaReduce: true}},
}

// AblationRoot measures the root-strategy variants on the given queries
// (nil = all 33).
func (e *Env) AblationRoot(names []string) ([]AblationRow, []string, error) {
	variantNames := make([]string, len(rootVariants))
	for i, v := range rootVariants {
		variantNames[i] = v.Name
	}
	rows, err := e.ablate(names, func(run func(core.Options) error) (map[string]time.Duration, map[string]int, error) {
		return timeVariants(e.Reps, rootVariants, run)
	})
	return rows, variantNames, err
}

// AblationFold measures the fold-strategy variants on the cyclic queries
// (nil = every query marked Cyclic in the workload).
func (e *Env) AblationFold(names []string) ([]AblationRow, []string, error) {
	if names == nil {
		for _, q := range job.Queries() {
			if q.Cyclic {
				names = append(names, q.Name)
			}
		}
	}
	variantNames := make([]string, len(foldVariants))
	for i, v := range foldVariants {
		variantNames[i] = v.Name
	}
	rows, err := e.ablate(names, func(run func(core.Options) error) (map[string]time.Duration, map[string]int, error) {
		return timeVariants(e.Reps, foldVariants, run)
	})
	return rows, variantNames, err
}

func (e *Env) ablate(names []string,
	timer func(func(core.Options) error) (map[string]time.Duration, map[string]int, error),
) ([]AblationRow, error) {
	if names == nil {
		for _, q := range job.Queries() {
			names = append(names, q.Name)
		}
	}
	ex := &engine.Executor{Src: e.DB, Run: parallel.NewRun(e.DB.CoreOptions.Parallelism)}
	var out []AblationRow
	for _, name := range names {
		sel, err := e.Select(name)
		if err != nil {
			return nil, err
		}
		spec, err := engine.AnalyzeSPJ(sel, e.DB)
		if err != nil {
			return nil, err
		}
		times, joins, err := timer(func(opts core.Options) error {
			rels, err := ex.BaseRelations(spec)
			if err != nil {
				return err
			}
			_, st, err := core.SemiJoinReduce(ex, spec, rels, nil, opts)
			if err != nil {
				return err
			}
			lastStats = st
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %s: %w", name, err)
		}
		out = append(out, AblationRow{Query: name, Variants: times, SemiJoins: joins})
	}
	return out, nil
}

// lastStats carries the most recent run's stats out of the timed closure.
var lastStats *core.Stats

func timeVariants(reps int, variants []struct {
	Name string
	Opts core.Options
}, run func(core.Options) error) (map[string]time.Duration, map[string]int, error) {
	times := make(map[string]time.Duration, len(variants))
	joins := make(map[string]int, len(variants))
	for _, v := range variants {
		opts := v.Opts
		med, err := median(reps, func() error { return run(opts) })
		if err != nil {
			return nil, nil, err
		}
		times[v.Name] = med
		if lastStats != nil {
			joins[v.Name] = lastStats.SemiJoins
		}
	}
	return times, joins, nil
}

// FormatAblation renders variant timings side by side.
func FormatAblation(title string, rows []AblationRow, variants []string) string {
	var b strings.Builder
	b.WriteString(title + " [ms] (semi-joins)\n")
	fmt.Fprintf(&b, "%-6s", "Query")
	for _, v := range variants {
		fmt.Fprintf(&b, " %18s", v)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s", r.Query)
		for _, v := range variants {
			fmt.Fprintf(&b, " %12.2f (%3d)", ms(r.Variants[v]), r.SemiJoins[v])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
