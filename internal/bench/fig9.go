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

// Fig9Row is one Figure 9 group: the single-table execution time, the extra
// Decompose time on top of it, and the native RESULTDB-SEMIJOIN time, all
// medians. The paper plots ST+Decompose as a stacked bar next to the
// semi-join algorithm.
type Fig9Row struct {
	Query     string
	ST        time.Duration
	Decompose time.Duration
	SemiJoin  time.Duration
	Stats     *core.Stats
}

// Fig9 measures the in-engine comparison (Section 6.3) on the given queries
// (nil = all 33). As in the paper, only row counts are "returned" — both
// sides materialize their result sets in memory and no client transfer
// happens; cardinalities are exact by construction (materialized
// intermediates), mirroring the paper's true-cardinality injection.
func (e *Env) Fig9(names []string) ([]Fig9Row, error) {
	if names == nil {
		for _, q := range job.Queries() {
			names = append(names, q.Name)
		}
	}
	ex := &engine.Executor{Src: e.DB, Run: parallel.NewRun(e.DB.CoreOptions.Parallelism)}
	out := make([]Fig9Row, 0, len(names))
	for _, name := range names {
		sel, err := e.Select(name)
		if err != nil {
			return nil, err
		}
		spec, err := engine.AnalyzeSPJ(sel, e.DB)
		if err != nil {
			return nil, fmt.Errorf("bench: fig9 %s: %w", name, err)
		}

		row := Fig9Row{Query: name}

		// Single-table execution (the paper's baseline bar).
		row.ST, err = median(e.Reps, func() error {
			_, err := ex.RunSPJ(spec)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: fig9 %s ST: %w", name, err)
		}

		// ST + Decompose, reported as the decompose increment.
		stPlusDec, err := median(e.Reps, func() error {
			joined, err := ex.RunSPJ(spec)
			if err != nil {
				return err
			}
			_, err = core.Decompose(ex, joined, spec.OutputRels())
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: fig9 %s decompose: %w", name, err)
		}
		if stPlusDec > row.ST {
			row.Decompose = stPlusDec - row.ST
		}

		// Native RESULTDB-SEMIJOIN (Algorithm 4 with early stop).
		row.SemiJoin, err = median(e.Reps, func() error {
			rels, err := ex.BaseRelations(spec)
			if err != nil {
				return err
			}
			reduced, stats, err := core.SemiJoinReduce(ex, spec, rels, nil, core.DefaultOptions())
			if err != nil {
				return err
			}
			row.Stats = stats
			_ = reduced
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("bench: fig9 %s semijoin: %w", name, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatFig9 renders the stacked comparison (ms).
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	b.WriteString("Figure 9: RESULTDB-SEMIJOIN vs Single Table + Decompose [ms]\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %14s %s\n", "Query", "SingleTable", "Decompose", "SemiJoinAlgo", "stats")
	for _, r := range rows {
		stats := ""
		if r.Stats != nil {
			stats = r.Stats.String()
		}
		fmt.Fprintf(&b, "%-6s %12.2f %12.2f %14.2f %s\n",
			r.Query, ms(r.ST), ms(r.Decompose), ms(r.SemiJoin), stats)
	}
	return b.String()
}
