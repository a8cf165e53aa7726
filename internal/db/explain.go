package db

import (
	"resultdb/internal/parallel"
	"resultdb/internal/sqlparse"
	"resultdb/internal/trace"
	"resultdb/internal/types"
)

// execExplainAt implements EXPLAIN [ANALYZE] <select> against an execution
// context (the database's or a session's view and options). The engine is
// main-memory and materializing, so EXPLAIN executes the plan and reports
// actual cardinalities per step. Both forms render from the same structured
// trace that db.QueryWithTrace returns — there is exactly one plan-rendering
// path:
//
//   - EXPLAIN prints the compact classic plan (fully deterministic: one line
//     per step with actual cardinalities, no timings).
//   - EXPLAIN ANALYZE prints the annotated operator tree: spans grouped by
//     phase with rows in/out, key counts, transfer bytes, and (in trailing
//     brackets that tooling may strip) wall times, parallel degrees, morsel
//     counts, and the pinned snapshot's commit position.
//
// For RESULTDB queries the plan reports the join-graph analysis, folds, root
// choice, and the semi-join schedule of Algorithm 4.
func (d *Database) execExplainAt(ec execCtx, ex *sqlparse.Explain) (*Result, error) {
	tr := trace.New(ex.Query.SQL())
	tr.SetParallelism(parallel.Degree(ec.opts.Parallelism))
	if ec.snap != nil {
		tr.SetSnapshot(ec.snap.Seq(), ec.snap.LSN())
	}
	if _, err := d.query(ec, &selectStmt{Select: ex.Query}, tr); err != nil {
		return nil, err
	}
	snap := tr.Finish()
	var lines []string
	if ex.Analyze {
		lines = snap.TreeLines()
	} else {
		lines = snap.CompactLines()
	}
	set := &ResultSet{Name: "plan", Columns: []string{"plan"}}
	for _, l := range lines {
		set.Rows = append(set.Rows, types.Row{types.NewText(l)})
	}
	return &Result{Sets: []*ResultSet{set}}, nil
}
