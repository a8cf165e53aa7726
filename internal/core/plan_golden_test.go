package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/engine"
	"resultdb/internal/sqlparse"
	"resultdb/internal/trace"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden from the current planner")

// TestPlanGolden pins every planning decision and estimate, not just the
// reduced rows TestCostBasedMatchesHeuristic compares: for JOB×33 at scale
// 0.05, the star payload statements, the hierarchy statements and the
// fact-mid-dim statements (a chain, a pair whose exact pass probes a bitmap
// key set, a folded cycle, a sparse pair whose key set hashes), each reduced
// at degree 1 with statistics as RDB and as RDBRP and without them (the paper
// heuristic) as RDB, it renders core's one-line stats and every span —
// phase, op, label, detail, rows in and out, and the estimate — of the
// reduction (folds, root, the bottom-up order, top-down steps, skips and
// early stop), plus the single-table plan's greedy join
// order with its estimates. Each statement runs on a fresh load and again
// after reinsertHeads. Run with -update to rewrite testdata/plans.golden
// after an intended plan change.
func TestPlanGolden(t *testing.T) {
	starCfg := star.Config{Dims: 3, DimRows: 12, PayloadLen: 16, Seed: 7}
	var b strings.Builder
	for _, w := range []struct {
		name  string
		load  func(d *db.Database) error
		stmts [][2]string // name, SQL
	}{
		{"job", func(d *db.Database) error { return job.Load(d, job.Config{Scale: 0.05, Seed: 42}) }, jobStatements()},
		{"star", func(d *db.Database) error { return star.Load(d, starCfg) }, [][2]string{
			{"payload-0.2", star.PayloadQuery(starCfg, 0.2)},
			{"payload-0.6", star.PayloadQuery(starCfg, 0.6)},
			{"payload-1.0", star.PayloadQuery(starCfg, 1.0)},
		}},
		{"hierarchy", func(d *db.Database) error { return hierarchy.Load(d, hierarchy.DefaultConfig()) }, [][2]string{
			{"electronics", hierarchy.ResultDBElectronics},
			{"clothing", hierarchy.ResultDBClothing},
		}},
		{"fact-mid-dim", loadFactMidDim, factMidDimStatements},
	} {
		d := db.Open(db.Config{Parallelism: 1})
		if err := w.load(d); err != nil {
			t.Fatal(err)
		}
		for _, load := range []string{"fresh", "reinserted"} {
			if load == "reinserted" {
				reinsertHeads(t, d)
			}
			for _, s := range w.stmts {
				renderPlans(t, &b, d, fmt.Sprintf("%s %s %s", w.name, s[0], load), s[1])
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "plans.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("plans drifted from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("plans drifted from %s: %d lines, want %d", path, len(gl), len(wl))
}

// jobStatements names the JOB queries for the golden file.
func jobStatements() [][2]string {
	var out [][2]string
	for _, q := range job.Queries() {
		out = append(out, [2]string{q.Name, q.SQL})
	}
	return out
}

// renderPlans appends one statement's plans to b: its reduction with
// statistics as RDB and as RDBRP, its RDB reduction by the paper heuristic
// (no statistics), then its single-table join order.
func renderPlans(t *testing.T, b *strings.Builder, d *db.Database, name, sql string) {
	t.Helper()
	snap := d.Snapshot()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	sel.ResultDB, sel.Preserving = false, false
	spec, err := engine.AnalyzeSPJ(sel, snap)
	if err != nil {
		t.Fatal(err)
	}
	tableStats := planStats(t, snap, spec, false)
	for _, mode := range []string{"rdb", "rdbrp", "rdb heuristic"} {
		outputs := spec.OutputRels()
		if mode == "rdbrp" {
			outputs = nil
			for _, r := range spec.Rels {
				if len(spec.ProjectionOf(r.Alias)) > 0 || len(spec.JoinAttrsOf(r.Alias)) > 0 {
					outputs = append(outputs, r.Alias)
				}
			}
		}
		ex := &engine.Executor{Src: snap, Parallelism: 1, Tracer: trace.New(sql)}
		if mode != "rdb heuristic" {
			ex.StatsOf = statsOf(spec, tableStats)
		}
		_, st := reduce(t, ex, spec, outputs)
		fmt.Fprintf(b, "== %s %s\n%s\n", name, mode, st)
		renderSpans(b, ex.Tracer.Finish())
	}
	ex := &engine.Executor{Src: snap, Parallelism: 1, Tracer: trace.New(sql), StatsOf: statsOf(spec, tableStats)}
	if _, err := ex.RunSPJ(spec); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "== %s single-table\n", name)
	renderSpans(b, ex.Tracer.Finish())
}

// renderSpans writes one line per span with its deterministic fields and
// the planner's estimate; scans are left out (they do not depend on the plan).
func renderSpans(b *strings.Builder, tr *trace.Trace) {
	for _, sp := range tr.Spans {
		if sp.Op == "scan" {
			continue
		}
		fmt.Fprintf(b, "%s|%s|%s|%s|%d -> %d|est %d\n", sp.Phase, sp.Op, sp.Label, sp.Detail, sp.RowsIn, sp.RowsOut, sp.EstOut)
	}
}
