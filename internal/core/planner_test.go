package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/core"
	"resultdb/internal/db"
	"resultdb/internal/engine"
	"resultdb/internal/sqlparse"
	"resultdb/internal/stats"
	"resultdb/internal/storage"
	"resultdb/internal/types"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

// TestCostBasedMatchesHeuristic is the byte-identity check of the one
// planner: with statistics (Options.TableStats, which the database always
// provides) the cost model may pick another root and another bottom-up order,
// but every reduced relation — and so every RESULTDB and PRESERVING response,
// which projects them — comes out identical to the paper heuristic's plan (no
// statistics), row for row, in the same order. Over JOB×33, star, hierarchy
// and the fact-mid-dim statements (bitmap and hashed key sets, a fold); RDB
// and RDBRP output sets; parallelism 1 and 4; and once more after an INSERT
// batch into every table, so statistics extended from the previous versions'
// plan too.
func TestCostBasedMatchesHeuristic(t *testing.T) {
	starCfg := star.Config{Dims: 3, DimRows: 12, PayloadLen: 16, Seed: 7}
	var jobSQL, starSQL, factSQL []string
	for _, q := range job.Queries() {
		jobSQL = append(jobSQL, q.SQL)
	}
	for _, s := range factMidDimStatements {
		factSQL = append(factSQL, s[1])
	}
	for _, sel := range []float64{0.2, 0.6, 1.0} {
		starSQL = append(starSQL, star.PayloadQuery(starCfg, sel))
	}
	diverged := 0
	for _, w := range []struct {
		name  string
		load  func(d *db.Database) error
		stmts []string
	}{
		{"job", func(d *db.Database) error { return job.Load(d, job.Config{Scale: 0.05, Seed: 42}) }, jobSQL},
		{"star", func(d *db.Database) error { return star.Load(d, starCfg) }, starSQL},
		{"hierarchy", func(d *db.Database) error { return hierarchy.Load(d, hierarchy.DefaultConfig()) },
			[]string{hierarchy.ResultDBElectronics, hierarchy.ResultDBClothing}},
		{"fact-mid-dim", loadFactMidDim, factSQL},
	} {
		t.Run(w.name, func(t *testing.T) {
			d := db.Open(db.Config{Parallelism: 1})
			if err := w.load(d); err != nil {
				t.Fatal(err)
			}
			diverged += comparePlanners(t, d, w.stmts, false)
			reinsertHeads(t, d)
			diverged += comparePlanners(t, d, w.stmts, true)
		})
	}
	if diverged == 0 {
		t.Error("no statement was planned differently with statistics: the comparison is vacuous")
	}
	t.Logf("%d runs planned differently with statistics", diverged)
}

// comparePlanners reduces every statement with and without statistics under
// each output-set mode and degree, requires identical reduced relations, and
// returns how many of the runs planned differently (another root). extended
// requires every table's statistics to be derived by
// extending an ancestor version's.
func comparePlanners(t *testing.T, d *db.Database, stmts []string, extended bool) int {
	t.Helper()
	snap := d.Snapshot()
	diverged := 0
	for _, sql := range stmts {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		sel.ResultDB, sel.Preserving = false, false
		spec, err := engine.AnalyzeSPJ(sel, snap)
		if err != nil {
			t.Fatal(err)
		}
		tableStats := planStats(t, snap, spec, extended)
		for _, preserving := range []bool{false, true} {
			outputs := spec.OutputRels()
			if preserving {
				outputs = nil
				for _, r := range spec.Rels {
					if len(spec.ProjectionOf(r.Alias)) > 0 || len(spec.JoinAttrsOf(r.Alias)) > 0 {
						outputs = append(outputs, r.Alias)
					}
				}
			}
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("%.40q preserving=%v par=%d extended=%v", strings.Join(strings.Fields(sql), " "), preserving, par, extended)
				ex := &engine.Executor{Src: snap, Parallelism: par}
				want, wantSt := reduce(t, ex, spec, outputs)
				ex.StatsOf = statsOf(spec, tableStats)
				got, gotSt := reduce(t, ex, spec, outputs)
				for _, alias := range outputs {
					key := strings.ToLower(alias)
					if g, w := render(got[key]), render(want[key]); g != w {
						t.Fatalf("%s: relation %s differs between the plans with and without statistics (%d vs %d rows)",
							name, alias, got[key].Len(), want[key].Len())
					}
				}
				if gotSt.Root != wantSt.Root {
					diverged++
				}
			}
		}
	}
	return diverged
}

// planStats maps the statement's aliases to their tables' statistics, as the
// database hands them to core; extended requires each to be derived from an
// ancestor version's statistics rather than from row 0.
func planStats(t *testing.T, snap *db.Snapshot, spec *engine.SPJSpec, extended bool) map[string]*stats.Table {
	t.Helper()
	out := make(map[string]*stats.Table, len(spec.Rels))
	for _, r := range spec.Rels {
		tab, err := snap.Table(r.Table)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.ToLower(r.Alias)] = tab.Stats(func(tab *storage.Table, base any) any {
			if extended && base == nil {
				t.Errorf("%s: statistics of the post-INSERT version built from row 0, not extended", r.Table)
			}
			b, _ := base.(*stats.Table)
			return stats.Fold(tab, b)
		}).(*stats.Table)
	}
	return out
}

// statsOf resolves a table of the statement to the statistics planStats gave
// its aliases, as an executor's StatsOf.
func statsOf(spec *engine.SPJSpec, tableStats map[string]*stats.Table) func(string) *stats.Table {
	return func(table string) *stats.Table {
		for _, r := range spec.Rels {
			if strings.EqualFold(r.Table, table) {
				return tableStats[strings.ToLower(r.Alias)]
			}
		}
		return nil
	}
}

// reduce runs the semi-join reduction with the paper's plan choices on ex
// over freshly scanned base relations (scanned untraced, so ex's trace
// holds the reduction alone).
func reduce(t *testing.T, ex *engine.Executor, spec *engine.SPJSpec, outputs []string) (map[string]*engine.Relation, *core.Stats) {
	t.Helper()
	rels, err := (&engine.Executor{Src: ex.Src, Parallelism: ex.Parallelism}).BaseRelations(spec)
	if err != nil {
		t.Fatal(err)
	}
	reduced, st, err := core.SemiJoinReduce(ex, spec, rels, outputs, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return reduced, st
}

// render spells out every row of rel, in order, with each value's kind.
func render(rel *engine.Relation) string {
	var b strings.Builder
	for _, row := range rel.Vec.Rows() {
		for _, v := range row {
			fmt.Fprintf(&b, "%d:%s|", v.Kind(), v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// reinsertHeads commits, into every table, one INSERT of copies of its first
// eight rows: a new version of each table whose statistics extend the old.
func reinsertHeads(t *testing.T, d *db.Database) {
	t.Helper()
	for _, name := range d.TableNames() {
		tab, err := d.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		rows := tab.Rows()
		var tuples []string
		for _, row := range rows[:min(8, len(rows))] {
			vals := make([]string, len(row))
			for i, v := range row {
				vals[i] = (&sqlparse.Literal{Value: v}).SQL()
			}
			tuples = append(tuples, "("+strings.Join(vals, ", ")+")")
		}
		if len(tuples) == 0 {
			continue
		}
		if _, err := d.Exec("INSERT INTO " + name + " VALUES " + strings.Join(tuples, ", ")); err != nil {
			t.Fatal(err)
		}
	}
}

// factMidDimStatements are the loadFactMidDim statements the plan golden and
// the planner comparison run, by name.
var factMidDimStatements = [][2]string{
	{"chain", `SELECT f.id, m.id FROM fact AS f, mid AS m, dim AS d
			WHERE f.k = m.k AND m.k = d.k`},
	// The fact side is large and the dim keys few and within one word, so
	// the exact pass into fact probes a bitmap key set.
	{"bitmap", `SELECT f.id FROM fact AS f, dim AS d WHERE f.k = d.k`},
	// A cycle no predicate implies: folded before the reduction, over the
	// fold's two-column key, which stays hashed.
	{"cycle", `SELECT f.id, d.id FROM fact AS f, mid AS m, dim AS d
			WHERE f.id = m.id AND m.k = d.k AND d.id = f.k`},
	// As bitmap, but the build keys span far more words than the bound, so
	// the exact key set hashes.
	{"sparse", `SELECT f.id FROM fact AS f, sparse AS s WHERE f.k = s.k`},
}

// loadFactMidDim is a chain fact - mid - dim whose fact side is large and
// whose dim keys cover a narrow range, plus a 50-row sparse whose keys, a
// fifth of them far apart, do not.
func loadFactMidDim(d *db.Database) error {
	rng := rand.New(rand.NewSource(7))
	fill := func(name string, n int, key func(i int) int) error {
		tab, err := d.CreateTable(catalog.MustTableDef(name, []catalog.Column{
			{Name: "id", Type: types.KindInt}, {Name: "k", Type: types.KindInt}}))
		if err != nil {
			return err
		}
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(key(i)))}
		}
		return tab.InsertAll(rows)
	}
	if err := fill("fact", 40_000, func(int) int { return rng.Intn(1000) }); err != nil {
		return err
	}
	if err := fill("mid", 800, func(int) int { return rng.Intn(400) }); err != nil {
		return err
	}
	if err := fill("dim", 50, func(int) int { return 100 + rng.Intn(50) }); err != nil {
		return err
	}
	return fill("sparse", 50, func(i int) int {
		if i%5 == 0 {
			return (i + 1) << 32
		}
		return 500 + rng.Intn(100)
	})
}
