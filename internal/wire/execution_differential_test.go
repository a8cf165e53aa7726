package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/reference"
	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/ssb"
	"resultdb/internal/workload/star"
)

// This file is the correctness gate of query execution as a whole. There is
// one execution path, so there is no second path to diff it against; instead
// every answer is pinned from two sides:
//
//   - against internal/reference, the naive reading of Definitions 2.2/2.3
//     (and of outer joins, computed select items and GROUP BY, by nested loops
//     over boxed rows) that shares no operator with the engine, compared as
//     sorted sets (the reference promises no row order; ORDER BY and LIMIT are
//     checked on top: sorted on the keys, a prefix of the reference's set
//     sorted the same way), and
//   - against itself across the configuration lattice: parallelism {1, 4} ×
//     result cache {off, on} × planner statistics {derived lazily, ANALYZEd
//     first} × transport {local, TCP}, each compared byte for byte to the v1
//     encoding of the serial, uncached, lazily planned execution — and the
//     payload that crossed the socket to that execution's in-process v2
//     encoding. (Whether planning has statistics at all is core's
//     byte-identity test, TestCostBasedMatchesHeuristic.)
//
// The wire encoding covers set names, column lists, row data (values AND
// their order) and the shipped post-join plan, so any divergence — a kernel
// mis-evaluating three-valued logic, a dictionary code collision, a selection
// vector out of order, a dedup keeping the wrong duplicate, a chunk stitched
// out of order — shows up as a byte diff. A relationship-preserving result
// is additionally post-joined on the client side from its wire-decoded sets
// (row-major inputs, no columnar view) and compared with the reference's
// single-table result.

// execConfig is one point of the configuration lattice.
type execConfig struct {
	par     int
	cache   bool
	analyze bool // statistics derived eagerly by ANALYZE, not by the first statement
}

func (c execConfig) String() string {
	name := fmt.Sprintf("par%d", c.par)
	if c.cache {
		name += "-cache"
	}
	if c.analyze {
		name += "-analyze"
	}
	return name
}

// execCandidate is one configured database, served over TCP.
type execCandidate struct {
	cfg  execConfig
	d    *db.Database
	conn *rawClient
}

type execFleet struct {
	baseline *db.Database
	cands    []execCandidate
}

// newExecFleet loads the same workload into the serial, uncached, lazily
// planned baseline and into one served database per lattice point.
func newExecFleet(t *testing.T, load func(d *db.Database) error) *execFleet {
	t.Helper()
	f := &execFleet{baseline: db.Open(db.Config{Parallelism: 1})}
	if err := load(f.baseline); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		for _, cache := range []bool{false, true} {
			for _, analyze := range []bool{false, true} {
				cand := execCandidate{cfg: execConfig{par, cache, analyze}}
				cand.d = db.Open(db.Config{Parallelism: par, CacheEnabled: cache, CacheBudget: 256 << 20})
				if err := load(cand.d); err != nil {
					t.Fatal(err)
				}
				if analyze {
					if _, err := cand.d.Exec("ANALYZE"); err != nil {
						t.Fatal(err)
					}
				}
				srv := NewServer(cand.d)
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				cand.conn = dialRaw(t, addr)
				f.cands = append(f.cands, cand)
			}
		}
	}
	return f
}

// renderRows renders each row as a string that distinguishes distinct rows.
func renderRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.String())
			b.WriteByte(0)
		}
		out[i] = b.String()
	}
	return out
}

// sameSet reports whether got and want hold the same rows, ignoring order;
// distinct additionally ignores multiplicity.
func sameSet(got, want []types.Row, distinct bool) bool {
	a, b := renderRows(got), renderRows(want)
	sort.Strings(a)
	sort.Strings(b)
	if distinct {
		a, b = uniq(a), uniq(b)
	}
	return strings.Join(a, "\x01") == strings.Join(b, "\x01")
}

func uniq(sorted []string) []string {
	var out []string
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// checkAgainstReference compares the baseline's answer with the reference's,
// as sorted sets.
func checkAgainstReference(t *testing.T, f *execFleet, name string, sel *sqlparse.Select, res *db.Result) {
	t.Helper()
	if !sel.ResultDB {
		want, err := reference.SingleTable(f.baseline, sel)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		checkSingleTable(t, name, sel, res.First(), want)
		return
	}
	want, err := reference.Subdatabase(f.baseline, sel, sel.Preserving)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if len(res.Sets) != len(want) {
		t.Fatalf("%s: %d result sets, reference has %d", name, len(res.Sets), len(want))
	}
	for i, set := range res.Sets {
		if !strings.EqualFold(set.Name, want[i].Name) || strings.Join(set.Columns, ",") != strings.Join(want[i].Columns, ",") {
			t.Fatalf("%s: set %d is %s%v, reference has %s%v", name, i, set.Name, set.Columns, want[i].Name, want[i].Columns)
		}
		if !sameSet(set.Rows, want[i].Rows, false) {
			t.Fatalf("%s: relation %s differs from the reference (%d vs %d rows)\nsql: %s",
				name, set.Name, len(set.Rows), len(want[i].Rows), sel.SQL())
		}
	}
}

// checkSingleTable compares a single-table answer with the reference's set for
// the statement without its ORDER BY and LIMIT: the same rows — or, under a
// LIMIT that cuts, that many of them — and, under ORDER BY, sorted on the keys
// with the keys the reference's rows have at the same ranks (rows that tie on
// every key may come in any order, and either side of a cut).
func checkSingleTable(t *testing.T, name string, sel *sqlparse.Select, got *db.ResultSet, want reference.Set) {
	t.Helper()
	n := len(want.Rows)
	if sel.Limit != nil && int(*sel.Limit) < n {
		n = int(*sel.Limit)
	}
	if len(got.Columns) != len(want.Columns) || len(got.Rows) != n {
		t.Fatalf("%s: %d columns x %d rows, reference has %d x %d (LIMIT cuts to %d)\nsql: %s",
			name, len(got.Columns), len(got.Rows), len(want.Columns), len(want.Rows), n, sel.SQL())
	}
	left := map[string]int{}
	for _, r := range renderRows(want.Rows) {
		left[r]++
	}
	for i, r := range renderRows(got.Rows) {
		if left[r]--; left[r] < 0 {
			t.Fatalf("%s: row %d %v is not in the reference's set (or too often)\nsql: %s", name, i, got.Rows[i], sel.SQL())
		}
	}
	if len(sel.OrderBy) == 0 {
		return
	}
	// cmp orders two rows on the ORDER BY keys, found in the output by label.
	keys := make([]int, len(sel.OrderBy))
	for k, o := range sel.OrderBy {
		cr := o.Expr.(*sqlparse.ColumnRef)
		keys[k] = -1
		for i, label := range got.Columns {
			if strings.EqualFold(label, cr.Column) || strings.EqualFold(label, cr.Table+"."+cr.Column) {
				keys[k] = i
			}
		}
		if keys[k] < 0 {
			t.Fatalf("%s: ORDER BY key %s is not among the output columns %v", name, cr.SQL(), got.Columns)
		}
	}
	cmp := func(a, b types.Row) int {
		for k, col := range keys {
			if c := types.Compare(a[col], b[col]); c != 0 {
				if sel.OrderBy[k].Desc {
					return -c
				}
				return c
			}
		}
		return 0
	}
	ranked := append([]types.Row(nil), want.Rows...)
	sort.SliceStable(ranked, func(i, j int) bool { return cmp(ranked[i], ranked[j]) < 0 })
	for i, row := range got.Rows {
		if i > 0 && cmp(got.Rows[i-1], row) > 0 {
			t.Fatalf("%s: rows %d and %d are out of order\nsql: %s", name, i-1, i, sel.SQL())
		}
		if cmp(row, ranked[i]) != 0 {
			t.Fatalf("%s: row %d has keys of another rank than the reference's sorted set: %v vs %v\nsql: %s", name, i, row, ranked[i], sel.SQL())
		}
	}
}

// checkPostJoin post-joins a wire-decoded relationship-preserving result on
// the client side and compares it with the reference's single-table result
// (Definition 2.3). The decoded sets are deduplicated relations, so
// multiplicities are not comparable; the row sets are.
func checkPostJoin(t *testing.T, f *execFleet, name string, sel *sqlparse.Select, decoded *db.Result) {
	t.Helper()
	want, err := reference.SingleTable(f.baseline, sel)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := db.ExecutePostJoinPlan(decoded)
	if err != nil {
		t.Fatalf("%s: post-join: %v", name, err)
	}
	if !sameSet(got.Rows, want.Rows, true) {
		t.Fatalf("%s: client post-join differs from the reference single-table result\nsql: %s", name, sel.SQL())
	}
}

// check runs sql on the whole fleet.
func (f *execFleet) check(t *testing.T, name, sql string) {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	base, err := f.baseline.Exec(sql)
	if err != nil {
		t.Fatalf("%s: baseline: %v", name, err)
	}
	checkAgainstReference(t, f, name, sel, base)
	checkServerForm(t, f.baseline, name, sql, base)

	var decoded *db.Result
	want, wantV2 := EncodeResult(base), EncodeResultV2(base)
	for _, cand := range f.cands {
		// Cached candidates run twice locally, so both the cold fill and the
		// warm hit are compared; their clients then read warm entries.
		runs := 1
		if cand.cfg.cache {
			runs = 2
		}
		for run := 0; run < runs; run++ {
			res, err := cand.d.Exec(sql)
			if err != nil {
				t.Fatalf("%s [%s]: %v", name, cand.cfg, err)
			}
			if !bytes.Equal(EncodeResult(res), want) {
				t.Fatalf("%s [%s, local run %d]: execution differs from the serial uncached baseline\nsql: %s",
					name, cand.cfg, run, sql)
			}
		}
		what := fmt.Sprintf("%s [%s over TCP]", name, cand.cfg)
		payload := cand.conn.mustExec(t, what, sql)
		if !bytes.Equal(payload, wantV2) {
			t.Fatalf("%s: payload received over the wire differs from the baseline's v2 encoding\nsql: %s", what, sql)
		}
		got, err := DecodeResultExpect(payload, FormatV2)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(EncodeResult(got), want) {
			t.Fatalf("%s: result decoded from the wire differs from the baseline\nsql: %s", what, sql)
		}
		decoded = got
	}
	if sel.ResultDB && sel.Preserving {
		plain := *sel
		plain.ResultDB, plain.Preserving = false, false
		checkPostJoin(t, f, name, &plain, decoded)
	}
}

func TestExecutionDifferentialJOB(t *testing.T) {
	f := newExecFleet(t, func(d *db.Database) error {
		return job.Load(d, job.Config{Scale: 0.05, Seed: 42})
	})
	for _, q := range job.Queries() {
		f.check(t, q.Name+"/rdb", "SELECT RESULTDB"+strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT"))
	}
	for _, name := range job.Table1Queries {
		q, err := job.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		trimmed := strings.TrimSpace(q.SQL)
		f.check(t, name+"/rdbrp", "SELECT RESULTDB PRESERVING"+strings.TrimPrefix(trimmed, "SELECT"))
		f.check(t, name+"/st", trimmed)
	}
}

func TestExecutionDifferentialStar(t *testing.T) {
	cfg := star.Config{Dims: 3, DimRows: 12, PayloadLen: 16, Seed: 7}
	f := newExecFleet(t, func(d *db.Database) error { return star.Load(d, cfg) })
	for _, sel := range []float64{0.2, 0.6, 1.0} {
		rdb := strings.TrimPrefix(strings.TrimSpace(star.PayloadQuery(cfg, sel)), "SELECT")
		f.check(t, fmt.Sprintf("star-%.1f/st", sel), star.Query(cfg, sel))
		f.check(t, fmt.Sprintf("star-%.1f/rdb", sel), "SELECT RESULTDB"+rdb)
		f.check(t, fmt.Sprintf("star-%.1f/rdbrp", sel), "SELECT RESULTDB PRESERVING"+rdb)
	}
}

func TestExecutionDifferentialHierarchy(t *testing.T) {
	f := newExecFleet(t, func(d *db.Database) error {
		return hierarchy.Load(d, hierarchy.DefaultConfig())
	})
	f.check(t, "hier/outer", strings.TrimSpace(hierarchy.OuterJoinQuery))
	f.check(t, "hier/rdb-electronics", strings.TrimSpace(hierarchy.ResultDBElectronics))
	f.check(t, "hier/rdb-clothing", strings.TrimSpace(hierarchy.ResultDBClothing))
}

// TestExecutionDifferentialSequential covers what is not select-project-join
// — outer joins with residual and non-equi ON, computed select lists, GROUP
// BY / aggregates / HAVING, IN (SELECT ...) in an ON, ORDER BY and LIMIT —
// against the reference's nested loops and across the lattice. LIMITs cut
// where the ORDER BY keys are unique, so every configuration keeps the same
// rows whatever order its joins produced them in.
func TestExecutionDifferentialSequential(t *testing.T) {
	f := newExecFleet(t, func(d *db.Database) error {
		return ssb.Load(d, ssb.Config{Scale: 0.2, Seed: 77})
	})
	for _, q := range ssb.AggregateQueries() {
		f.check(t, q.Name, q.SQL)
	}
	for _, q := range []struct{ name, sql string }{
		{"outer-equi-residual", `SELECT lo.lo_id, lo.lo_revenue, s.s_name, s.s_region FROM lineorder AS lo
			LEFT OUTER JOIN supplier AS s ON lo.lo_suppkey = s.s_id AND s.s_region = 'ASIA'`},
		{"outer-non-equi", `SELECT c.c_id, c.c_city, s.* FROM customer AS c
			LEFT OUTER JOIN supplier AS s ON c.c_nation = 'CHINA' AND s.s_id < c.c_id`},
		{"outer-in-subquery", `SELECT lo.lo_id, s.s_id, s.s_nation FROM lineorder AS lo
			LEFT OUTER JOIN supplier AS s ON lo.lo_suppkey = s.s_id
				AND s.s_nation IN (SELECT c.c_nation FROM customer AS c WHERE c.c_region = 'ASIA')
			WHERE lo.lo_quantity < 20`},
		{"outer-then-inner", `SELECT p.p_brand, lo.lo_id, d.d_year FROM part AS p
			LEFT OUTER JOIN lineorder AS lo ON lo.lo_partkey = p.p_id AND lo.lo_discount > 8
			JOIN dates AS d ON lo.lo_orderdate = d.d_id AND d.d_month <= 6`},
		{"computed-over-join", `SELECT lo.lo_id, lo.lo_extendedprice * lo.lo_discount, s.s_nation, -lo.lo_quantity
			FROM lineorder AS lo JOIN supplier AS s ON lo.lo_suppkey = s.s_id WHERE lo.lo_quantity < 25`},
		// A comma join under a computed select list is a cross product then a
		// filter: small tables.
		{"computed-comma-join", `SELECT s.s_id + c.c_id, s.s_city FROM supplier AS s, customer AS c
			WHERE s.s_city = c.c_city AND c.c_id < 200`},
		{"distinct-computed", `SELECT DISTINCT lo.lo_quantity / 10, lo.lo_discount + 1, lo.lo_discount > 5 FROM lineorder AS lo`},
		{"computed-order-limit", `SELECT lo.lo_id, lo.lo_revenue - lo.lo_extendedprice AS delta FROM lineorder AS lo
			WHERE lo.lo_quantity < 10 ORDER BY lo.lo_id DESC LIMIT 50`},
		{"order-ties", `SELECT lo.lo_discount, lo.lo_quantity * 2 FROM lineorder AS lo WHERE lo.lo_id < 300 ORDER BY lo.lo_discount`},
		{"grouped-limit", `SELECT s.s_nation, COUNT(*) AS n, AVG(lo.lo_revenue), MIN(s.s_city), MAX(lo.lo_discount) - MIN(lo.lo_discount)
			FROM lineorder AS lo JOIN supplier AS s ON lo.lo_suppkey = s.s_id
			GROUP BY s.s_nation HAVING COUNT(*) > 10 OR MIN(s.s_city) IS NULL ORDER BY s.s_nation LIMIT 7`},
		{"grouped-expression", `SELECT lo.lo_quantity / 10, COUNT(lo.lo_id), SUM(lo.lo_revenue) BETWEEN 0 AND 100000000
			FROM lineorder AS lo GROUP BY lo.lo_quantity / 10 HAVING lo.lo_quantity / 10 IN (0, 2, 4)`},
		{"grouped-over-outer", `SELECT c.c_region, COUNT(lo.lo_id), COUNT(*), SUM(lo.lo_quantity) FROM customer AS c
			LEFT OUTER JOIN lineorder AS lo ON lo.lo_custkey = c.c_id AND lo.lo_discount = 10
			GROUP BY c.c_region`},
		{"global-aggregates", `SELECT COUNT(*), COUNT(lo.lo_id), MIN(lo.lo_revenue), MAX(lo.lo_revenue), AVG(lo.lo_discount), SUM(lo.lo_quantity)
			FROM lineorder AS lo WHERE lo.lo_discount > 5`},
		{"global-aggregates-empty", `SELECT COUNT(*), SUM(lo.lo_quantity), MIN(lo.lo_id) FROM lineorder AS lo WHERE lo.lo_discount > 50`},
	} {
		f.check(t, q.name, q.sql)
	}
}

// --- Property sweep: random rows and predicates ------------------------------

// propVariant shapes the random data so the corners of the columnar layout
// get hit end to end — scan, join, dedup and wire encoding: NULL-heavy columns
// (bitmap paths, NULL join keys, NULLs grouping together) and degenerate TEXT
// dictionaries (one entry; all-distinct entries).
type propVariant struct {
	name     string
	nullProb float64
	// textMode: 0 = small shared dictionary, 1 = single value, 2 = all distinct
	textMode int
}

// propLoad creates two joinable tables with every column kind and fills them
// with seeded random rows (identical SQL on every database).
func propLoad(rng *rand.Rand, v propVariant) []string {
	stmts := []string{
		"CREATE TABLE r (k INT, a INT, b FLOAT, c TEXT, d BOOL)",
		"CREATE TABLE s (k INT, e INT, f TEXT)",
	}
	lit := func(gen func() string) string {
		if rng.Float64() < v.nullProb {
			return "NULL"
		}
		return gen()
	}
	text := func(i int) string {
		switch v.textMode {
		case 1:
			return "'const'"
		case 2:
			return fmt.Sprintf("'u%d'", i)
		default:
			return fmt.Sprintf("'v%d'", rng.Intn(8))
		}
	}
	var rRows, sRows []string
	for i := 0; i < 160; i++ {
		i := i
		rRows = append(rRows, fmt.Sprintf("(%s, %s, %s, %s, %s)",
			lit(func() string { return fmt.Sprintf("%d", rng.Intn(20)) }),
			lit(func() string { return fmt.Sprintf("%d", rng.Intn(100)) }),
			lit(func() string { return fmt.Sprintf("%d.%d", rng.Intn(50), rng.Intn(10)) }),
			lit(func() string { return text(i) }),
			lit(func() string {
				if rng.Intn(2) == 0 {
					return "TRUE"
				}
				return "FALSE"
			})))
	}
	for i := 0; i < 120; i++ {
		i := i
		sRows = append(sRows, fmt.Sprintf("(%s, %s, %s)",
			lit(func() string { return fmt.Sprintf("%d", rng.Intn(20)) }),
			lit(func() string { return fmt.Sprintf("%d", rng.Intn(100)) }),
			lit(func() string { return text(i + 1000) })))
	}
	stmts = append(stmts,
		"INSERT INTO r VALUES "+strings.Join(rRows, ", "),
		"INSERT INTO s VALUES "+strings.Join(sRows, ", "))
	return stmts
}

// rPreds and sPreds mix predicates a scan compiles to kernels with ones it
// leaves to the bound expression (column-vs-column, arithmetic). Kernel
// semantics proper are pinned in internal/engine's kernel property test;
// here they only need to vary what reaches the join, the dedup and the
// encoder.
var rPreds = []string{
	"r.a < 50",
	"r.a NOT BETWEEN 20 AND 80",
	"r.a IN (5, NULL, 61)",
	"r.c LIKE 'v%'",
	"r.c IS NULL",
	"r.b IS NOT NULL",
	"r.d <> FALSE",
	"r.a = r.k",
	"r.a + 0 < 50",
}

var sPreds = []string{
	"s.e BETWEEN 5 AND 95",
	"s.f LIKE 'v%'",
	"s.f IS NOT NULL",
	"s.e * 1 >= 10",
}

// TestExecutionDifferentialProperty sweeps seeded random predicate
// combinations over NULL-heavy and dictionary-degenerate data in all three
// query modes.
func TestExecutionDifferentialProperty(t *testing.T) {
	variants := []propVariant{
		{"nullheavy", 0.35, 0},
		{"dict1", 0.15, 1},
		{"dictN", 0.15, 2},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			stmts := propLoad(rand.New(rand.NewSource(31+int64(v.textMode))), v)
			f := newExecFleet(t, func(d *db.Database) error {
				for _, s := range stmts {
					if _, err := d.Exec(s); err != nil {
						return fmt.Errorf("%q: %w", s[:min(len(s), 40)], err)
					}
				}
				return nil
			})
			qRng := rand.New(rand.NewSource(97 + int64(v.textMode)))
			for iter := 0; iter < 25; iter++ {
				conds := []string{"r.k = s.k"}
				for n := qRng.Intn(3) + 1; n > 0; n-- {
					conds = append(conds, rPreds[qRng.Intn(len(rPreds))])
				}
				for n := qRng.Intn(2); n > 0; n-- {
					conds = append(conds, sPreds[qRng.Intn(len(sPreds))])
				}
				where := strings.Join(conds, " AND ")
				f.check(t, fmt.Sprintf("%s-%d/st", v.name, iter),
					fmt.Sprintf("SELECT DISTINCT r.a, r.c, s.f FROM r, s WHERE %s", where))
				f.check(t, fmt.Sprintf("%s-%d/rdb", v.name, iter),
					fmt.Sprintf("SELECT RESULTDB r.a, r.c, s.f FROM r, s WHERE %s", where))
				f.check(t, fmt.Sprintf("%s-%d/rdbrp", v.name, iter),
					fmt.Sprintf("SELECT RESULTDB PRESERVING r.a, s.f FROM r, s WHERE %s", where))
			}
		})
	}
}
