// Package resultdb_test hosts the top-level benchmark suite: one testing.B
// benchmark per table and figure of the paper's evaluation (Section 6), plus
// micro-benchmarks of the core primitives. Run everything with
//
//	go test -bench=. -benchmem
//
// The printed paper-style artifacts come from cmd/benchrunner; these benches
// provide stable, comparable timings for the same code paths.
package resultdb_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"resultdb/internal/bench"
	"resultdb/internal/core"
	"resultdb/internal/db"
	"resultdb/internal/engine"
	"resultdb/internal/rewrite"
	"resultdb/internal/sqlparse"
	"resultdb/internal/stats"
	"resultdb/internal/trace"
	"resultdb/internal/wire"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/ssb"
	"resultdb/internal/workload/star"
)

// benchScale keeps the full benchmark suite in the tens-of-seconds range.
const benchScale = 0.1

var (
	envOnce sync.Once
	env     *bench.Env
	envErr  error
)

func jobEnv(b *testing.B) *bench.Env {
	b.Helper()
	envOnce.Do(func() {
		env, envErr = bench.NewJOBEnv(benchScale)
		if env != nil {
			env.Reps = 1
		}
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return env
}

// BenchmarkTable1ResultSizes regenerates Table 1: result-set sizes and
// compression ratios for ST/RDBRP/RDB on the paper's ten JOB queries.
func BenchmarkTable1ResultSizes(b *testing.B) {
	e := jobEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := e.Table1(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Query == "16b" {
					b.ReportMetric(r.RatioRDB(), "compression16b")
				}
			}
		}
	}
}

// BenchmarkFig7StarSchema regenerates Figure 7: star-schema result sizes
// over dimension-filter selectivity.
func BenchmarkFig7StarSchema(b *testing.B) {
	cfg := star.Config{Dims: 3, DimRows: 15, PayloadLen: 40, Seed: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := bench.Fig7(cfg, []float64{0.2, 0.4, 0.6, 0.8, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := points[len(points)-1]
			b.ReportMetric(float64(last.Redundancy())/1024, "redundancyKiB")
		}
	}
}

// BenchmarkFig8RewriteMethods regenerates Figure 8 on a representative
// query subset (one per family: selective, star, high-redundancy,
// single-output, cyclic).
func BenchmarkFig8RewriteMethods(b *testing.B) {
	e := jobEnv(b)
	names := []string{"3c", "9c", "11c", "16b", "21a"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Fig8(names); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8PerMethod times each rewrite method on the star-join 9c.
func BenchmarkFig8PerMethod(b *testing.B) {
	e := jobEnv(b)
	sel, err := e.Select("9c")
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range rewrite.Methods {
		b.Run(m.String(), func(b *testing.B) {
			plan, err := rewrite.Rewrite(sel, e.DB, m, rewrite.ModeRDB)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.Run(e.DB, plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Overhead regenerates Table 2 (best rewrite vs single
// table) on the same subset as Figure 8.
func BenchmarkTable2Overhead(b *testing.B) {
	e := jobEnv(b)
	names := []string{"3c", "9c", "11c", "16b", "21a"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig8, err := e.Fig8(names)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Table2(fig8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9SemiJoin regenerates Figure 9: native RESULTDB-SEMIJOIN vs
// Single Table + Decompose.
func BenchmarkFig9SemiJoin(b *testing.B) {
	e := jobEnv(b)
	names := []string{"3c", "9c", "16b", "21a", "29a"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Fig9(names); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3EndToEnd regenerates Table 3: execution + 100 Mbps
// transfer + post-join for ST vs the best rewrite.
func BenchmarkTable3EndToEnd(b *testing.B) {
	e := jobEnv(b)
	names := []string{"9c", "16b", "33c"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Table3(names, wire.DefaultTransfer); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRoot exercises the Root Node Enumeration ablation.
func BenchmarkAblationRoot(b *testing.B) {
	e := jobEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.AblationRoot([]string{"9c", "22c"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFold exercises the Tree Folding Enumeration ablation on
// the cyclic templates.
func BenchmarkAblationFold(b *testing.B) {
	e := jobEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.AblationFold([]string{"14a", "23a"}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the primitives behind the experiments ---

// BenchmarkSemiJoinReduce16b isolates the reduction phase of Algorithm 4 on
// the heaviest acyclic query.
func BenchmarkSemiJoinReduce16b(b *testing.B) {
	e := jobEnv(b)
	sel, err := e.Select("16b")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := engine.AnalyzeSPJ(sel, e.DB)
	if err != nil {
		b.Fatal(err)
	}
	ex := &engine.Executor{Src: e.DB}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rels, err := ex.BaseRelations(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.SemiJoinReduce(ex, spec, rels, nil, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleTable16b is the matching single-table baseline.
func BenchmarkSingleTable16b(b *testing.B) {
	e := jobEnv(b)
	sel, err := e.Select("16b")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.DB.Query(sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompose16b isolates the Decompose operator (the paper's
// "negligible overhead" claim in Figure 9's zoom-in).
func BenchmarkDecompose16b(b *testing.B) {
	e := jobEnv(b)
	sel, err := e.Select("16b")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := engine.AnalyzeSPJ(sel, e.DB)
	if err != nil {
		b.Fatal(err)
	}
	ex := &engine.Executor{Src: e.DB}
	joined, err := ex.RunSPJ(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decompose(ex, joined, spec.OutputRels()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- morsel-parallelism sweeps (serial vs parallel on identical inputs) ---

var (
	parEnvOnce sync.Once
	parEnv     *bench.Env
	parEnvErr  error
)

// jobEnvLarge loads the JOB workload at full scale so the morsel chunking
// (parallel.Threshold rows per chunk) actually engages; the regular suite's
// benchScale would mostly take the serial fast path.
func jobEnvLarge(b *testing.B) *bench.Env {
	b.Helper()
	parEnvOnce.Do(func() {
		parEnv, parEnvErr = bench.NewJOBEnv(1.0)
		if parEnv != nil {
			parEnv.Reps = 1
		}
	})
	if parEnvErr != nil {
		b.Fatal(parEnvErr)
	}
	return parEnv
}

// parDegrees is the sweep: serial, 2 workers, and all cores.
func parDegrees() []int {
	ds := []int{1, 2}
	if g := runtime.GOMAXPROCS(0); g > 2 {
		ds = append(ds, g)
	}
	return ds
}

// BenchmarkParallelJoin16b sweeps the degree of parallelism over the
// single-table plan (hash joins + filters) of the heaviest acyclic query.
// Results are bit-identical across sub-benchmarks; only the timing changes.
func BenchmarkParallelJoin16b(b *testing.B) {
	e := jobEnvLarge(b)
	sel, err := e.Select("16b")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := engine.AnalyzeSPJ(sel, e.DB)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range parDegrees() {
		b.Run(fmt.Sprintf("par=%d", p), func(b *testing.B) {
			ex := &engine.Executor{Src: e.DB, Parallelism: p}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.RunSPJ(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTracerOverhead16b measures the cost of the observability layer on
// the heaviest acyclic query's single-table plan: "off" threads a nil tracer
// through every operator (the production default — the nil fast path must be
// free), "on" records a full span tree per run. verify.sh compares the two;
// the structural guarantee that the disabled path allocates nothing is
// asserted separately by TestNilTracerCostsNothing in internal/trace.
func BenchmarkTracerOverhead16b(b *testing.B) {
	e := jobEnvLarge(b)
	sel, err := e.Select("16b")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := engine.AnalyzeSPJ(sel, e.DB)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			ex := &engine.Executor{Src: e.DB, Parallelism: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "on" {
					ex.Tracer = trace.New("16b")
				}
				if _, err := ex.RunSPJ(spec); err != nil {
					b.Fatal(err)
				}
				if mode == "on" {
					ex.Tracer.Finish()
				}
			}
		})
	}
}

// BenchmarkParallelReduce16b sweeps the degree of parallelism over the
// RESULTDB-SEMIJOIN reduction (semi-join probes, Decompose).
func BenchmarkParallelReduce16b(b *testing.B) {
	e := jobEnvLarge(b)
	sel, err := e.Select("16b")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := engine.AnalyzeSPJ(sel, e.DB)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range parDegrees() {
		b.Run(fmt.Sprintf("par=%d", p), func(b *testing.B) {
			ex := &engine.Executor{Src: e.DB, Parallelism: p}
			opts := core.DefaultOptions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rels, err := ex.BaseRelations(spec)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := core.SemiJoinReduce(ex, spec, rels, nil, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParse measures the SQL front end on the largest template.
func BenchmarkParse(b *testing.B) {
	q, err := job.QueryByName("22c")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.ParseSelect(q.SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncode measures result serialization on a subdatabase result.
func BenchmarkWireEncode(b *testing.B) {
	e := jobEnv(b)
	sel, err := e.Select("16b")
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.DB.QueryResultDB(sel, db.ModeRDBRP)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(wire.EncodeResult(res))
	}
	b.ReportMetric(float64(n), "bytes")
}

// BenchmarkPostJoin measures the client-side post-join on 16b's RDBRP
// subdatabase (Table 3's last component).
func BenchmarkPostJoin(b *testing.B) {
	e := jobEnv(b)
	sel, err := e.Select("16b")
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.DB.QueryResultDB(sel, db.ModeRDBRP)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.DB.PostJoin(sel, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSBFlights measures the Star Schema Benchmark extension: all 13
// flights, single-table vs RESULTDB (sizes and times).
func BenchmarkSSBFlights(b *testing.B) {
	cfg := ssb.Config{Scale: 0.3, Seed: 77}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.SSB(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var best float64
			for _, r := range rows {
				if r.Ratio() > best {
					best = r.Ratio()
				}
			}
			b.ReportMetric(best, "bestCompression")
		}
	}
}

// BenchmarkCacheHitJOB measures the semantic result cache on JOB RESULTDB
// queries: "cold" clears the cache every iteration (full execution + fill),
// "warm" serves every iteration from the cache. The cold/warm ratio is the
// cache's payoff; the acceptance bar is >= 10x on at least one query.
func BenchmarkCacheHitJOB(b *testing.B) {
	d := db.New()
	if err := job.Load(d, job.Config{Scale: benchScale, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	d.EnableCache(db.DefaultCacheBudget)
	for _, name := range []string{"3c", "9c", "16b"} {
		q, err := job.QueryByName(name)
		if err != nil {
			b.Fatal(err)
		}
		sql := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
		b.Run(name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.ClearCache()
				if _, err := d.Exec(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/warm", func(b *testing.B) {
			if _, err := d.Exec(sql); err != nil { // prime
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Exec(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerHitJOB measures the server's side of a job_warm request
// (benchmark/): Session.ExecUnboxed, the call the wire server makes, on the
// 33 JOB RESULTDB texts with the result cache on and filled. One op is one
// statement, the 33 in turn, so ns/op and allocs/op are those of an average
// cache hit before encoding: statement lookup, cache key and marks.
func BenchmarkServerHitJOB(b *testing.B) {
	d := db.Open(db.Config{Parallelism: 1, CacheEnabled: true, CacheBudget: db.DefaultCacheBudget})
	if err := job.Load(d, job.Config{Scale: benchScale, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	var stmts []string
	for _, q := range job.Queries() {
		stmts = append(stmts, "SELECT RESULTDB"+strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT"))
	}
	sess := d.NewSession()
	for _, sql := range stmts { // fill
		if _, err := sess.ExecUnboxed(sql); err != nil {
			b.Fatal(err)
		}
	}
	hits := d.CacheStats().Hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.ExecUnboxed(stmts[i%len(stmts)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := d.CacheStats().Hits - hits; got != uint64(b.N) {
		b.Fatalf("%d cache hits in %d statements, want every one a hit", got, b.N)
	}
}

// BenchmarkClientExchangeJOB is a job_warm round trip in one process: one
// client over loopback sends the 33 JOB RESULTDB statements (scale 0.5, the
// workloads') to a server whose result cache holds them all. One op is the
// 33 exchanges, so B/op and allocs/op are what both ends allocate for a
// pass: the server's cache hits and writes, the client's reads and decodes.
func BenchmarkClientExchangeJOB(b *testing.B) {
	d := db.Open(db.Config{Parallelism: 1, CacheEnabled: true, CacheBudget: db.DefaultCacheBudget})
	if err := job.Load(d, job.Config{Scale: 0.5, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	srv := wire.NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var stmts []string
	for _, q := range job.Queries() {
		stmts = append(stmts, "SELECT RESULTDB"+strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT"))
	}
	pass := func() {
		for _, sql := range stmts {
			if _, err := c.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass() // fill
	hits := d.CacheStats().Hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	if got := d.CacheStats().Hits - hits; got != uint64(b.N*len(stmts)) {
		b.Fatalf("%d cache hits in %d statements, want every one a hit", got, b.N*len(stmts))
	}
}

// BenchmarkStarClient measures the client half of the star_transfer workload
// (benchmark/): v2-decode each of its three RESULTDB PRESERVING payloads and
// run the shipped post-join plan on the decoded result.
func BenchmarkStarClient(b *testing.B) {
	d := db.New()
	if err := star.Load(d, star.DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	var payloads [][]byte
	for _, s := range []float64{0.6, 0.8, 1.0} {
		sql := "SELECT RESULTDB PRESERVING" + strings.TrimPrefix(star.Query(star.DefaultConfig(), s), "SELECT")
		res, err := d.Exec(sql)
		if err != nil {
			b.Fatal(err)
		}
		payloads = append(payloads, wire.EncodeResultV2(res))
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = 0
		for _, p := range payloads {
			res, err := wire.DecodeResultExpect(p, wire.FormatV2)
			if err != nil {
				b.Fatal(err)
			}
			pj, err := db.ExecutePostJoinPlan(res)
			if err != nil {
				b.Fatal(err)
			}
			rows += len(pj.Rows)
		}
	}
	b.ReportMetric(float64(rows), "postjoin-rows")
}

// BenchmarkStarPostJoin measures the client's post-join alone on the three
// star_transfer results, v2-decoded once before the clock starts: "join" is
// the join and projection of the decoded sets (db.SetRelations, then
// core.PostJoin), "boxed" adds boxing the joined rows (db.ExecutePostJoinPlan,
// what BenchmarkStarClient runs after decoding).
func BenchmarkStarPostJoin(b *testing.B) {
	d := db.New()
	if err := star.Load(d, star.DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	var decoded []*db.Result
	for _, s := range []float64{0.6, 0.8, 1.0} {
		sql := "SELECT RESULTDB PRESERVING" + strings.TrimPrefix(star.Query(star.DefaultConfig(), s), "SELECT")
		res, err := d.Exec(sql)
		if err != nil {
			b.Fatal(err)
		}
		if res, err = wire.DecodeResultExpect(wire.EncodeResultV2(res), wire.FormatV2); err != nil {
			b.Fatal(err)
		}
		decoded = append(decoded, res)
	}
	b.Run("join", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, res := range decoded {
				if _, err := core.PostJoin(res.PostJoinPlan.Preds, db.SetRelations(res.Sets), res.PostJoinPlan.Projection); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("boxed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, res := range decoded {
				if _, err := db.ExecutePostJoinPlan(res); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// starServerResults executes the three RESULTDB PRESERVING statements of the
// star_transfer workload (benchmark/) the way the wire server does, through
// Session.ExecUnboxed, and returns their statements and results.
func starServerResults(b *testing.B) (*db.Database, []string, []*db.Result) {
	b.Helper()
	d := db.New()
	if err := star.Load(d, star.DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	var stmts []string
	var results []*db.Result
	for _, s := range []float64{0.6, 0.8, 1.0} {
		sql := "SELECT RESULTDB PRESERVING" + strings.TrimPrefix(star.Query(star.DefaultConfig(), s), "SELECT")
		res, err := serverExec(d, sql)
		if err != nil {
			b.Fatal(err)
		}
		stmts, results = append(stmts, sql), append(results, res)
	}
	return d, stmts, results
}

// serverExec runs sql through the entry point the wire server uses.
func serverExec(d *db.Database, sql string) (*db.Result, error) {
	return d.NewSession().ExecUnboxed(sql)
}

// BenchmarkStarExec measures the server's execution of the star_transfer
// statements (one op = all three, cache off): what a result costs before it
// is encoded. Compare B/op across changes to the result representation.
func BenchmarkStarExec(b *testing.B) {
	d, stmts, _ := starServerResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sql := range stmts {
			if _, err := serverExec(d, sql); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStarEncode measures the server's v2 encode of the three
// star_transfer results (one op = all three, fresh encodes: no cache memo).
func BenchmarkStarEncode(b *testing.B) {
	_, _, results := starServerResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n = 0
		for _, res := range results {
			n += len(wire.EncodeResultV2(res))
		}
	}
	b.ReportMetric(float64(n), "bytes")
}

// BenchmarkDecodeJOB measures v2 decoding of the 33 JOB RESULTDB payloads the
// job_cold/job_warm workloads ship (small, mostly deflated columns), at the
// workloads' scale 0.5 and at the suite's benchScale, which earlier
// measurements of this benchmark used.
func BenchmarkDecodeJOB(b *testing.B) {
	for _, scale := range []float64{benchScale, 0.5} {
		e := jobEnv(b)
		if scale != benchScale {
			var err error
			if e, err = bench.NewJOBEnv(scale); err != nil {
				b.Fatal(err)
			}
		}
		var payloads [][]byte
		for _, q := range job.Queries() {
			sel, err := e.Select(q.Name)
			if err != nil {
				b.Fatal(err)
			}
			res, err := e.DB.QueryResultDB(sel, db.ModeRDB)
			if err != nil {
				b.Fatal(err)
			}
			payloads = append(payloads, wire.EncodeResultV2(res))
		}
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range payloads {
					if _, err := wire.DecodeResultExpect(p, wire.FormatV2); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCacheExtend is the probe behind the result cache's empty-delta
// check, on the statements the mixed_rw workload's writer invalidated: the 14
// JOB RESULTDB statements that read movie_keyword, at JOB scale 0.5. Before
// each timed read it commits (untimed) one 8-row INSERT into movie_keyword,
// and reports per statement:
//
//   - hit: no commit; an exact hit.
//   - extend: dangling rows (no title has their movie_id); the entry is
//     extended.
//   - recompute: dangling rows, cache cleared; what every read after a commit
//     cost before entries could extend.
//   - check-fails: a joining row (a participating row copied under a fresh
//     id) and seven dangling ones; the check runs until the joining row
//     survives, then the statement is recomputed.
//   - delta-term: the ordinary reduction with each movie_keyword alias's
//     relation replaced by a dangling 8-row tail, every other relation at the
//     new version: the least a union-merge of a non-empty delta would run.
//
// Run with -benchtime 20x; ns/op of extend over recompute is the check's
// share, check-fails over recompute its cost when it fails.
func BenchmarkCacheExtend(b *testing.B) {
	d := db.Open(db.Config{Parallelism: 1, CacheEnabled: true, CacheBudget: db.DefaultCacheBudget})
	if err := job.Load(d, job.Config{Scale: 0.5, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	next := 10_000_000
	commit := func(joining string) { // joining: "movie_id, keyword_id" of a participating row, or ""
		var rows []string
		if joining != "" {
			rows = append(rows, fmt.Sprintf("(%d, %s)", next, joining))
			next++
		}
		for len(rows) < 8 {
			rows = append(rows, fmt.Sprintf("(%d, %d, %d)", next, next, 1+next%1000))
			next++
		}
		if _, err := d.Exec("INSERT INTO movie_keyword VALUES " + strings.Join(rows, ", ")); err != nil {
			b.Fatal(err)
		}
	}
	exec := func(sql string) {
		if _, err := d.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range job.Queries() {
		sql := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			b.Fatal(err)
		}
		var mk []string
		for _, r := range sel.From {
			if r.Ref.Table == "movie_keyword" {
				mk = append(mk, r.Ref.Name())
			}
		}
		if len(mk) == 0 {
			continue
		}
		// A participating movie_keyword row: its movie_id and keyword_id.
		probe := *sel
		probe.ResultDB = false
		probe.Items = []sqlparse.SelectItem{{Star: true, Table: mk[0]}}
		res, err := d.Query(&probe)
		if err != nil {
			b.Fatal(err)
		}
		joining := ""
		if res.First().NumRows() > 0 {
			row := res.First().Rows[0]
			joining = row[1].String() + ", " + row[2].String()
		}
		timed := func(name string, before func()) {
			b.Run(q.Name+"/"+name, func(b *testing.B) {
				exec(sql)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					before()
					b.StartTimer()
					exec(sql)
				}
			})
		}
		timed("hit", func() {})
		timed("extend", func() { commit("") })
		timed("recompute", func() { commit(""); d.ClearCache() })
		if joining != "" {
			timed("check-fails", func() { commit(joining) })
		}
		b.Run(q.Name+"/delta-term", func(b *testing.B) {
			commit("")
			snap := d.Snapshot()
			plain := *sel
			plain.ResultDB = false
			spec, err := engine.AnalyzeSPJ(&plain, snap)
			if err != nil {
				b.Fatal(err)
			}
			mkTable, err := snap.Table("movie_keyword")
			if err != nil {
				b.Fatal(err)
			}
			tail := []int32{}
			for i := mkTable.Len() - 8; i < mkTable.Len(); i++ {
				tail = append(tail, int32(i))
			}
			tableStats := map[string]*stats.Table{}
			for _, r := range spec.Rels {
				t, err := snap.Table(r.Table)
				if err != nil {
					b.Fatal(err)
				}
				tableStats[r.Table] = stats.Of(t)
			}
			ex := &engine.Executor{Src: snap, Parallelism: 1,
				StatsOf: func(table string) *stats.Table { return tableStats[table] }}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rels := map[string]*engine.Relation{}
				for _, r := range spec.Rels {
					var sel []int32
					if r.Table == "movie_keyword" {
						sel = tail
					}
					rel, err := ex.ScanRows(r, spec.Filters[r.Alias], sel)
					if err != nil {
						b.Fatal(err)
					}
					rels[strings.ToLower(r.Alias)] = rel
				}
				if _, _, err := core.SemiJoinReduce(ex, spec, rels, spec.OutputRels(), core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
