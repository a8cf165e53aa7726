package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/durable"
	"resultdb/internal/sqlparse"
	"resultdb/internal/trace"
	"resultdb/internal/wal"
	"resultdb/internal/wire"
)

// span is one timed interval of the traced run. A request's root span covers
// the client-side op; its children are recorded by replaying the statement
// against the same database, calling each layer's public functions from the
// outside, so they start after the root ended. OffPath marks a probe of a
// layer this workload's server does not run on the request path (or runs
// inside another child); it is left out of the accounted share.
type span struct {
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	Parent     int    `json:"parent"` // index of the parent span, -1 for a root
	Request    int    `json:"request"`
	OffPath    bool   `json:"off_path,omitempty"`
	Mallocs    uint64 `json:"mallocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// timed runs fn as a span and returns the span's index.
func (t *tracer) timed(name string, parent, request int, offPath bool, fn func()) int {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	runtime.ReadMemStats(&m1)
	t.spans = append(t.spans, span{
		Name: name, StartNS: int64(start), EndNS: int64(end), Parent: parent, Request: request, OffPath: offPath,
		Mallocs: m1.Mallocs - m0.Mallocs, AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
	})
	return len(t.spans) - 1
}

// acc sums the spans of one name.
type acc struct {
	n                   int
	dur                 time.Duration
	mallocs, allocBytes uint64
}

func (a *acc) add(s span) {
	a.n++
	a.dur += s.dur()
	a.mallocs += s.Mallocs
	a.allocBytes += s.AllocBytes
}

func (a *acc) meanUS() float64 {
	if a.n == 0 {
		return 0
	}
	return us(a.dur) / float64(a.n)
}

func (a *acc) meanMallocs() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.mallocs) / float64(a.n)
}

// phaseTimes splits one engine trace into the benchmark's layer vocabulary:
// scan spans, reduction spans, and the rest of the execution's wall time.
// The rest is the decompose and output phases: the engine times neither the
// output projection nor planning today, so a residual is the only way to see
// them from outside.
type phaseTimes struct {
	scan, reduce, decompose time.Duration
	semijoins               int
}

func splitPhases(tr *trace.Trace) phaseTimes {
	var p phaseTimes
	for _, sp := range tr.Spans {
		d := time.Duration(sp.BuildNS + sp.ProbeNS + sp.DurNS)
		switch sp.Phase {
		case "scan":
			p.scan += d
		case "bloom-prefilter", "bottom-up", "top-down", "fold", "join":
			p.reduce += d
		}
		if sp.Op == "semi-join" || sp.Op == "bloom-semi-join" {
			p.semijoins++
		}
	}
	p.decompose = time.Duration(tr.WallNS) - p.scan - p.reduce
	return p
}

// preserving rewrites a SELECT RESULTDB statement to ship a post-join plan.
func preserving(sql string) string {
	if strings.HasPrefix(sql, "SELECT RESULTDB PRESERVING") {
		return sql
	}
	return "SELECT RESULTDB PRESERVING" + strings.TrimPrefix(sql, "SELECT RESULTDB")
}

// tracedPassesMin is how many traced passes over the request list a run
// makes at least, however short its window.
const tracedPassesMin = 5

// runTraced gives the per-layer numbers: one goroutine drives an in-process
// wire server over loopback and, after each request, replays the statement
// layer by layer. Untraced passes alternate with traced ones, so the two can
// be compared. End-to-end metrics never come from here.
func runTraced(l layout, w *workload, o oracle, seed int64, window time.Duration, minPasses int) (*result, error) {
	cfg := db.DefaultConfig()
	cfg.CacheEnabled = w.cache
	d := db.Open(cfg)
	if err := w.load(d); err != nil {
		return nil, fmt.Errorf("%s: load: %w", w.name, err)
	}
	srv := wire.NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	sess := d.NewSession() // the configuration the workload's server runs
	uncached := d.NewSession()
	uncached.CoreOptions.ResultCache = false
	cached := d.NewSession()
	cached.CoreOptions.ResultCache = true

	// mixed_rw's defining load: a writer that invalidates cached results at
	// a constant rate while the reader is replayed.
	stopWriter := make(chan struct{})
	var writer sync.WaitGroup
	if w.writer {
		writer.Add(1)
		go func() {
			defer writer.Done()
			wsess := d.NewSession()
			rng := rand.New(rand.NewSource(seed + 99))
			tick := time.NewTicker(time.Second / writerHz)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stopWriter:
					return
				case <-tick.C:
					wsess.Exec(w.insert(i, rng))
				}
			}
		}()
	}

	r := &result{Metrics: map[string]metric{}}
	rng := rand.New(rand.NewSource(seed))
	tr := &tracer{t0: time.Now()}
	aggs := map[string]*acc{}
	get := func(name string) *acc {
		if aggs[name] == nil {
			aggs[name] = &acc{}
		}
		return aggs[name]
	}
	agg := func(i int) { get(tr.spans[i].Name).add(tr.spans[i]) }
	var hit acc // executions the result cache answered
	var (
		rootDur, onPathDur, untracedDur time.Duration
		untracedOps, requests           int
		phases                          phaseTimes
		counters                        trace.Counters
		parDegree                       int
		payloadBytes, v1Bytes, pjRows   int
		replayErr                       error
	)
	fail := func(err error) {
		r.Failed++
		if replayErr == nil {
			replayErr = err
		}
	}

	untracedPass := func(count bool) {
		for _, i := range rng.Perm(len(w.requests)) {
			req := w.requests[i]
			t0 := time.Now()
			res, pj, err := readOp(c, req.sql)
			lat := time.Since(t0)
			r.Attempted++
			if err != nil || !o.check(w, req, res, pj) {
				fail(fmt.Errorf("%s %s: wrong or failed response: %v", w.name, req.name, err))
				continue
			}
			if count {
				untracedDur += lat
				untracedOps++
			}
		}
	}

	tracedPass := func() {
		for _, i := range rng.Perm(len(w.requests)) {
			req := w.requests[i]
			id := requests
			requests++
			r.Attempted++

			// The op itself: what a client of the workload does and waits for.
			root := len(tr.spans)
			tr.spans = append(tr.spans, span{Name: "request", Parent: -1, Request: id, StartNS: int64(time.Since(tr.t0))})
			res, err := c.Exec(req.sql)
			tr.spans[root].EndNS = int64(time.Since(tr.t0))

			var onPath time.Duration
			// step times one child of this request and books it.
			step := func(name string, offPath bool, fn func()) span {
				k := tr.timed(name, root, id, offPath, fn)
				agg(k)
				if !offPath {
					onPath += tr.spans[k].dur()
				}
				return tr.spans[k]
			}

			var pj *db.ResultSet
			if err == nil && res.PostJoinPlan != nil {
				// The post-join belongs to the op: stretch the root over it.
				sp := step("postjoin", false, func() { pj, err = db.ExecutePostJoinPlan(res) })
				tr.spans[root].EndNS = sp.EndNS
			}
			if err != nil || !o.check(w, req, res, pj) {
				fail(fmt.Errorf("%s %s: wrong or failed response: %v", w.name, req.name, err))
				continue
			}
			if pj != nil {
				pjRows += len(pj.Rows)
			}

			// The replay: the same statement through each layer's public
			// entry points, one child span per layer.
			var st sqlparse.Statement
			step("parse", false, func() { st, err = sqlparse.Parse(req.sql) })
			sel, ok := st.(*sqlparse.Select)
			if err != nil || !ok {
				fail(fmt.Errorf("%s %s: parse: %v", w.name, req.name, err))
				continue
			}
			sel.Src = req.sql

			// The server canonicalises only inside a cached execution, where
			// the exec span already contains it.
			step("canonical", true, func() {
				sqlparse.Canonical(sel)
				sqlparse.Tables(sel)
			})

			var out *db.Result
			hits := d.CacheStats().Hits
			lookup := step("exec", false, func() { out, err = sess.ExecStatement(sel) })
			if err != nil {
				fail(fmt.Errorf("%s %s: exec: %w", w.name, req.name, err))
				continue
			}
			if !w.cache {
				// What a hit on this statement would cost if the cache were on.
				hits = d.CacheStats().Hits
				lookup = step("cache-probe", true, func() { _, err = cached.ExecStatement(sel) })
			}
			if err == nil && d.CacheStats().Hits == hits+1 {
				hit.add(lookup)
			}

			var payload []byte
			step("encode", false, func() {
				payload = wire.EncodeResultOptions(out, wire.EncodeOptions{Version: wire.FormatV2})
			})
			payloadBytes += len(payload)
			v1Bytes += len(wire.EncodeResult(out))

			step("decode", false, func() { _, err = wire.DecodeResultExpect(payload, wire.FormatV2) })
			if err != nil {
				fail(fmt.Errorf("%s %s: decode: %w", w.name, req.name, err))
				continue
			}

			// What the post-join would cost a client that asked this
			// statement PRESERVING (the paper's Table 3 on JOB).
			if res.PostJoinPlan == nil {
				if pres, err := uncached.Exec(preserving(req.sql)); err == nil {
					step("postjoin", true, func() { pj, err = db.ExecutePostJoinPlan(pres) })
					if err == nil {
						pjRows += len(pj.Rows)
					}
				}
			}

			// The engine's own spans split the execution into scan, reduce
			// and decompose; this is one more execution, off the path.
			var etr *trace.Trace
			step("traced-exec", true, func() { _, etr, err = uncached.QueryWithTrace(sel) })
			if err != nil {
				fail(fmt.Errorf("%s %s: traced exec: %w", w.name, req.name, err))
				continue
			}
			p := splitPhases(etr)
			phases.scan += p.scan
			phases.reduce += p.reduce
			phases.decompose += p.decompose
			phases.semijoins += p.semijoins
			counters.RowsScanned += etr.Counters.RowsScanned
			counters.RowsDropped += etr.Counters.RowsDropped
			counters.RowsOut += etr.Counters.RowsOut
			parDegree = etr.Parallelism

			rootDur += tr.spans[root].dur()
			onPathDur += onPath
			agg(root)
		}
	}

	untracedPass(false) // warm-up: fills the cache and builds the frames
	cache0 := d.CacheStats()
	for pass := 0; pass < minPasses || time.Since(tr.t0) < window; pass++ {
		untracedPass(true)
		tracedPass()
	}
	close(stopWriter)
	writer.Wait()
	cache1 := d.CacheStats()

	if err := writeProbe(l, w, d, seed, r); err != nil {
		return nil, err
	}
	if get("request").n == 0 {
		return nil, fmt.Errorf("%s: no traced request succeeded: %w", w.name, replayErr)
	}
	if err := writeTrace(l, w, seed, tr); err != nil {
		return nil, err
	}

	n := float64(get("request").n)
	per := func(total float64) float64 { return total / n }
	r.Samples = int(n)
	r.set("sqlparse.parse_us", get("parse").meanUS(), "us")
	r.set("sqlparse.canonical_us", get("canonical").meanUS(), "us")
	r.set("sqlparse.allocs", get("parse").meanMallocs()+get("canonical").meanMallocs(), "count")

	lookups := float64(cache1.Hits-cache0.Hits) + float64(cache1.Misses-cache0.Misses)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(cache1.Hits-cache0.Hits) / lookups
	}
	r.set("cache.hit_ratio", hitRatio, "ratio")
	r.set("cache.hit_us", hit.meanUS(), "us")
	r.set("cache.hit_allocs", hit.meanMallocs(), "count")
	r.set("cache.invalidations", float64(cache1.Invalidations-cache0.Invalidations), "count")
	r.set("cache.evictions", float64(cache1.Evictions-cache0.Evictions), "count")
	r.set("cache.collapsed", float64(cache1.Collapsed-cache0.Collapsed), "count")
	r.set("cache.resident_bytes", float64(cache1.Bytes), "bytes")

	exec := get("exec")
	r.set("db.exec_us", exec.meanUS(), "us")
	r.set("db.exec_allocs", exec.meanMallocs(), "count")
	r.set("db.exec_alloc_bytes", float64(exec.allocBytes)/n, "bytes")

	r.set("engine.scan_us", per(us(phases.scan)), "us")
	r.set("engine.rows_scanned", per(float64(counters.RowsScanned)), "count")
	r.set("core.reduce_us", per(us(phases.reduce)), "us")
	r.set("core.semijoin_passes", per(float64(phases.semijoins)), "count")
	r.set("core.rows_dropped", per(float64(counters.RowsDropped)), "count")
	r.set("core.decompose_us", per(us(phases.decompose)), "us")
	r.set("core.rows_out", per(float64(counters.RowsOut)), "count")
	r.set("core.rows_scanned_per_row_out", float64(counters.RowsScanned)/float64(counters.RowsOut), "ratio")
	r.set("core.par_degree", float64(parDegree), "count")

	ss := srv.Stats()
	r.set("wire.encode_us", get("encode").meanUS(), "us")
	r.set("wire.encode_allocs", get("encode").meanMallocs(), "count")
	r.set("wire.payload_bytes", per(float64(payloadBytes)), "bytes")
	r.set("wire.v1_bytes", per(float64(v1Bytes)), "bytes")
	r.set("wire.decode_us", get("decode").meanUS(), "us")
	r.set("wire.decode_allocs", get("decode").meanMallocs(), "count")
	r.set("wire.transport_us", per(us(rootDur-onPathDur)), "us")
	r.set("wire.query_errors", float64(ss.QueryErrors), "count")
	r.set("wire.write_stalls", float64(ss.WriteStalls), "count")
	r.set("wire.backpressure_waits", float64(ss.BackpressureWaits), "count")

	r.set("client.postjoin_us", get("postjoin").meanUS(), "us")
	r.set("client.postjoin_rows", per(float64(pjRows)), "count")

	r.set("trace.request_us", per(us(rootDur)), "us")
	r.set("trace.accounted_share", float64(onPathDur)/float64(rootDur), "ratio")
	r.set("trace.overhead_ratio", per(us(rootDur))/(us(untracedDur)/float64(untracedOps)), "ratio")
	return r, nil
}

// probeCommits is how many durable commits the write probe times.
const probeCommits = 40

// writeProbe measures the write path the same way on every workload: commits
// into the in-memory database (apply and copy-on-write publish), then the
// same commits into a durable copy of the workload's data in a temporary
// directory (adds WAL append and fsync), a checkpoint, and a recovery.
func writeProbe(l layout, w *workload, mem *db.Database, seed int64, r *result) error {
	rng := rand.New(rand.NewSource(seed + 7))
	stmts := make([]string, probeCommits+probeCommits/2)
	stmtBytes := 0
	for i := range stmts {
		// Keys clear of the ones mixed_rw's writer used during the replay.
		stmts[i] = w.insert(1_000_000+i, rng)
		stmtBytes += len(stmts[i])
	}
	commit := func(sess *db.Session, sql string) time.Duration {
		t0 := time.Now()
		_, err := sess.Exec(sql)
		r.Attempted++
		if err != nil {
			r.Failed++
		}
		return time.Since(t0)
	}

	var memDur time.Duration
	sess := mem.NewSession()
	for _, sql := range stmts[:probeCommits] {
		memDur += commit(sess, sql)
	}
	r.set("db.insert_us_per_row", us(memDur)/(probeCommits*rowsPerCommit), "us")

	dir, err := os.MkdirTemp(l.out, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := durable.Options{Dir: dir, Fsync: wal.SyncAlways}
	mgr, d, err := durable.Open(opts, w.load)
	if err != nil {
		return fmt.Errorf("write probe: open: %w", err)
	}
	sess = d.NewSession()
	var walDur time.Duration
	for _, sql := range stmts[:probeCommits] {
		walDur += commit(sess, sql)
	}
	st := mgr.Stats()
	r.set("wal.commit_us", us(walDur)/probeCommits, "us")
	r.set("wal.bytes_per_commit", float64(st.Wal.Bytes)/probeCommits, "bytes")
	r.set("wal.fsyncs_per_commit", float64(st.Wal.Fsyncs)/probeCommits, "count")
	shared := 0.0
	if st.Wal.SyncRequests > 0 {
		shared = float64(st.Wal.GroupShared) / float64(st.Wal.SyncRequests)
	}
	r.set("wal.group_shared_ratio", shared, "ratio")

	t0 := time.Now()
	if err := mgr.Checkpoint(); err != nil {
		mgr.Close()
		return fmt.Errorf("write probe: checkpoint: %w", err)
	}
	r.set("durable.checkpoint_ms", ms(time.Since(t0)), "ms")
	r.set("durable.checkpoint_bytes", float64(mgr.Stats().CheckpointBytes-st.CheckpointBytes), "bytes")

	// Commits after the checkpoint are what recovery has to replay.
	for _, sql := range stmts[probeCommits:] {
		commit(sess, sql)
	}
	r.set("wal.write_amp", float64(mgr.Stats().Wal.Bytes)/float64(stmtBytes), "ratio")
	if err := mgr.Close(); err != nil {
		return fmt.Errorf("write probe: close: %w", err)
	}
	t0 = time.Now()
	mgr, d, err = durable.Open(opts, nil)
	if err != nil {
		return fmt.Errorf("write probe: recover: %w", err)
	}
	defer mgr.Close()
	r.set("durable.recovery_ms", ms(time.Since(t0)), "ms")
	r.set("durable.replayed_records", float64(mgr.Stats().Replayed), "count")
	res, err := d.NewSession().Exec(w.writerRows())
	r.Attempted++
	if err != nil || len(res.First().Rows) != len(stmts)*rowsPerCommit {
		r.Failed++
	}
	return nil
}

// writeTrace writes the run's spans to out/trace_<workload>.json.
func writeTrace(l layout, w *workload, seed int64, tr *tracer) error {
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(l.out, "trace_"+w.name+".json"), raw, 0o644)
}
