package main

import (
	"fmt"
	"math/rand"
	"strings"

	"resultdb/internal/db"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

// request is one statement a client sends; name keys its golden digest.
type request struct {
	name, sql string
}

// workload is one traffic mix: how the server is started, what the clients
// send, and how the same database is built in-process for the traced run.
type workload struct {
	name string
	// why states the reason the workload exists; it is mirrored in
	// BENCHMARK.json and README.md.
	why string
	// serverArgs are the resultdbd flags besides -addr and -data-dir.
	serverArgs []string
	// cache says the server's result cache is on; durable that it runs on a
	// data directory with fsync always; writer that one connection is the
	// open-loop writer instead of a reader.
	cache, durable, writer bool
	// load fills an in-process database with the data the server preloads.
	load     func(*db.Database) error
	requests []request
	// table is the table writer statements insert into, and rest renders
	// the columns after the primary key: foreign keys that point beyond the
	// generated id range, so no query result changes.
	table string
	rest  func(rng *rand.Rand) string
}

const (
	jobScale = 0.5
	// writerHz is the open-loop commit rate of the mixed_rw writer.
	writerHz = 20
	// rowsPerCommit is the number of rows each writer INSERT carries.
	rowsPerCommit = 8
	// danglingBase is the first id the writer uses, for primary and foreign
	// keys alike; every generated id is far below it.
	danglingBase = 10_000_000
)

func loadJob(d *db.Database) error  { return job.Load(d, job.Config{Scale: jobScale, Seed: 42}) }
func loadStar(d *db.Database) error { return star.Load(d, star.DefaultConfig()) }

func jobRequests() []request {
	var reqs []request
	for _, q := range job.Queries() {
		reqs = append(reqs, request{q.Name, "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")})
	}
	return reqs
}

func starRequests() []request {
	var reqs []request
	for _, s := range []float64{0.6, 0.8, 1.0} {
		sql := star.Query(star.DefaultConfig(), s)
		reqs = append(reqs, request{fmt.Sprintf("s%.1f", s), "SELECT RESULTDB PRESERVING" + strings.TrimPrefix(sql, "SELECT")})
	}
	return reqs
}

// insert renders the i-th writer statement; row j of commit i gets the
// primary key danglingBase + i*rowsPerCommit + j, which is what the crash
// check looks for after the restart.
func (w *workload) insert(i int, rng *rand.Rand) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", w.table)
	for j := 0; j < rowsPerCommit; j++ {
		if j > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %s)", danglingBase+i*rowsPerCommit+j, w.rest(rng))
	}
	return b.String()
}

// writerRows selects the primary keys of every row a writer inserted.
func (w *workload) writerRows() string {
	return fmt.Sprintf("SELECT x.id FROM %s AS x WHERE x.id >= %d", w.table, danglingBase)
}

func jobRest(rng *rand.Rand) string {
	return fmt.Sprintf("%d, %d", danglingBase+rng.Intn(1_000_000), 1+rng.Intn(1000))
}

func starRest(rng *rand.Rand) string {
	k := danglingBase + rng.Intn(1_000_000)
	return fmt.Sprintf("%d, %d, %d, %.3f", k, k+1, k+2, rng.Float64()*1000)
}

func jobArgs(extra ...string) []string {
	return append([]string{"-workload", "job", "-scale", fmt.Sprint(jobScale)}, extra...)
}

func workloads() []*workload {
	return []*workload{
		{
			name:       "job_cold",
			why:        "33 JOB templates as SELECT RESULTDB, cache off: engine scans and core reduce/decompose do nearly all the work",
			serverArgs: jobArgs(),
			load:       loadJob, requests: jobRequests(), table: "movie_keyword", rest: jobRest,
		},
		{
			name:       "job_warm",
			why:        "same statements with the result cache on and filled: bypasses engine and core, leaving parse, cache lookup and wire encode",
			serverArgs: jobArgs("-cache", "-cache-budget", "64MiB"),
			cache:      true,
			load:       loadJob, requests: jobRequests(), table: "movie_keyword", rest: jobRest,
		},
		{
			name:       "star_transfer",
			why:        "star schema RESULTDB PRESERVING plus client post-join on 27-120 KB payloads: the only mix where decode, post-join and payload size matter",
			serverArgs: []string{"-workload", "star"},
			load:       loadStar, requests: starRequests(), table: "fact", rest: starRest,
		},
		{
			name:       "mixed_rw",
			why:        "job_warm reader beside a 20 commits/s durable writer: invalidation, COW publish and WAL fsync run next to reads",
			serverArgs: jobArgs("-cache", "-cache-budget", "64MiB", "-fsync", "always"),
			cache:      true, durable: true, writer: true,
			load: loadJob, requests: jobRequests(), table: "movie_keyword", rest: jobRest,
		},
	}
}
