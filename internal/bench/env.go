// Package bench regenerates every table and figure of the paper's
// evaluation (Section 6) against the synthetic workloads:
//
//	Table 1  — result set sizes and compression ratios (ST vs RDBRP vs RDB)
//	Figure 7 — theoretical star-schema result sizes over filter selectivity
//	Figure 8 — query execution time of rewrite methods RM 1-4
//	Table 2  — overhead of the best rewrite method vs single-table
//	Figure 9 — native RESULTDB-SEMIJOIN vs Single Table + Decompose
//	Table 3  — end-to-end runtime with data transfer and post-join
//
// plus two ablations for the paper's open enumeration problems (root-node
// choice, fold choice). Each experiment returns structured rows and has a
// Format* companion producing paper-style text output.
package bench

import (
	"fmt"
	"sort"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/sqlparse"
	"resultdb/internal/workload/job"
)

// Env is a loaded benchmark database plus its workload metadata.
type Env struct {
	DB  *db.Database
	Cfg job.Config
	// Reps is how many runs feed each median (the paper uses 5).
	Reps int
	// sels caches parsed query ASTs.
	sels map[string]*sqlparse.Select
}

// NewJOBEnv loads the JOB-like workload at the given scale (1.0 = default).
func NewJOBEnv(scale float64) (*Env, error) {
	cfg := job.DefaultConfig()
	if scale > 0 {
		cfg.Scale = scale
	}
	d := db.New()
	if err := job.Load(d, cfg); err != nil {
		return nil, err
	}
	return &Env{DB: d, Cfg: cfg, Reps: 5, sels: make(map[string]*sqlparse.Select)}, nil
}

// Select returns the parsed AST of a named JOB query.
func (e *Env) Select(name string) (*sqlparse.Select, error) {
	if sel, ok := e.sels[name]; ok {
		return sel, nil
	}
	q, err := job.QueryByName(name)
	if err != nil {
		return nil, err
	}
	sel, err := sqlparse.ParseSelect(q.SQL)
	if err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", name, err)
	}
	e.sels[name] = sel
	return sel, nil
}

// median runs fn reps times and returns the median duration. fn's result
// error aborts.
func median(reps int, fn func() error) (time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// kib renders bytes as KiB with two decimals, the paper's Table 1 unit.
func kib(bytes int) float64 { return float64(bytes) / 1024 }

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
