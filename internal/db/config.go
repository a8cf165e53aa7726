package db

import (
	"resultdb/internal/cache"
	"resultdb/internal/core"
)

// Config collects every construction-time knob of a Database in one value.
// Build one with DefaultConfig, adjust fields, and pass it to Open:
//
//	d := db.Open(db.DefaultConfig())
//
// db.New() is exactly that one-liner; no environment variable is read.
// The zero Config is usable and means the same as DefaultConfig: semi-join
// strategy, auto parallelism, no cache.
// There is one planner and no knob for it: reduction and the greedy join order
// are planned with one cardinality model (stats.KeyNDV and its containment
// steps) from each table version's statistics, derived lazily (ANALYZE derives
// them eagerly) and extended, not rebuilt, as the table grows. Per-connection
// overrides go through Session.Strategy and Session.CoreOptions.
type Config struct {
	// Strategy selects the SELECT RESULTDB execution strategy
	// (StrategySemiJoin, the paper's Algorithm 4, is the default).
	Strategy Strategy
	// Parallelism is the intra-query parallelism degree: 0 = auto
	// (GOMAXPROCS), 1 = serial, n > 1 = n workers. Results are identical at
	// any degree.
	Parallelism int
	// CacheEnabled turns the semantic result cache on.
	CacheEnabled bool
	// CacheBudget is the result cache's byte budget (0 = DefaultCacheBudget).
	// Meaningful only with CacheEnabled.
	CacheBudget int64
}

// DefaultConfig returns the paper-default configuration: semi-join strategy,
// auto parallelism, cache off.
func DefaultConfig() Config {
	return Config{
		Strategy:    StrategySemiJoin,
		Parallelism: core.DefaultOptions().Parallelism,
		CacheBudget: DefaultCacheBudget,
	}
}

// Open constructs a Database from a Config. This is the one construction
// path; New is Open over DefaultConfig().
func Open(cfg Config) *Database {
	d := &Database{
		Strategy:    cfg.Strategy,
		CoreOptions: core.DefaultOptions(),
		resultCache: cache.New[*Result](DefaultCacheBudget),
	}
	d.state.Store(emptyState())
	d.CoreOptions.Parallelism = cfg.Parallelism
	if cfg.CacheEnabled {
		budget := cfg.CacheBudget
		if budget <= 0 {
			budget = DefaultCacheBudget
		}
		d.CoreOptions.ResultCache = true
		d.resultCache.SetBudget(budget)
	}
	return d
}

// New returns an empty database with the paper-default RESULTDB options.
func New() *Database {
	return Open(DefaultConfig())
}
