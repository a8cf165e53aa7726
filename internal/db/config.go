package db

import (
	"os"
	"strings"

	"resultdb/internal/cache"
	"resultdb/internal/catalog"
	"resultdb/internal/core"
	"resultdb/internal/parallel"
)

// Config collects every construction-time knob of a Database in one value.
// Build one with DefaultConfig, optionally layer the RESULTDB_* environment
// over it with FromEnv, adjust fields, and pass it to Open:
//
//	d := db.Open(db.DefaultConfig().FromEnv())
//
// db.New() is exactly that one-liner. The zero Config is usable and means
// the same as DefaultConfig: semi-join strategy, auto parallelism, no cache.
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
	// (RESULTDB_PARALLELISM, else GOMAXPROCS), 1 = serial, n > 1 = n
	// workers. Results are identical at any degree.
	Parallelism int
	// CacheEnabled turns the semantic result cache on.
	CacheEnabled bool
	// CacheBudget is the result cache's byte budget (0 = DefaultCacheBudget).
	// Meaningful only with CacheEnabled.
	CacheBudget int64
	// CommitLog, when non-nil, is installed as the durability hook (the
	// equivalent of SetCommitLog at construction time). internal/durable
	// installs its manager itself after recovery, so most callers leave
	// this nil.
	CommitLog CommitLog
}

// Environment variables read by Config.FromEnv (and therefore by db.New).
// All RESULTDB_* parsing lives in this file.
const (
	// CacheEnvVar configures the result cache:
	//
	//	RESULTDB_CACHE=on          enable with the default budget
	//	RESULTDB_CACHE=256MB       enable with a 256 MB budget (KB/MB/GB/KiB/...)
	//	RESULTDB_CACHE=1048576     enable with a byte budget
	//	RESULTDB_CACHE=off         disable (the default when unset)
	CacheEnvVar = "RESULTDB_CACHE"

	// ParallelismEnvVar overrides the auto parallelism degree; it is also
	// honored lazily by internal/parallel when Parallelism is left at 0.
	ParallelismEnvVar = parallel.EnvVar
)

// DefaultConfig returns the paper-default configuration: semi-join strategy,
// auto parallelism, cache off.
func DefaultConfig() Config {
	return Config{
		Strategy:    StrategySemiJoin,
		Parallelism: core.DefaultOptions().Parallelism,
		CacheBudget: DefaultCacheBudget,
	}
}

// FromEnv returns a copy of c with the RESULTDB_* environment variables
// applied on top: RESULTDB_CACHE and RESULTDB_PARALLELISM.
// Unset or unparsable variables leave the receiver's values untouched.
func (c Config) FromEnv() Config {
	switch envToggle(CacheEnvVar) {
	case envOn:
		c.CacheEnabled = true
		c.CacheBudget = DefaultCacheBudget
	case envOff:
		c.CacheEnabled = false
	case envOther:
		if budget, err := ParseByteSize(os.Getenv(CacheEnvVar)); err == nil && budget > 0 {
			c.CacheEnabled = true
			c.CacheBudget = budget
		}
	}
	if p := parallel.EnvDegree(); p > 0 && c.Parallelism == 0 {
		c.Parallelism = p
	}
	return c
}

type envState uint8

const (
	envUnset envState = iota
	envOn
	envOff
	envOther
)

// envToggle classifies a boolean-ish environment variable.
func envToggle(name string) envState {
	switch strings.ToLower(strings.TrimSpace(os.Getenv(name))) {
	case "":
		return envUnset
	case "on", "1", "true", "yes":
		return envOn
	case "off", "0", "false", "no":
		return envOff
	default:
		return envOther
	}
}

// Open constructs a Database from a Config. This is the one construction
// path; New is Open over DefaultConfig().FromEnv().
func Open(cfg Config) *Database {
	d := &Database{
		cat:         catalog.New(),
		Strategy:    cfg.Strategy,
		CoreOptions: core.DefaultOptions(),
		resultCache: cache.New[*Result](DefaultCacheBudget),
		commitLog:   cfg.CommitLog,
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

// New returns an empty database with the paper-default RESULTDB options,
// honoring the RESULTDB_* environment variables (see Config.FromEnv).
func New() *Database {
	return Open(DefaultConfig().FromEnv())
}
