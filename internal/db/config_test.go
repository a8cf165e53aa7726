package db

import (
	"testing"

	"resultdb/internal/core"
)

func TestDefaultConfigMatchesCoreDefaults(t *testing.T) {
	cfg := DefaultConfig()
	opts := core.DefaultOptions()
	if cfg.Strategy != StrategySemiJoin {
		t.Errorf("Strategy = %v, want semi-join", cfg.Strategy)
	}
	if cfg.Parallelism != opts.Parallelism {
		t.Errorf("engine knobs diverge from core defaults: %+v vs %+v", cfg, opts)
	}
	if cfg.CacheEnabled {
		t.Error("cache must default off")
	}
	if cfg.CacheBudget != DefaultCacheBudget {
		t.Errorf("CacheBudget = %d, want default %d", cfg.CacheBudget, DefaultCacheBudget)
	}
}

func TestConfigFromEnv(t *testing.T) {
	t.Run("cache toggle and budget", func(t *testing.T) {
		t.Setenv(CacheEnvVar, "on")
		if cfg := DefaultConfig().FromEnv(); !cfg.CacheEnabled || cfg.CacheBudget != DefaultCacheBudget {
			t.Errorf("RESULTDB_CACHE=on: %+v", cfg)
		}
		t.Setenv(CacheEnvVar, "32MiB")
		if cfg := DefaultConfig().FromEnv(); !cfg.CacheEnabled || cfg.CacheBudget != 32<<20 {
			t.Errorf("RESULTDB_CACHE=32MiB: enabled=%v budget=%d", cfg.CacheEnabled, cfg.CacheBudget)
		}
		t.Setenv(CacheEnvVar, "off")
		if cfg := DefaultConfig().FromEnv(); cfg.CacheEnabled {
			t.Error("RESULTDB_CACHE=off left the cache on")
		}
		t.Setenv(CacheEnvVar, "certainly not a size")
		if cfg := DefaultConfig().FromEnv(); cfg.CacheEnabled {
			t.Error("unparsable RESULTDB_CACHE enabled the cache")
		}
	})
	t.Run("parallelism fills only the auto value", func(t *testing.T) {
		t.Setenv(ParallelismEnvVar, "3")
		if cfg := DefaultConfig().FromEnv(); cfg.Parallelism != 3 {
			t.Errorf("Parallelism = %d, want 3 from env", cfg.Parallelism)
		}
		base := DefaultConfig()
		base.Parallelism = 2
		if cfg := base.FromEnv(); cfg.Parallelism != 2 {
			t.Errorf("explicit Parallelism overridden by env: %d", cfg.Parallelism)
		}
	})
	t.Run("unset env is a no-op", func(t *testing.T) {
		t.Setenv(CacheEnvVar, "")
		t.Setenv(ParallelismEnvVar, "")
		if got, want := DefaultConfig().FromEnv(), DefaultConfig(); got != want {
			t.Errorf("FromEnv with empty env changed the config: %+v vs %+v", got, want)
		}
	})
}

func TestOpenWiresConfig(t *testing.T) {
	cfg := Config{
		Strategy:     StrategyDecompose,
		Parallelism:  5,
		CacheEnabled: true,
		CacheBudget:  123456,
	}
	d := Open(cfg)
	if d.Strategy != StrategyDecompose {
		t.Error("strategy not wired")
	}
	if d.CoreOptions.Parallelism != 5 {
		t.Errorf("core options not wired: %+v", d.CoreOptions)
	}
	if !d.CacheEnabled() {
		t.Error("cache not enabled")
	}
	if got := d.CacheStats().Budget; got != 123456 {
		t.Errorf("cache budget = %d, want 123456", got)
	}
	// CacheEnabled with a zero budget falls back to the default.
	d2 := Open(Config{CacheEnabled: true})
	if got := d2.CacheStats().Budget; got != DefaultCacheBudget {
		t.Errorf("zero budget = %d, want default %d", got, DefaultCacheBudget)
	}
	// The zero config is usable: everything off, statements still execute.
	d3 := Open(Config{})
	if d3.CacheEnabled() {
		t.Error("zero config did not turn everything off")
	}
	if _, err := d3.Exec("CREATE TABLE z (id INTEGER)"); err != nil {
		t.Fatal(err)
	}
}
