package db

import "testing"

func TestDefaultConfigMatchesCoreDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Strategy != StrategySemiJoin {
		t.Errorf("Strategy = %v, want semi-join", cfg.Strategy)
	}
	if cfg.Parallelism != 0 {
		t.Errorf("Parallelism = %d, want 0 (auto)", cfg.Parallelism)
	}
	if cfg.CacheEnabled {
		t.Error("cache must default off")
	}
	if cfg.CacheBudget != DefaultCacheBudget {
		t.Errorf("CacheBudget = %d, want default %d", cfg.CacheBudget, DefaultCacheBudget)
	}
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
	if d.CoreOptions != (ExecOptions{Parallelism: 5, ResultCache: true}) {
		t.Errorf("execution options not wired: %+v", d.CoreOptions)
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
