package main

import (
	"testing"

	"resultdb/internal/db"
)

// TestCacheFlagsOverrideEnvironment: -cache -cache-budget set the cache's
// budget over whatever RESULTDB_CACHE configured, in memory and on a durable
// data directory alike.
func TestCacheFlagsOverrideEnvironment(t *testing.T) {
	t.Setenv(db.CacheEnvVar, "on") // the default 64 MiB budget
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"in-memory", nil},
		{"durable", []string{"-data-dir", t.TempDir(), "-fsync", "off"}},
	} {
		o := parseFlags(append([]string{"-workload", "none", "-cache", "-cache-budget", "1MiB"}, tc.args...))
		d, mgr, err := openDatabase(o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if mgr != nil {
			defer mgr.Close()
		}
		if !d.CacheEnabled() {
			t.Errorf("%s: cache off after -cache", tc.name)
		}
		if b := d.CacheStats().Budget; b != 1<<20 {
			t.Errorf("%s: cache budget %d after -cache-budget 1MiB under %s=on, want %d", tc.name, b, db.CacheEnvVar, 1<<20)
		}
	}
}
