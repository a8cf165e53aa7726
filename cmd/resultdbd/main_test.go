package main

import (
	"strings"
	"testing"
)

// TestCacheFlagsOverrideEnvironment: -cache -cache-budget turn the cache on
// with that budget, in place of the default 64 MiB, in memory and on a
// durable data directory alike.
func TestCacheFlagsOverrideEnvironment(t *testing.T) {
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
			t.Errorf("%s: cache budget %d after -cache-budget 1MiB, want %d", tc.name, b, 1<<20)
		}
	}
}

// TestNegativeSizeFlagsFail: a negative size, count or duration flag is an
// error, not a silent fall back to the default or to "unlimited".
func TestNegativeSizeFlagsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-cache", "-cache-budget", "-5MB"},
		{"-data-dir", t.TempDir(), "-fsync", "off", "-wal-segment", "-1MB"},
		{"-max-conns", "-1"},
		{"-read-timeout", "-1s"},
		{"-write-timeout", "-1s"},
		{"-drain-timeout", "-1s"},
		{"-data-dir", t.TempDir(), "-fsync", "off", "-checkpoint-every", "-1"},
	} {
		o := parseFlags(append([]string{"-workload", "none"}, args...))
		d, mgr, err := openDatabase(o)
		if mgr != nil {
			mgr.Close()
		}
		if err == nil {
			t.Errorf("%v: opened a database (cache budget %d), want an error", args, d.CacheStats().Budget)
		} else if flag := args[len(args)-2]; !strings.Contains(err.Error(), flag) {
			t.Errorf("%v: error %q does not name %s", args, err, flag)
		}
	}
}
