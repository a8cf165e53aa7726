package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resultdb/internal/cache"
	"resultdb/internal/catalog"
	"resultdb/internal/db"
	"resultdb/internal/types"
)

func testShell(t *testing.T) (*shell, *os.File, func() string) {
	t.Helper()
	d := db.New()
	if _, err := d.ExecScript(`
		CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT);
		INSERT INTO t VALUES (1, 'a'), (2, 'b');
	`); err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "shell-out")
	if err != nil {
		t.Fatal(err)
	}
	s := &shell{sess: d.NewSession(), out: out}
	return s, out, func() string {
		data, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
}

func TestShellExecuteSelect(t *testing.T) {
	s, _, output := testShell(t)
	if err := s.execute("SELECT t.name FROM t AS t ORDER BY t.name;"); err != nil {
		t.Fatal(err)
	}
	got := output()
	if !strings.Contains(got, "a\nb") || !strings.Contains(got, "(2 rows)") {
		t.Errorf("output = %q", got)
	}
}

func TestShellExecuteResultDBAndStats(t *testing.T) {
	s, _, output := testShell(t)
	s.timing = true
	if err := s.execute("SELECT RESULTDB t.name FROM t AS t WHERE t.id = 1;"); err != nil {
		t.Fatal(err)
	}
	got := output()
	if !strings.Contains(got, "Time:") {
		t.Errorf("timing missing: %q", got)
	}
}

func TestShellMetaCommands(t *testing.T) {
	s, _, output := testShell(t)
	if s.meta(`\d`) {
		t.Error("\\d should not quit")
	}
	if s.meta(`\d t`) {
		t.Error("\\d t should not quit")
	}
	if s.meta(`\timing`) {
		t.Error("\\timing should not quit")
	}
	if s.meta(`\strategy decompose`) {
		t.Error("\\strategy should not quit")
	}
	if s.sess.Strategy != db.StrategyDecompose {
		t.Error("strategy not switched")
	}
	s.meta(`\strategy semijoin`)
	if s.sess.Strategy != db.StrategySemiJoin {
		t.Error("strategy not switched back")
	}
	s.meta(`\nope`)
	if !s.meta(`\q`) {
		t.Error("\\q must quit")
	}
	got := output()
	for _, want := range []string{"t ", "t(id INTEGER, name TEXT)", "timing true", "unknown command"} {
		if !strings.Contains(got, want) {
			t.Errorf("meta output missing %q in %q", want, got)
		}
	}
}

// TestShellStats: \stats TABLE prints the planner's statistics of the table's
// newest version — any table, including one named like the old on/off
// toggle — and \stats alone prints its usage.
func TestShellStats(t *testing.T) {
	s, _, output := testShell(t)
	off, err := s.sess.DB().CreateTable(catalog.MustTableDef("off", []catalog.Column{{Name: "v", Type: types.KindInt}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := off.Insert(types.Row{types.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if s.meta(`\stats t`) {
		t.Fatal("\\stats should not quit")
	}
	if err := s.execute("INSERT INTO t VALUES (3, 'c');"); err != nil {
		t.Fatal(err)
	}
	s.meta(`\stats t`)
	s.meta(`\stats off`)
	s.meta(`\stats`)
	s.meta(`\stats nosuch`)
	got := output()
	for _, want := range []string{
		"t: 2 rows", "ndv=2", "t: 3 rows", "ndv=3", "range=[1, 3]",
		"off: 1 rows", "range=[7, 7]",
		"usage: \\stats TABLE", `error: table "nosuch" does not exist`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("\\stats output missing %q in %q", want, got)
		}
	}
}

const cachedStmt = "SELECT RESULTDB t.name FROM t AS t WHERE t.id = 1;"

// runTwice executes cachedStmt twice through the shell and returns the
// database's cache counters afterwards.
func runTwice(t *testing.T, s *shell) cache.Stats {
	t.Helper()
	for i := 0; i < 2; i++ {
		if err := s.execute(cachedStmt); err != nil {
			t.Fatal(err)
		}
	}
	return s.sess.DB().CacheStats()
}

// TestShellCacheOnReachesSession: \cache on turns the cache on for the
// shell's own session too, not only for the database it copied its options
// from — the same statement twice is one miss, then one hit.
func TestShellCacheOnReachesSession(t *testing.T) {
	s, _, output := testShell(t)
	if s.meta(`\cache on`) {
		t.Fatal("\\cache should not quit")
	}
	if st := runTwice(t, s); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("after \\cache on and one statement twice: %d misses, %d hits, %d entries; want 1, 1, 1",
			st.Misses, st.Hits, st.Entries)
	}
	s.meta(`\cache`)
	if got := output(); !strings.Contains(got, "1 hits (0 extended), 1 misses") {
		t.Errorf("\\cache output = %q", got)
	}
}

// TestShellCacheOffBypassesCache: after \cache off the session's statements
// bypass the cache again, and \cache SIZE turns it back on with that budget.
func TestShellCacheOffBypassesCache(t *testing.T) {
	s, _, _ := testShell(t)
	s.meta(`\cache on`)
	before := runTwice(t, s)
	s.meta(`\cache off`)
	if st := runTwice(t, s); st.Misses != before.Misses || st.Hits != before.Hits || st.Entries != 0 {
		t.Errorf("after \\cache off: %d misses, %d hits, %d entries; want %d, %d, 0 (cache bypassed)",
			st.Misses, st.Hits, st.Entries, before.Misses, before.Hits)
	}
	s.meta(`\cache 1MB`)
	if s.sess.CoreOptions.ResultCacheBudget != 1_000_000 {
		t.Errorf("session budget = %d after \\cache 1MB", s.sess.CoreOptions.ResultCacheBudget)
	}
	if st := runTwice(t, s); st.Hits != before.Hits+1 {
		t.Errorf("after \\cache 1MB: %d hits, want %d", st.Hits, before.Hits+1)
	}
}

func TestShellReplScript(t *testing.T) {
	s, _, output := testShell(t)
	in, err := os.CreateTemp(t.TempDir(), "shell-in")
	if err != nil {
		t.Fatal(err)
	}
	script := "SELECT t.id FROM t AS t\nWHERE t.id = 2;\nSELECT broken;\n\\q\n"
	if _, err := in.WriteString(script); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	s.repl(in)
	got := output()
	if !strings.Contains(got, "(1 rows)") {
		t.Errorf("multi-line statement failed: %q", got)
	}
	if !strings.Contains(got, "error:") {
		t.Errorf("error not reported: %q", got)
	}
}

func TestPreloadAndCSV(t *testing.T) {
	d := db.New()
	if err := preload(d, "hierarchy", 0); err != nil {
		t.Fatal(err)
	}
	if err := preload(db.New(), "bogus", 0); err == nil {
		t.Error("bogus workload should fail")
	}
	// CSV dir loading.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.csv"), []byte("id:INTEGER\n7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ignored.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := db.New()
	if err := loadCSVDir(d2, dir); err != nil {
		t.Fatal(err)
	}
	res, err := d2.QuerySQL("SELECT x.id FROM x AS x")
	if err != nil || res.First().NumRows() != 1 {
		t.Errorf("csv table not loaded: %v %v", res, err)
	}
}

func TestShellSnapshotSaveOpen(t *testing.T) {
	s, _, output := testShell(t)
	path := filepath.Join(t.TempDir(), "db.snap")
	if s.meta(`\save ` + path) {
		t.Fatal("\\save should not quit")
	}
	// Mutate, then reopen the snapshot: the mutation must be gone.
	if err := s.execute("INSERT INTO t VALUES (3, 'c');"); err != nil {
		t.Fatal(err)
	}
	if s.meta(`\open ` + path) {
		t.Fatal("\\open should not quit")
	}
	if err := s.execute("SELECT COUNT(*) FROM t AS t;"); err != nil {
		t.Fatal(err)
	}
	got := output()
	if !strings.Contains(got, "saved") || !strings.Contains(got, "opened") {
		t.Errorf("snapshot output = %q", got)
	}
	if !strings.Contains(got, "\n2\n") {
		t.Errorf("reopened database should have 2 rows: %q", got)
	}
	// Usage errors.
	s.meta(`\save`)
	s.meta(`\open`)
	s.meta(`\open /nonexistent/path`)
	if !strings.Contains(output(), "usage") {
		t.Error("usage message missing")
	}
}
