package db

import (
	"strings"
	"sync"
	"testing"

	"resultdb/internal/sqlparse"
)

// cacheTestDB builds a small two-table database with the cache enabled.
func cacheTestDB(t *testing.T) *Database {
	t.Helper()
	d := New()
	script := `
CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, year INT);
CREATE TABLE roles (id INT PRIMARY KEY, movie_id INT, actor TEXT);
INSERT INTO movies VALUES (1, 'Heat', 1995), (2, 'Ronin', 1998), (3, 'Blow Out', 1981);
INSERT INTO roles VALUES (10, 1, 'De Niro'), (11, 2, 'De Niro'), (12, 1, 'Pacino');
`
	if _, err := d.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	d.EnableCache(1 << 20)
	return d
}

// sameEntry reports whether two in-process results are boxed copies of one
// cached result: their sets share the entry's payload memos.
func sameEntry(a, b *Result) bool {
	if len(a.Sets) != len(b.Sets) {
		return false
	}
	for i, set := range a.Sets {
		if set.memo == nil || set.memo != b.Sets[i].memo {
			return false
		}
	}
	return true
}

func resultFingerprint(r *Result) string {
	var b strings.Builder
	for _, set := range r.Sets {
		b.WriteString(set.Name)
		b.WriteString("|")
		b.WriteString(strings.Join(set.Columns, ","))
		b.WriteString("|")
		for _, row := range set.Rows {
			b.WriteString(row.String())
			b.WriteString(";")
		}
	}
	return b.String()
}

func TestCacheHitServesIdenticalResult(t *testing.T) {
	d := cacheTestDB(t)
	q := "SELECT RESULTDB m.title, r.actor FROM movies m, roles r WHERE m.id = r.movie_id"
	cold, err := d.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	// Different spelling of the same statement must hit.
	warm, err := d.Exec("select   RESULTDB  M.Title , R.Actor from movies AS M, roles AS R where M.id=R.movie_id")
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(cold) != resultFingerprint(warm) {
		t.Fatal("warm result differs from cold")
	}
	st := d.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("want 1 hit / 1 miss, got %+v", st)
	}
	if !sameEntry(warm, cold) {
		t.Fatal("warm hit should return the shared cached snapshot")
	}
}

func TestCacheInsertInvalidates(t *testing.T) {
	d := cacheTestDB(t)
	q := "SELECT m.title FROM movies m WHERE m.year > 1990"
	r1, _ := d.Exec(q)
	if _, err := d.Exec("INSERT INTO movies VALUES (4, 'Thief', 1981)"); err != nil {
		t.Fatal(err)
	}
	// The insert does not satisfy the filter change? year 1981 < 1990, so the
	// row set is unchanged — but the entry must STILL be invalidated (the
	// cache is version-based, not content-based).
	r2, err := d.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	st := d.CacheStats()
	if st.Invalidations != 1 {
		t.Fatalf("want 1 invalidation after INSERT, got %+v", st)
	}
	if st.Misses != 2 {
		t.Fatalf("post-INSERT query must recompute, got %+v", st)
	}
	if resultFingerprint(r1) != resultFingerprint(r2) {
		t.Fatal("recomputed result should equal original (insert filtered out)")
	}

	// An insert that DOES change the result.
	if _, err := d.Exec("INSERT INTO movies VALUES (5, 'Collateral', 2004)"); err != nil {
		t.Fatal(err)
	}
	r3, _ := d.Exec(q)
	if len(r3.First().Rows) != len(r1.First().Rows)+1 {
		t.Fatalf("stale row count after invalidating insert: %d vs %d",
			len(r3.First().Rows), len(r1.First().Rows))
	}
}

// TestCacheExtendsOverDanglingAppend: a subdatabase's entry survives an
// append whose rows join nothing — the same shared result is served, counted
// as extended, and EXPLAIN ANALYZE announces the extendable entry — and is
// recomputed after an append whose row joins.
func TestCacheExtendsOverDanglingAppend(t *testing.T) {
	d := cacheTestDB(t)
	q := "SELECT RESULTDB m.title, r.actor FROM movies m, roles r WHERE m.id = r.movie_id"
	cold, err := d.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	// A role in a movie that does not exist, and a movie nobody plays in.
	if _, err := d.ExecScript("INSERT INTO roles VALUES (13, 99, 'Keitel'); INSERT INTO movies VALUES (4, 'Thief', 1981)"); err != nil {
		t.Fatal(err)
	}
	plan, err := d.Exec("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatal(err)
	}
	if text := plan.First().Rows[0][0].Text(); !strings.Contains(text, "cache: extendable (+2 rows)") {
		t.Fatalf("EXPLAIN ANALYZE after two dangling rows does not announce the extendable entry:\n%s", text)
	}
	d.ClearCache() // EXPLAIN refilled the entry; start again from the fill at the old version
	if cold, err = d.Exec(q); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("INSERT INTO roles VALUES (14, 98, 'Caan')"); err != nil {
		t.Fatal(err)
	}
	before := d.CacheStats()
	warm, err := d.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntry(warm, cold) {
		t.Fatal("a dangling append was not served from the entry it extended")
	}
	if st := d.CacheStats(); st.Extended != before.Extended+1 || st.Hits != before.Hits+1 || st.Misses != before.Misses || st.Invalidations != before.Invalidations {
		t.Fatalf("want one extended hit, got %+v -> %+v", before, st)
	}

	if _, err := d.Exec("INSERT INTO roles VALUES (15, 3, 'Lithgow')"); err != nil {
		t.Fatal(err)
	}
	joined, err := d.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := d.CacheStats(); st.Invalidations != before.Invalidations+1 || st.Extended != before.Extended+1 {
		t.Fatalf("a joining append must recompute, got %+v", st)
	}
	if got := len(joined.Set("r").Rows); got != len(cold.Set("r").Rows)+1 {
		t.Fatalf("recomputed result has %d actors, want one more than %d", got, len(cold.Set("r").Rows))
	}
}

// TestCacheExtendFallbacks: the statements the empty-delta check does not
// cover are recomputed after any append, dangling or not, and still match an
// uncached execution: an IN-subquery over the appended table (an appended row
// removes result rows), a reduction that folds a cycle, the Decompose
// strategy, and a cross product (which runs as Decompose).
func TestCacheExtendFallbacks(t *testing.T) {
	script := `
CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, year INT);
CREATE TABLE roles (id INT PRIMARY KEY, movie_id INT, actor TEXT);
CREATE TABLE banned (movie_id INT);
CREATE TABLE x (a INT, b INT);
CREATE TABLE y (b INT, c INT);
CREATE TABLE z (c INT, a INT);
INSERT INTO movies VALUES (1, 'Heat', 1995), (2, 'Ronin', 1998), (3, 'Blow Out', 1981);
INSERT INTO roles VALUES (10, 1, 'De Niro'), (11, 2, 'De Niro'), (12, 1, 'Pacino');
INSERT INTO banned VALUES (3);
INSERT INTO x VALUES (1, 2), (5, 6);
INSERT INTO y VALUES (2, 3), (6, 9);
INSERT INTO z VALUES (3, 1), (9, 4);`
	cases := []struct {
		name, sql, insert string
		decompose         bool
	}{
		{"in-subquery", "SELECT RESULTDB m.title, r.actor FROM movies m, roles r WHERE m.id = r.movie_id AND m.id NOT IN (SELECT b.movie_id FROM banned b)",
			"INSERT INTO banned VALUES (1)", false},
		{"folded cycle", "SELECT RESULTDB x.a, y.c, z.a FROM x, y, z WHERE x.b = y.b AND y.c = z.c AND z.a = x.a",
			"INSERT INTO y VALUES (700, 701)", false},
		{"decompose", "SELECT RESULTDB m.title, r.actor FROM movies m, roles r WHERE m.id = r.movie_id",
			"INSERT INTO roles VALUES (20, 99, 'Keitel')", true},
		{"cross product", "SELECT RESULTDB m.title, r.actor FROM movies m, roles r WHERE m.year > 1990",
			"INSERT INTO roles VALUES (21, 98, 'Caan')", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cached, oracle := New(), New()
			for _, d := range []*Database{cached, oracle} {
				if _, err := d.ExecScript(script); err != nil {
					t.Fatal(err)
				}
				if c.decompose {
					d.Strategy = StrategyDecompose
				}
			}
			cached.EnableCache(1 << 20)
			if _, err := cached.Exec(c.sql); err != nil {
				t.Fatal(err)
			}
			for _, d := range []*Database{cached, oracle} {
				if _, err := d.Exec(c.insert); err != nil {
					t.Fatal(err)
				}
			}
			before := cached.CacheStats()
			got, err := cached.Exec(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Exec(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if resultFingerprint(got) != resultFingerprint(want) {
				t.Fatalf("after %q: cached %s, uncached %s", c.insert, resultFingerprint(got), resultFingerprint(want))
			}
			if st := cached.CacheStats(); st.Extended != before.Extended || st.Invalidations != before.Invalidations+1 {
				t.Fatalf("want a recomputation, got %+v -> %+v", before, st)
			}
		})
	}
}

func TestCacheUnrelatedDMLDoesNotInvalidate(t *testing.T) {
	d := cacheTestDB(t)
	q := "SELECT m.title FROM movies m"
	d.Exec(q)
	if _, err := d.Exec("INSERT INTO roles VALUES (13, 3, 'Travolta')"); err != nil {
		t.Fatal(err)
	}
	d.Exec(q)
	st := d.CacheStats()
	if st.Hits != 1 || st.Invalidations != 0 {
		t.Fatalf("DML on unrelated table should not invalidate: %+v", st)
	}
}

func TestCacheDropCreateInvalidates(t *testing.T) {
	d := cacheTestDB(t)
	q := "SELECT m.title FROM movies m"
	pinned := d.NewSession()
	pinned.Pin()
	r1, _ := d.Exec(q)
	if _, err := d.ExecScript(`
DROP TABLE movies;
CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, year INT);
INSERT INTO movies VALUES (9, 'Sorcerer', 1977);`); err != nil {
		t.Fatal(err)
	}
	r2, err := d.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(r1) == resultFingerprint(r2) {
		t.Fatal("cache served a result from a dropped table incarnation")
	}
	if got := len(r2.First().Rows); got != 1 {
		t.Fatalf("want 1 row from recreated table, got %d", got)
	}

	// A session pinned before the DROP still reads the old incarnation: it is
	// not served the newer entry, and its miss neither evicts nor replaces it.
	before := d.CacheStats()
	rp, err := pinned.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(rp) != resultFingerprint(r1) {
		t.Fatal("pinned session was served a result of the re-created table")
	}
	r3, err := d.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(r3) != resultFingerprint(r2) {
		t.Fatal("newest state served the pinned session's fill")
	}
	after := d.CacheStats()
	if after.Misses != before.Misses+1 || after.Hits != before.Hits+1 ||
		after.Invalidations != before.Invalidations || after.Entries != before.Entries {
		t.Fatalf("older pin disturbed the newer entry: before %+v, after %+v", before, after)
	}
}

func TestCacheMatviewCoversCreatedTables(t *testing.T) {
	d := cacheTestDB(t)
	if _, err := d.Exec("CREATE MATERIALIZED VIEW mv AS SELECT m.title FROM movies m WHERE m.year > 1990"); err != nil {
		t.Fatal(err)
	}
	q := "SELECT mv.title FROM mv"
	r1, err := d.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ExecScript("DROP MATERIALIZED VIEW mv; CREATE MATERIALIZED VIEW mv AS SELECT m.title FROM movies m WHERE m.year > 1997"); err != nil {
		t.Fatal(err)
	}
	r2, err := d.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.First().Rows) == len(r2.First().Rows) {
		t.Fatal("cached result survived materialized-view re-creation")
	}
}

func TestCacheDisabledByDefaultAndToggles(t *testing.T) {
	d := New()
	if d.CacheEnabled() {
		t.Fatal("cache should be off by default")
	}
	d.EnableCache(0)
	if !d.CacheEnabled() || d.CacheStats().Budget != DefaultCacheBudget {
		t.Fatalf("EnableCache(0) should use default budget, got %+v", d.CacheStats())
	}
	d.DisableCache()
	if d.CacheEnabled() {
		t.Fatal("DisableCache did not disable")
	}
}

func TestParseByteSize(t *testing.T) {
	cases := map[string]int64{
		"0":      0,
		"1024":   1024,
		"64KB":   64000,
		"256MB":  256000000,
		"2GB":    2000000000,
		"16MiB":  16 << 20,
		"1 GiB":  1 << 30,
		"1.5MiB": 3 << 19,
	}
	for in, want := range cases {
		got, err := ParseByteSize(in)
		if err != nil || got != want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "MB", "1XB", "x12", "-5MB", "-1", "-1MB", "1e19", "9e18GB", "9223372036854775808", "NaN", "nan"} {
		if _, err := ParseByteSize(bad); err == nil {
			t.Errorf("ParseByteSize(%q) should fail", bad)
		}
	}
}

func TestCacheSingleTableAndGroupBy(t *testing.T) {
	d := cacheTestDB(t)
	for _, q := range []string{
		"SELECT COUNT(*) FROM roles r WHERE r.actor = 'De Niro'",
		"SELECT m.year, COUNT(*) FROM movies m GROUP BY m.year",
		"SELECT DISTINCT r.actor FROM roles r ORDER BY r.actor",
	} {
		r1, err := d.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		r2, err := d.Exec(q)
		if err != nil {
			t.Fatalf("%s warm: %v", q, err)
		}
		if resultFingerprint(r1) != resultFingerprint(r2) {
			t.Fatalf("%s: warm != cold", q)
		}
	}
	st := d.CacheStats()
	if st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("want 3 hits / 3 misses, got %+v", st)
	}
}

func TestCacheExplainAnalyzeAnnotation(t *testing.T) {
	d := cacheTestDB(t)
	q := "EXPLAIN ANALYZE SELECT m.title FROM movies m WHERE m.year > 1990"
	planText := func(r *Result) string {
		var b strings.Builder
		for _, row := range r.First().Rows {
			b.WriteString(row[0].Text())
			b.WriteString("\n")
		}
		return b.String()
	}
	r1, err := d.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planText(r1), "cache: miss") {
		t.Fatalf("first EXPLAIN ANALYZE should annotate a miss:\n%s", planText(r1))
	}
	// EXPLAIN warms the cache: the plain statement now hits…
	if _, err := d.Exec("SELECT m.title FROM movies m WHERE m.year > 1990"); err != nil {
		t.Fatal(err)
	}
	if st := d.CacheStats(); st.Hits != 1 {
		t.Fatalf("EXPLAIN should have filled the cache, got %+v", st)
	}
	// …and a second EXPLAIN ANALYZE annotates the hit.
	r2, err := d.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planText(r2), "cache: hit") {
		t.Fatalf("second EXPLAIN ANALYZE should annotate a hit:\n%s", planText(r2))
	}
	// With the cache off, no annotation at all.
	d.DisableCache()
	r3, _ := d.Exec(q)
	if strings.Contains(planText(r3), "cache:") {
		t.Fatalf("cache-off EXPLAIN ANALYZE must not mention the cache:\n%s", planText(r3))
	}
}

func TestCacheSingleFlightUnderConcurrency(t *testing.T) {
	d := cacheTestDB(t)
	q := "SELECT RESULTDB m.title, r.actor FROM movies m, roles r WHERE m.id = r.movie_id"
	const n = 16
	var wg sync.WaitGroup
	results := make([]*Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = d.Exec(q)
		}(i)
	}
	wg.Wait()
	want := ""
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		fp := resultFingerprint(results[i])
		if want == "" {
			want = fp
		} else if fp != want {
			t.Fatalf("goroutine %d saw a different result", i)
		}
	}
	st := d.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("identical concurrent queries must compute at most once (got %+v)", st)
	}
	if st.Hits+st.Collapsed != n-1 {
		t.Fatalf("every non-leader must be a hit or collapsed, got %+v", st)
	}
}

func TestCacheParallelismSharesEntries(t *testing.T) {
	d := cacheTestDB(t)
	q := "SELECT RESULTDB m.title, r.actor FROM movies m, roles r WHERE m.id = r.movie_id"
	serial, parallel := d.NewSession(), d.NewSession()
	serial.CoreOptions.Parallelism, parallel.CoreOptions.Parallelism = 1, 4
	r1, err := serial.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := parallel.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := d.CacheStats(); st.Hits != 1 {
		t.Fatalf("parallelism change must not fragment the cache, got %+v", st)
	}
	if resultFingerprint(r1) != resultFingerprint(r2) {
		t.Fatal("results differ across parallelism degrees")
	}
}

func TestCachedResultIsNotMutatedByPostJoin(t *testing.T) {
	// PostJoin reads a cached RDBRP result; the shared snapshot must be
	// intact afterwards (cached values are immutable by contract).
	d := cacheTestDB(t)
	q := "SELECT RESULTDB PRESERVING m.title, r.actor FROM movies m, roles r WHERE m.id = r.movie_id"
	res, err := d.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	before := resultFingerprint(res)
	sel, err := sqlparse.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PostJoin(sel, res); err != nil {
		t.Fatal(err)
	}
	warm, err := d.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(warm) != before {
		t.Fatal("cached snapshot mutated by PostJoin")
	}
}
