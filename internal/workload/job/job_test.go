package job

import (
	"sort"
	"strings"
	"testing"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/sqlparse"
)

func TestQueryCatalog(t *testing.T) {
	qs := Queries()
	if len(qs) != 33 {
		t.Fatalf("expected 33 query templates, got %d", len(qs))
	}
	seen := map[string]bool{}
	cyclic := 0
	for _, q := range qs {
		if seen[q.Name] {
			t.Errorf("duplicate query name %s", q.Name)
		}
		seen[q.Name] = true
		if q.Cyclic {
			cyclic++
		}
		if _, err := sqlparse.ParseSelect(q.SQL); err != nil {
			t.Errorf("%s does not parse: %v", q.Name, err)
		}
	}
	if cyclic < 3 {
		t.Errorf("want several cyclic templates, have %d", cyclic)
	}
	for _, name := range Table1Queries {
		if _, err := QueryByName(name); err != nil {
			t.Errorf("Table1 query %s missing: %v", name, err)
		}
	}
	if _, err := QueryByName("zz"); err == nil {
		t.Error("unknown query should error")
	}
}

func TestSizesScale(t *testing.T) {
	s1 := Sizes(Config{Scale: 1})
	s2 := Sizes(Config{Scale: 0.5})
	if s2["title"] != s1["title"]/2 {
		t.Errorf("title at 0.5 scale = %d, want %d", s2["title"], s1["title"]/2)
	}
	// Lookup tables never scale.
	if s2["kind_type"] != s1["kind_type"] {
		t.Error("lookup tables must not scale")
	}
	// Tiny scales clamp to at least one row.
	s3 := Sizes(Config{Scale: 0.00001})
	if s3["keyword"] < 1 {
		t.Error("scaled size must be >= 1")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	cfg := Config{Scale: 0.02, Seed: 7}
	d1, d2 := db.New(), db.New()
	if err := Load(d1, cfg); err != nil {
		t.Fatal(err)
	}
	if err := Load(d2, cfg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"title", "cast_info", "movie_info"} {
		t1, _ := d1.Table(name)
		t2, _ := d2.Table(name)
		if t1.Len() != t2.Len() {
			t.Fatalf("%s lengths differ", name)
		}
		r2 := t2.Rows()
		for i, row := range t1.Rows() {
			if !row.Equal(r2[i]) {
				t.Fatalf("%s row %d differs across identical seeds", name, i)
			}
		}
	}
}

func TestForeignKeyIntegrity(t *testing.T) {
	d := db.New()
	if err := Load(d, Config{Scale: 0.05, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	// Every fact-table reference must land on an existing hub row.
	checks := []struct{ fact, col, hub string }{
		{"movie_companies", "movie_id", "title"},
		{"movie_companies", "company_id", "company_name"},
		{"cast_info", "movie_id", "title"},
		{"cast_info", "person_id", "name"},
		{"movie_info", "movie_id", "title"},
		{"movie_keyword", "keyword_id", "keyword"},
	}
	for _, c := range checks {
		factN, err := d.QuerySQL("SELECT COUNT(*) FROM " + c.fact + " AS f")
		if err != nil {
			t.Fatal(err)
		}
		joinN, err := d.QuerySQL("SELECT COUNT(*) FROM " + c.fact + " AS f, " + c.hub +
			" AS h WHERE f." + c.col + " = h.id")
		if err != nil {
			t.Fatal(err)
		}
		if factN.First().Rows[0][0].Int() != joinN.First().Rows[0][0].Int() {
			t.Errorf("%s.%s has dangling references to %s", c.fact, c.col, c.hub)
		}
	}
}

// TestResultDBMatchesDecomposeOnAllTemplates cross-validates the native
// algorithm against the Decompose oracle on every template at a small scale
// (Theorem 4.4 exercised through SQL on realistic join shapes).
func TestResultDBMatchesDecomposeOnAllTemplates(t *testing.T) {
	semi := db.New()
	dec := db.New()
	cfg := Config{Scale: 0.05, Seed: 42}
	if err := Load(semi, cfg); err != nil {
		t.Fatal(err)
	}
	if err := Load(dec, cfg); err != nil {
		t.Fatal(err)
	}
	semi.Strategy = db.StrategySemiJoin
	dec.Strategy = db.StrategyDecompose
	for _, q := range Queries() {
		sel, err := sqlparse.ParseSelect(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []db.Mode{db.ModeRDB, db.ModeRDBRP} {
			a, err := semi.QueryResultDB(sel, mode)
			if err != nil {
				t.Fatalf("%s semi mode %d: %v", q.Name, mode, err)
			}
			b, err := dec.QueryResultDB(sel, mode)
			if err != nil {
				t.Fatalf("%s dec mode %d: %v", q.Name, mode, err)
			}
			if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
				t.Errorf("%s mode %d: strategies disagree\nsemi: %.200s\ndec:  %.200s",
					q.Name, mode, fa, fb)
			}
		}
	}
}

func fingerprint(res *db.Result) string {
	var parts []string
	for _, set := range res.Sets {
		rows := make([]string, len(set.Rows))
		for i, r := range set.Rows {
			rows[i] = r.String()
		}
		sort.Strings(rows)
		parts = append(parts, set.Name+"="+strings.Join(rows, ";"))
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

func TestLoadAndRunAllQueries(t *testing.T) {
	d := db.New()
	cfg := DefaultConfig()
	cfg.Scale = 0.25
	start := time.Now()
	if err := Load(d, cfg); err != nil {
		t.Fatalf("load: %v", err)
	}
	t.Logf("load took %v", time.Since(start))
	for _, q := range Queries() {
		qStart := time.Now()
		sel, err := sqlparse.ParseSelect(q.SQL)
		if err != nil {
			t.Fatalf("%s: parse: %v", q.Name, err)
		}
		st, err := d.Query(sel)
		if err != nil {
			t.Fatalf("%s: single-table: %v", q.Name, err)
		}
		rdb, err := d.QueryResultDB(sel, db.ModeRDB)
		if err != nil {
			t.Fatalf("%s: resultdb: %v", q.Name, err)
		}
		if q.Cyclic != (rdb.Stats != nil && rdb.Stats.Cyclic) {
			t.Errorf("%s: cyclic = %v, stats %v", q.Name, q.Cyclic, rdb.Stats)
		}
		rdbSize := 0
		for _, s := range rdb.Sets {
			rdbSize += s.WireSize()
		}
		t.Logf("%-4s ST rows=%7d size=%9d | RDB sets=%d size=%9d | %v | %v",
			q.Name, st.First().NumRows(), st.WireSize(), len(rdb.Sets), rdbSize,
			time.Since(qStart).Round(time.Millisecond), rdb.Stats)
	}
}
