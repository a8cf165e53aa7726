package db

import (
	"regexp"
	"strings"
	"testing"

	"resultdb/internal/sqlparse"
)

// stripAnnotations removes the run- and host-varying trailing [...] brackets
// (wall times, parallel degree, morsel counts) from EXPLAIN ANALYZE lines;
// what remains is the deterministic operator tree.
var annotationRE = regexp.MustCompile(`\s*\[[^\]]*\]`)

func stripAnnotations(lines []string) string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = annotationRE.ReplaceAllString(l, "")
	}
	return strings.Join(out, "\n")
}

// TestExplainGoldenSingleTable locks the exact classic EXPLAIN format for the
// paper's Listing 1 query — the regression guard for the shared rendering
// path (EXPLAIN and EXPLAIN ANALYZE render from one trace structure).
func TestExplainGoldenSingleTable(t *testing.T) {
	d := paperExample(t)
	got := strings.Join(explainLines(t, d, "EXPLAIN "+listing1), "\n")
	want := strings.Join([]string{
		"single-table plan (greedy hash-join order, actual cardinalities)",
		"scan customers AS c  filter: c.state = 'NY'  rows: 3 -> 2",
		"scan orders AS o  filter: true  rows: 6 -> 6",
		"scan products AS p  filter: true  rows: 4 -> 4",
		"hash join + o  keys: 1  rows: 2 x 6 -> 3",
		"hash join + p  keys: 1  rows: 3 x 4 -> 3",
		"project [c.name, p.name, p.category]  rows: 3",
	}, "\n")
	if got != want {
		t.Errorf("EXPLAIN output drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainGoldenResultDB locks the classic EXPLAIN format for the
// RESULTDB form of Listing 1: graph analysis, root choice, the full
// semi-join schedule, and the stats footer.
func TestExplainGoldenResultDB(t *testing.T) {
	d := paperExample(t)
	sql := "EXPLAIN SELECT RESULTDB" + listing1[len("\nSELECT"):]
	got := strings.Join(explainLines(t, d, sql), "\n")
	want := strings.Join([]string{
		"RESULTDB plan (Algorithm 4, actual cardinalities)",
		"output relations: [c p]",
		"strategy: native semi-join reduction",
		"scan customers AS c  filter: c.state = 'NY'  rows: 3 -> 2",
		"scan orders AS o  filter: true  rows: 6 -> 6",
		"scan products AS p  filter: true  rows: 4 -> 4",
		"root: c (degree 1, projected true)",
		"semi-join o ⋉ p  rows: 6 -> 6",
		"semi-join c ⋉ o  rows: 2 -> 2",
		"semi-join o ⋉ c  rows: 6 -> 3",
		"semi-join p ⋉ o  rows: 4 -> 2",
		"return c  rows: 2 (before projection dedup)",
		"return p  rows: 2 (before projection dedup)",
		"stats: root=c semijoins=4 skipped=0 dropped=5 folds=0",
	}, "\n")
	if got != want {
		t.Errorf("EXPLAIN RESULTDB output drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainAnalyzeGoldenResultDB locks the EXPLAIN ANALYZE operator tree
// (with run-varying bracket annotations stripped) for the RESULTDB Listing 1:
// phases, glyphs, per-operator counts, per-relation transfer bytes, totals.
func TestExplainAnalyzeGoldenResultDB(t *testing.T) {
	d := paperExample(t)
	sql := "EXPLAIN ANALYZE SELECT RESULTDB" + listing1[len("\nSELECT"):]
	got := stripAnnotations(explainLines(t, d, sql))
	want := strings.Join([]string{
		"mode: resultdb  strategy: semijoin",
		"output relations: c, p",
		"strategy: native semi-join reduction",
		"scan",
		"  ├─ scan customers AS c  filter: c.state = 'NY'  rows: 3 -> 2",
		"  ├─ scan orders AS o  filter: true  rows: 6 -> 6",
		"  └─ scan products AS p  filter: true  rows: 4 -> 4",
		"root: c (degree 1, projected true)",
		"bottom-up",
		"  ├─ semi-join o ⋉ p  rows: 6 -> 6  (source 4 rows)",
		"  └─ semi-join c ⋉ o  rows: 2 -> 2  (source 6 rows)",
		"top-down",
		"  ├─ semi-join o ⋉ c  rows: 6 -> 3  (source 2 rows)",
		"  └─ semi-join p ⋉ o  rows: 4 -> 2  (source 3 rows)",
		"output",
		"  ├─ return c  rows: 2 -> 2  bytes: 10",
		"  └─ return p  rows: 2 -> 2  bytes: 30",
		"stats: root=c semijoins=4 skipped=0 dropped=5 folds=0",
		"totals: scanned=12 joined=0 dropped=6 out=4 bytes=40",
	}, "\n")
	if got != want {
		t.Errorf("EXPLAIN ANALYZE output drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainSharesRenderPathWithQueryWithTrace: EXPLAIN output must be
// byte-identical to CompactLines of the trace QueryWithTrace returns, and
// EXPLAIN ANALYZE (annotations stripped) identical to TreeLines — the "one
// plan-rendering path" guarantee.
func TestExplainSharesRenderPathWithQueryWithTrace(t *testing.T) {
	d := paperExample(t)
	for _, sql := range []string{
		listing1,
		"SELECT RESULTDB" + listing1[len("\nSELECT"):],
	} {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		_, tr, err := d.QueryWithTrace(sel)
		if err != nil {
			t.Fatal(err)
		}
		explain := strings.Join(explainLines(t, d, "EXPLAIN "+sql), "\n")
		if api := strings.Join(tr.CompactLines(), "\n"); api != explain {
			t.Errorf("EXPLAIN diverges from QueryWithTrace.CompactLines:\nexplain:\n%s\napi:\n%s", explain, api)
		}
		analyze := stripAnnotations(explainLines(t, d, "EXPLAIN ANALYZE "+sql))
		if api := stripAnnotations(tr.TreeLines()); api != analyze {
			t.Errorf("EXPLAIN ANALYZE diverges from QueryWithTrace.TreeLines:\nexplain:\n%s\napi:\n%s", analyze, api)
		}
	}
}

// TestExplainAnalyzeSQLRoundTrip: the parser accepts EXPLAIN ANALYZE and the
// renderer reproduces it.
func TestExplainAnalyzeSQLRoundTrip(t *testing.T) {
	st, err := sqlparse.Parse("EXPLAIN ANALYZE SELECT c.id FROM customers AS c")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := st.(*sqlparse.Explain)
	if !ok || !ex.Analyze {
		t.Fatalf("parsed %T analyze=%v", st, ok && ex.Analyze)
	}
	if got := ex.SQL(); !strings.HasPrefix(got, "EXPLAIN ANALYZE SELECT") {
		t.Errorf("render = %q", got)
	}
	st2, err := sqlparse.Parse(ex.SQL())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if ex2 := st2.(*sqlparse.Explain); !ex2.Analyze {
		t.Error("ANALYZE flag lost in round trip")
	}
}

// TestExplainAnalyzeShowsStatisticsBuilds: the first statement behind a
// commit derives the statistics of the versions it reads, and EXPLAIN ANALYZE
// says so — how many, how, and how long, inside the strippable bracket next to
// the cache outcome. The next execution finds them derived and shows nothing;
// the annotation is run-varying, so what is left after stripping, and the
// counts fingerprint, are the same both times.
func TestExplainAnalyzeShowsStatisticsBuilds(t *testing.T) {
	d := Open(DefaultConfig())
	if _, err := d.ExecScript(paperExampleSQL); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT RESULTDB" + listing1[len("\nSELECT"):]
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	built := regexp.MustCompile(`\[[^\]]*stats: 3 built in \d+ µs[^\]]*\]`)

	_, first, err := d.QueryWithTrace(sel)
	if err != nil {
		t.Fatal(err)
	}
	if first.StatsBuilds != 3 || first.StatsTimeNS <= 0 || !built.MatchString(first.TreeLines()[0]) {
		t.Fatalf("first execution: %d builds in %d ns, head line %q; want the 3 tables' builds in the bracket",
			first.StatsBuilds, first.StatsTimeNS, first.TreeLines()[0])
	}
	_, second, err := d.QueryWithTrace(sel)
	if err != nil {
		t.Fatal(err)
	}
	if second.StatsBuilds != 0 || strings.Contains(second.TreeLines()[0], "stats:") {
		t.Fatalf("second execution built statistics again: %q", second.TreeLines()[0])
	}
	if a, b := stripAnnotations(first.TreeLines()), stripAnnotations(second.TreeLines()); a != b {
		t.Errorf("the statistics annotation leaks outside the bracket:\n%s\nvs\n%s", a, b)
	}
	if first.CountsFingerprint() != second.CountsFingerprint() {
		t.Error("statistics builds changed the counts fingerprint")
	}

	// A commit makes new versions of the tables it touched — and only those
	// derive statistics again, by extending the old ones with the new row.
	if _, err := d.Exec("INSERT INTO orders VALUES (2, 3)"); err != nil {
		t.Fatal(err)
	}
	lines := explainLines(t, d, "EXPLAIN ANALYZE "+sql)
	if !regexp.MustCompile(`\[[^\]]*stats: 1 extended \(\+1 rows\) in \d+ µs[^\]]*\]`).MatchString(lines[0]) ||
		strings.Contains(lines[0], "built") {
		t.Fatalf("EXPLAIN ANALYZE behind a commit to one table: head line %q, want one extension and no build", lines[0])
	}
}
