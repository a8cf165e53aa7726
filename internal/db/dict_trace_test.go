package db_test

import (
	"strings"
	"testing"

	"resultdb/internal/workload/job"
)

// TestTraceDictAnnotation: scans of tables with TEXT columns report the
// dictionary size of the columnar image they filter, and the annotation
// renders inside the strippable bracket (so classic EXPLAIN output, which has
// no bracket, never shows it).
func TestTraceDictAnnotation(t *testing.T) {
	d := loadJOBTrace(t)
	q, err := job.QueryByName("1b")
	if err != nil {
		t.Fatal(err)
	}
	_, tr := tracedQuery(t, d, q.SQL, true)
	found := false
	for i := range tr.Spans {
		if sp := &tr.Spans[i]; sp.Op == "scan" && sp.Dict > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no scan span carries a dictionary size")
	}
	for _, line := range tr.TreeLines() {
		if i := strings.Index(line, "dict "); i >= 0 && !strings.Contains(line[:i], "[") {
			t.Fatalf("dictionary size rendered outside the strippable bracket: %q", line)
		}
	}
	if !strings.Contains(strings.Join(tr.TreeLines(), "\n"), "dict ") {
		t.Fatal("EXPLAIN ANALYZE output does not annotate scans with their dictionary size")
	}
	if strings.Contains(strings.Join(tr.CompactLines(), "\n"), "dict ") {
		t.Fatal("classic EXPLAIN output must not carry run annotations")
	}
}
