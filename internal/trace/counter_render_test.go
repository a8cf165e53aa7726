package trace

import (
	"reflect"
	"strings"
	"testing"
)

// Counter spans (the wire server renders its operational stats through the
// trace pipeline) print as bare name/value lines in both renderers.
func TestCounterSpanRendering(t *testing.T) {
	tr := &Trace{
		Mode: "server-stats",
		Spans: []Span{
			{Op: "counter", Label: "conns_accepted", Phase: "server", RowsOut: 7},
			{Op: "counter", Label: "write_stalls", Phase: "server", RowsOut: 0},
		},
	}
	compact := strings.Join(tr.CompactLines(), "\n")
	for _, want := range []string{"conns_accepted: 7", "write_stalls: 0"} {
		if !strings.Contains(compact, want) {
			t.Errorf("CompactLines missing %q in:\n%s", want, compact)
		}
	}
	tree := strings.Join(tr.TreeLines(), "\n")
	if !strings.Contains(tree, "conns_accepted: 7") {
		t.Errorf("TreeLines missing counter line in:\n%s", tree)
	}
	if !strings.Contains(tree, "server") {
		t.Errorf("TreeLines missing the server phase group in:\n%s", tree)
	}
}

// AddCounts builds exactly the counter spans above, in order, after any
// spans the trace already has.
func TestAddCounts(t *testing.T) {
	tr := (&Trace{Mode: "server-stats"}).AddCounts("server", Count{Name: "conns_accepted", Value: 7})
	tr.AddCounts("server", Count{Name: "write_stalls", Value: 0})
	want := []Span{
		{Op: "counter", Label: "conns_accepted", Phase: "server", RowsOut: 7},
		{Op: "counter", Label: "write_stalls", Phase: "server", RowsOut: 0},
	}
	if !reflect.DeepEqual(tr.Spans, want) {
		t.Errorf("AddCounts spans = %+v, want %+v", tr.Spans, want)
	}
	if got := strings.Join(tr.CompactLines(), "\n"); got != "conns_accepted: 7\nwrite_stalls: 0" {
		t.Errorf("CompactLines = %q", got)
	}
}
