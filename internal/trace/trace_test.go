package trace

import (
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// TestNilTracerIsSafe: every method on the disabled (nil) tracer is a no-op —
// the contract that lets operators thread tracers unconditionally.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	if sp := tr.Span("scan", "x"); sp != nil {
		t.Error("nil tracer returned a span")
	}
	tr.Note("ignored")
	tr.SetMode("m")
	tr.SetStrategy("s")
	tr.SetParallelism(4)
	tr.SetOutputs([]string{"a"})
	tr.SetStats("st")
	if tr.Finish() != nil {
		t.Error("nil tracer Finish returned a trace")
	}
}

// TestNilTracerCostsNothing: the disabled path must not allocate — this is
// the structural half of the overhead budget (the timing half is
// BenchmarkTracerOverhead16b at the repo root), and it is what lets every
// operator thread the tracer unconditionally instead of branching on an
// "observability enabled" flag.
func TestNilTracerCostsNothing(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		if sp := tr.Span("scan", "x"); sp != nil {
			t.Fatal("nil tracer returned a span")
		}
		tr.Note("ignored")
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocates: %.1f allocs per operator touch", allocs)
	}
}

// TestSpanRecordingAndCounters: spans appear in registration order with the
// caller's field values; the counters are summed from them (a scan's kept
// rows are scanned, the rest dropped).
func TestSpanRecordingAndCounters(t *testing.T) {
	tr := New("SELECT 1")
	tr.SetMode("single-table")
	tr.SetStrategy("spj")
	sp := tr.Span("scan", "t AS t")
	sp.Phase = "scan"
	sp.RowsIn, sp.RowsOut = 10, 4
	tr.Note("a note")
	snap := tr.Finish()
	if snap.Query != "SELECT 1" || snap.Mode != "single-table" || snap.Strategy != "spj" {
		t.Errorf("snapshot meta = %+v", snap)
	}
	if len(snap.Spans) != 2 || snap.Spans[0].Op != "scan" || snap.Spans[1].Op != "note" {
		t.Fatalf("spans = %+v", snap.Spans)
	}
	if snap.Counters.RowsScanned != 4 || snap.Counters.RowsDropped != 6 {
		t.Errorf("counters = %+v", snap.Counters)
	}
	if snap.WallNS <= 0 {
		t.Error("wall time not recorded")
	}
}

// TestConcurrentCountersAndSpans: span registration from many goroutines is
// safe (run under -race by verify.sh), and the counters sum every span.
func TestConcurrentCountersAndSpans(t *testing.T) {
	tr := New("q")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				sp := tr.Span("scan", "x")
				sp.RowsIn, sp.RowsOut = 200, 200
			} else {
				sp := tr.Span("output", "x")
				sp.Bytes = 400
			}
		}()
	}
	wg.Wait()
	snap := tr.Finish()
	if snap.Counters.RowsScanned != 1600 || snap.Counters.BytesOut != 3200 {
		t.Errorf("counters = %+v", snap.Counters)
	}
	if len(snap.Spans) != 16 {
		t.Errorf("spans = %d", len(snap.Spans))
	}
}

// TestCountsFingerprintExcludesRunVaryingFields: two traces identical in
// counts but different in times, degree, and morsels must fingerprint alike.
func TestCountsFingerprintExcludesRunVaryingFields(t *testing.T) {
	mk := func(par int, ns int64) *Trace {
		tr := New("q")
		tr.SetMode("resultdb")
		tr.SetStrategy("semijoin")
		sp := tr.Span("semi-join", "a ⋉ b")
		sp.Phase = "bottom-up"
		sp.RowsIn, sp.RowsOut = 100, 40
		sp.Par, sp.Morsels = par, par*3
		sp.BuildNS, sp.ProbeNS = ns, ns*2
		return tr.Finish()
	}
	a, b := mk(1, 1000), mk(8, 999999)
	if a.CountsFingerprint() != b.CountsFingerprint() {
		t.Errorf("fingerprints differ:\n%s\nvs\n%s", a.CountsFingerprint(), b.CountsFingerprint())
	}
	c := mk(1, 1000)
	c.Spans[0].RowsOut = 41
	if a.CountsFingerprint() == c.CountsFingerprint() {
		t.Error("fingerprint ignores cardinality change")
	}
}

// TestTreeLinesBracketsAreStrippable: every run-varying annotation lives in a
// trailing [...] bracket, so tooling can strip them with one regexp and the
// remainder is deterministic.
func TestTreeLinesBracketsAreStrippable(t *testing.T) {
	tr := New("q")
	tr.SetMode("resultdb")
	tr.SetStrategy("semijoin")
	tr.SetParallelism(4)
	sp := tr.Span("semi-join", "a ⋉ b")
	sp.Phase = "bottom-up"
	sp.RowsIn, sp.RowsBuild, sp.RowsOut = 100, 20, 40
	sp.Par, sp.Morsels, sp.BuildNS, sp.ProbeNS = 4, 7, 12345, 54321
	lines := tr.Finish().TreeLines()
	strip := regexp.MustCompile(`\s*\[[^\]]*\]`)
	joined := strip.ReplaceAllString(strings.Join(lines, "\n"), "")
	if strings.Contains(joined, "ms") || strings.Contains(joined, "par 4") || strings.Contains(joined, "morsels") {
		t.Errorf("run-varying annotation outside brackets:\n%s", joined)
	}
	if !strings.Contains(joined, "semi-join a ⋉ b  rows: 100 -> 40  (source 20 rows)") {
		t.Errorf("deterministic span line missing:\n%s", joined)
	}
}

// TestStatisticsAnnotation: the statistics a statement derived show in the
// head line's bracket, builds from row 0 apart from extensions of an
// ancestor version's — and only there.
func TestStatisticsAnnotation(t *testing.T) {
	tr := &Trace{Mode: "resultdb", Strategy: "semijoin",
		StatsBuilds: 1, StatsTimeNS: 12_000, StatsExtended: 2, StatsExtendedRows: 8, StatsExtendNS: 3_000}
	head := tr.TreeLines()[0]
	if want := "[stats: 1 built in 12 µs, 2 extended (+8 rows) in 3 µs]"; !strings.HasSuffix(head, want) {
		t.Errorf("head line %q, want it to end in %q", head, want)
	}
	tr.StatsBuilds = 0
	if head := tr.TreeLines()[0]; !strings.HasSuffix(head, "[stats: 2 extended (+8 rows) in 3 µs]") {
		t.Errorf("head line %q shows a build that did not happen", head)
	}
}

// TestTraceJSONRoundTrip: the JSON form carries the full structure back.
func TestTraceJSONRoundTrip(t *testing.T) {
	tr := New("SELECT x")
	tr.SetMode("resultdb")
	tr.SetOutputs([]string{"a", "b"})
	sp := tr.Span("output", "a")
	sp.Phase = "output"
	sp.RowsIn, sp.RowsOut, sp.Bytes = 5, 3, 99
	snap := tr.Finish()
	data, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Query != snap.Query || back.Mode != snap.Mode ||
		len(back.Spans) != 1 || back.Spans[0].Bytes != 99 ||
		back.Counters.BytesOut != 99 || len(back.Outputs) != 2 {
		t.Errorf("round trip lost data: %+v", back)
	}
}
