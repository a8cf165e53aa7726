// Package trace is the execution-observability layer of the reproduction:
// a zero-dependency tracer recording per-operator spans (cardinalities,
// build/probe wall time, morsel counts) under a header holding the degree
// while a query runs; a finished trace's totals are summed from its spans.
//
// Design rules:
//
//   - Off by default, near-zero cost when disabled: every method on a nil
//     *Tracer is a no-op (single nil check), so operators thread an optional
//     tracer without branching on a config struct, and per-row hot loops
//     never touch the tracer at all — spans are recorded once per operator.
//   - Race-safe: span registration takes a mutex, the statistics-derivation
//     counters are atomics. Span field writes happen only on the
//     coordinating goroutine (operators record a span after their parallel
//     section completes), so the recorded counts are in deterministic
//     program order.
//   - Deterministic counts: rows, keys and bytes in a trace are identical at
//     any degree of parallelism. Wall times, the degree itself, and morsel
//     counts may differ between runs; CountsFingerprint excludes them.
//
// EXPLAIN, EXPLAIN ANALYZE, db.QueryWithTrace, and the -trace CLI flags all
// render from this one structure (see render.go), so there is exactly one
// plan-rendering path.
package trace

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Span records one operator execution. Fields are filled by the operator
// after it finishes; times are nanoseconds so the struct marshals without
// custom encoders.
type Span struct {
	// Op identifies the operator: scan, hash-join, cross-join, semi-join,
	// fold, root, residual-filter, project, decompose, output, note.
	Op string `json:"op"`
	// Label names the operator's target (relation alias, "a ⋉ b", ...).
	Label string `json:"label,omitempty"`
	// Phase groups spans into plan stages: scan, join, fold, bottom-up,
	// top-down, decompose, output.
	Phase string `json:"phase,omitempty"`
	// Detail carries operator-specific text (filter SQL, projection list,
	// note text).
	Detail string `json:"detail,omitempty"`

	// RowsIn is the cardinality of the primary (probe/outer) input.
	RowsIn int `json:"rows_in"`
	// RowsBuild is the cardinality of the secondary (build/source) input,
	// when the operator has one.
	RowsBuild int `json:"rows_build,omitempty"`
	// RowsOut is the output cardinality.
	RowsOut int `json:"rows_out"`
	// Keys is the number of equi-join key columns of a join.
	Keys int `json:"keys,omitempty"`
	// Bytes is the wire size attributed to this span (output spans).
	Bytes int `json:"bytes,omitempty"`

	// Dict is the total number of distinct dictionary entries across the
	// TEXT columns of a scan's frame. Excluded from CountsFingerprint: it
	// describes the storage image, not the operator's result.
	Dict int `json:"dict,omitempty"`

	// Morsels is the number of row chunks the probe/scan was split into.
	Morsels int `json:"morsels,omitempty"`
	// BuildNS and ProbeNS split a join's wall time into its two phases.
	BuildNS int64 `json:"build_ns,omitempty"`
	// ProbeNS is the probe/apply phase wall time.
	ProbeNS int64 `json:"probe_ns,omitempty"`
	// DurNS is the operator's total wall time when the build/probe split
	// does not apply.
	DurNS int64 `json:"dur_ns,omitempty"`

	// EstOut is the planner's estimated output cardinality for this
	// operator, 0 when planning ran without statistics. Rendered only inside
	// the strippable [...] bracket (estimated-vs-actual) and excluded from
	// CountsFingerprint so executions of the same plan shape with and
	// without statistics fingerprint identically.
	EstOut int `json:"est_out,omitempty"`
}

// Counters are whole-query totals, summed from the spans when the tracer
// finishes (Finish): operators record spans only, never a total.
type Counters struct {
	RowsScanned int64 `json:"rows_scanned"`
	RowsJoined  int64 `json:"rows_joined"`
	RowsDropped int64 `json:"rows_dropped"`
	RowsOut     int64 `json:"rows_out"`
	BytesOut    int64 `json:"bytes_out"`
}

// Count is one named operational counter (a server's, the WAL's, ...),
// rendered by AddCounts as a "counter" span.
type Count struct {
	Name  string
	Value int64
}

// AddCounts appends one "counter" span per count to tr, all in phase, and
// returns tr: operational state reuses the EXPLAIN rendering path
// (CompactLines, TreeLines), where each prints as a bare "name: value" line.
func (tr *Trace) AddCounts(phase string, counts ...Count) *Trace {
	for _, c := range counts {
		tr.Spans = append(tr.Spans, Span{Op: "counter", Label: c.Name, Phase: phase, RowsOut: int(c.Value)})
	}
	return tr
}

// Tracer collects spans for one query execution. The zero value is not used
// directly; create one with New. A nil *Tracer is the disabled tracer: every
// method is a cheap no-op.
type Tracer struct {
	mu    sync.Mutex
	spans []*Span
	start time.Time

	query       string
	mode        string
	strategy    string
	parallelism int
	outputs     []string
	stats       string
	cache       string
	hasSnap     bool
	snapSeq     uint64
	snapLSN     uint64

	statsBuilds   atomic.Int64
	statsTimeNS   atomic.Int64
	statsExtended atomic.Int64
	statsExtRows  atomic.Int64
	statsExtNS    atomic.Int64
}

// New returns an enabled tracer for one query execution.
func New(query string) *Tracer {
	return &Tracer{query: query, start: time.Now()}
}

// Enabled reports whether the tracer records anything. The nil receiver is
// the disabled fast path.
func (t *Tracer) Enabled() bool { return t != nil }

// Span registers and returns a new span; the caller fills its fields before
// the query finishes. Returns nil on a disabled tracer.
func (t *Tracer) Span(op, label string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{Op: op, Label: label}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Note records a free-text plan annotation in program order.
func (t *Tracer) Note(text string) {
	if t == nil {
		return
	}
	sp := t.Span("note", "")
	sp.Detail = text
}

// SetMode records the query mode: single-table, resultdb,
// resultdb-preserving.
func (t *Tracer) SetMode(m string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.mode = m
	t.mu.Unlock()
}

// SetStrategy records the execution strategy: spj, sequential, semijoin,
// decompose.
func (t *Tracer) SetStrategy(s string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.strategy = s
	t.mu.Unlock()
}

// SetParallelism records the effective degree of parallelism.
func (t *Tracer) SetParallelism(p int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.parallelism = p
	t.mu.Unlock()
}

// SetOutputs records the output relation aliases in result order.
func (t *Tracer) SetOutputs(aliases []string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.outputs = append([]string(nil), aliases...)
	t.mu.Unlock()
}

// SetCacheStatus records the result-cache outcome for the traced statement:
// "hit" (a fresh cached entry exists for its fingerprint), "extendable (+N
// rows)" (an entry filled before N rows were appended to its tables) or
// "miss". Empty
// means the cache was disabled. Rendered by EXPLAIN ANALYZE inside the
// strippable bracket section (run-varying, like wall times), and excluded
// from CountsFingerprint.
func (t *Tracer) SetCacheStatus(s string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cache = s
	t.mu.Unlock()
}

// SetSnapshot records the commit position the traced statement pinned: the
// MVCC publish sequence number and the durable log LSN of its snapshot.
// Run-varying (depends on how many commits preceded the query), so it is
// rendered only inside the strippable bracket section of EXPLAIN ANALYZE
// and excluded from CountsFingerprint — classic EXPLAIN output is
// byte-stable across snapshots.
func (t *Tracer) SetSnapshot(seq, lsn uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.hasSnap = true
	t.snapSeq = seq
	t.snapLSN = lsn
	t.mu.Unlock()
}

// AddStatsBuild records that the traced statement itself built a table
// version's column statistics from row 0 (it was the first to ask for them,
// and no ancestor version had any), in a build that began at start and ends
// now. Run-varying — the next statement finds them built — so it is rendered
// only inside the strippable bracket section of EXPLAIN ANALYZE and excluded
// from CountsFingerprint.
func (t *Tracer) AddStatsBuild(start time.Time) {
	if t == nil {
		return
	}
	t.statsBuilds.Add(1)
	t.statsTimeNS.Add(time.Since(start).Nanoseconds())
}

// AddStatsExtension is AddStatsBuild for statistics derived by extending an
// ancestor version's with the rows added since (rows of them).
func (t *Tracer) AddStatsExtension(start time.Time, rows int) {
	if t == nil {
		return
	}
	t.statsExtended.Add(1)
	t.statsExtRows.Add(int64(rows))
	t.statsExtNS.Add(time.Since(start).Nanoseconds())
}

// SetStats records the core algorithm's one-line stats summary.
func (t *Tracer) SetStats(s string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stats = s
	t.mu.Unlock()
}

// Trace is an immutable snapshot of a finished execution; the unit the JSON
// emitters and the EXPLAIN renderers consume.
type Trace struct {
	Query       string   `json:"query,omitempty"`
	Mode        string   `json:"mode,omitempty"`
	Strategy    string   `json:"strategy,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	Outputs     []string `json:"outputs,omitempty"`
	Stats       string   `json:"stats,omitempty"`
	// Cache is the result-cache outcome ("hit", "extendable (+N rows)",
	// "miss", or "" when the cache is off). Run-varying: excluded from
	// CountsFingerprint and rendered only
	// inside the strippable bracket section of EXPLAIN ANALYZE.
	Cache string `json:"cache,omitempty"`
	// HasSnapshot/SnapshotSeq/SnapshotLSN identify the MVCC snapshot the
	// statement executed against (publish sequence and durable LSN).
	// Run-varying: excluded from CountsFingerprint and rendered only inside
	// the strippable bracket section of EXPLAIN ANALYZE. So are the
	// column-statistics derivations this statement paid for (it was the
	// first to need them): StatsBuilds from row 0 in StatsTimeNS in total,
	// and StatsExtended extensions of an ancestor version's statistics by
	// StatsExtendedRows rows in StatsExtendNS.
	HasSnapshot       bool     `json:"has_snapshot,omitempty"`
	SnapshotSeq       uint64   `json:"snapshot_seq,omitempty"`
	SnapshotLSN       uint64   `json:"snapshot_lsn,omitempty"`
	StatsBuilds       int64    `json:"stats_builds,omitempty"`
	StatsTimeNS       int64    `json:"stats_time_ns,omitempty"`
	StatsExtended     int64    `json:"stats_extended,omitempty"`
	StatsExtendedRows int64    `json:"stats_extended_rows,omitempty"`
	StatsExtendNS     int64    `json:"stats_extend_ns,omitempty"`
	WallNS            int64    `json:"wall_ns"`
	Counters          Counters `json:"counters"`
	Spans             []Span   `json:"spans"`
}

// Finish snapshots the tracer into a Trace. Returns nil on a disabled
// tracer. The tracer must not record further spans afterwards.
func (t *Tracer) Finish() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := &Trace{
		Query:             t.query,
		Mode:              t.mode,
		Strategy:          t.strategy,
		Parallelism:       t.parallelism,
		Outputs:           append([]string(nil), t.outputs...),
		Stats:             t.stats,
		Cache:             t.cache,
		HasSnapshot:       t.hasSnap,
		SnapshotSeq:       t.snapSeq,
		SnapshotLSN:       t.snapLSN,
		StatsBuilds:       t.statsBuilds.Load(),
		StatsTimeNS:       t.statsTimeNS.Load(),
		StatsExtended:     t.statsExtended.Load(),
		StatsExtendedRows: t.statsExtRows.Load(),
		StatsExtendNS:     t.statsExtNS.Load(),
		WallNS:            time.Since(t.start).Nanoseconds(),
		Spans:             make([]Span, len(t.spans)),
	}
	for i, sp := range t.spans {
		tr.Spans[i] = *sp
		tr.Counters.add(sp)
	}
	return tr
}

// add counts sp into the whole-query totals: rows a scan keeps (and those
// its filter drops), a join's or fold's output, the rows a semi-join drops,
// and an output span's rows and bytes.
func (c *Counters) add(sp *Span) {
	switch sp.Op {
	case "scan":
		c.RowsScanned += int64(sp.RowsOut)
		c.RowsDropped += int64(sp.RowsIn - sp.RowsOut)
	case "hash-join", "cross-join", "fold":
		c.RowsJoined += int64(sp.RowsOut)
	case "semi-join":
		c.RowsDropped += int64(sp.RowsIn - sp.RowsOut)
	case "output":
		c.RowsOut += int64(sp.RowsOut)
		c.BytesOut += int64(sp.Bytes)
	}
}

// JSON marshals the trace (indented, stable field order).
func (tr *Trace) JSON() ([]byte, error) {
	return json.MarshalIndent(tr, "", "  ")
}
