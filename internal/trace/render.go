package trace

import (
	"fmt"
	"strings"
)

// CompactLines renders the trace in the classic EXPLAIN format: one line per
// plan step with actual cardinalities, no timings (the output is fully
// deterministic for a deterministic plan). EXPLAIN uses it.
func (tr *Trace) CompactLines() []string {
	var lines []string
	resultDB := tr.Mode == "resultdb" || tr.Mode == "resultdb-preserving"
	switch {
	case resultDB:
		lines = append(lines, "RESULTDB plan (Algorithm 4, actual cardinalities)")
		lines = append(lines, fmt.Sprintf("output relations: %v", tr.Outputs))
	case tr.Mode == "single-table" && tr.Strategy != "sequential":
		lines = append(lines, "single-table plan (greedy hash-join order, actual cardinalities)")
	}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		switch sp.Op {
		case "note":
			lines = append(lines, sp.Detail)
		case "scan":
			lines = append(lines, fmt.Sprintf("scan %s  filter: %s  rows: %d -> %d",
				sp.Label, sp.Detail, sp.RowsIn, sp.RowsOut))
		case "hash-join":
			lines = append(lines, fmt.Sprintf("hash join + %s  keys: %d  rows: %d x %d -> %d",
				sp.Label, sp.Keys, sp.RowsIn, sp.RowsBuild, sp.RowsOut))
		case "cross-join":
			lines = append(lines, fmt.Sprintf("cross join + %s  keys: %d  rows: %d x %d -> %d",
				sp.Label, sp.Keys, sp.RowsIn, sp.RowsBuild, sp.RowsOut))
		case "residual-filter":
			lines = append(lines, fmt.Sprintf("residual filter: %s  rows: %d -> %d",
				sp.Detail, sp.RowsIn, sp.RowsOut))
		case "project":
			distinct := ""
			if sp.Detail == "distinct" {
				distinct = " distinct"
			}
			lines = append(lines, fmt.Sprintf("project%s [%s]  rows: %d",
				distinct, sp.Label, sp.RowsIn))
		case "fold":
			lines = append(lines, fmt.Sprintf("fold %s  rows: %d x %d -> %d",
				sp.Label, sp.RowsIn, sp.RowsBuild, sp.RowsOut))
		case "root":
			lines = append(lines, fmt.Sprintf("root: %s %s", sp.Label, sp.Detail))
		case "semi-join":
			lines = append(lines, fmt.Sprintf("semi-join %s  rows: %d -> %d",
				sp.Label, sp.RowsIn, sp.RowsOut))
		case "counter":
			lines = append(lines, fmt.Sprintf("%s: %d", sp.Label, sp.RowsOut))
		case "output":
			switch {
			case resultDB:
				lines = append(lines, fmt.Sprintf("return %s  rows: %d (before projection dedup)",
					sp.Label, sp.RowsIn))
			case tr.Strategy == "sequential":
				lines = append(lines, fmt.Sprintf("result rows: %d", sp.RowsOut))
			}
			// Single-table SPJ output is already covered by the project line.
		}
		// decompose spans carry no classic EXPLAIN line.
	}
	if resultDB && tr.Stats != "" {
		lines = append(lines, "stats: "+tr.Stats)
	}
	return lines
}

// TreeLines renders the trace as the EXPLAIN ANALYZE operator tree: spans
// grouped into phases, each operator annotated with rows-in/rows-out, key
// counts, transfer bytes, and (in a trailing bracket that tooling may strip)
// wall times, parallel degree, and morsel counts.
func (tr *Trace) TreeLines() []string {
	var lines []string
	head := "mode: " + orDash(tr.Mode) + "  strategy: " + orDash(tr.Strategy)
	// The bracket section is strippable: everything inside it varies with the
	// run or the host (wall time, effective parallel degree, result-cache
	// outcome) and is excluded from CountsFingerprint.
	var headAnn []string
	if tr.WallNS > 0 {
		headAnn = append(headAnn, ms(tr.WallNS))
	}
	if tr.Parallelism > 0 {
		headAnn = append(headAnn, fmt.Sprintf("parallelism: %d", tr.Parallelism))
	}
	if tr.Cache != "" {
		headAnn = append(headAnn, "cache: "+tr.Cache)
	}
	if tr.HasSnapshot {
		headAnn = append(headAnn, fmt.Sprintf("snapshot: seq %d, lsn %d", tr.SnapshotSeq, tr.SnapshotLSN))
	}
	var derived []string
	if tr.StatsBuilds > 0 {
		derived = append(derived, fmt.Sprintf("%d built in %d µs", tr.StatsBuilds, tr.StatsTimeNS/1e3))
	}
	if tr.StatsExtended > 0 {
		derived = append(derived, fmt.Sprintf("%d extended (+%d rows) in %d µs", tr.StatsExtended, tr.StatsExtendedRows, tr.StatsExtendNS/1e3))
	}
	if len(derived) > 0 {
		headAnn = append(headAnn, "stats: "+strings.Join(derived, ", "))
	}
	if len(headAnn) > 0 {
		head += "  [" + strings.Join(headAnn, ", ") + "]"
	}
	lines = append(lines, head)
	if len(tr.Outputs) > 0 {
		// No [...] here: in TreeLines, square brackets are reserved for the
		// run-varying annotations tooling strips.
		lines = append(lines, "output relations: "+strings.Join(tr.Outputs, ", "))
	}

	// Group consecutive spans by phase; phase-less spans print at top level.
	i := 0
	for i < len(tr.Spans) {
		sp := &tr.Spans[i]
		if sp.Phase == "" {
			lines = append(lines, tr.topLevelLine(sp)...)
			i++
			continue
		}
		j := i
		for j < len(tr.Spans) && tr.Spans[j].Phase == sp.Phase {
			j++
		}
		lines = append(lines, sp.Phase)
		for k := i; k < j; k++ {
			glyph := "├─"
			if k == j-1 {
				glyph = "└─"
			}
			lines = append(lines, "  "+glyph+" "+spanLine(&tr.Spans[k]))
		}
		i = j
	}
	if tr.Stats != "" {
		lines = append(lines, "stats: "+tr.Stats)
	}
	c := tr.Counters
	lines = append(lines, fmt.Sprintf(
		"totals: scanned=%d joined=%d dropped=%d out=%d bytes=%d",
		c.RowsScanned, c.RowsJoined, c.RowsDropped, c.RowsOut, c.BytesOut))
	return lines
}

// topLevelLine renders a phase-less span (notes, root choice) at top level.
func (tr *Trace) topLevelLine(sp *Span) []string {
	switch sp.Op {
	case "note":
		return []string{sp.Detail}
	case "root":
		return []string{fmt.Sprintf("root: %s %s", sp.Label, sp.Detail)}
	default:
		return []string{spanLine(sp)}
	}
}

// spanLine renders one operator with its deterministic counts first and the
// run-varying annotations (times, morsels) in a trailing bracket.
func spanLine(sp *Span) string {
	var b strings.Builder
	switch sp.Op {
	case "scan":
		fmt.Fprintf(&b, "scan %s  filter: %s  rows: %d -> %d", sp.Label, sp.Detail, sp.RowsIn, sp.RowsOut)
	case "hash-join", "cross-join":
		kind := "hash join"
		if sp.Op == "cross-join" {
			kind = "cross join"
		}
		fmt.Fprintf(&b, "%s + %s  keys: %d  rows: %d x %d -> %d", kind, sp.Label, sp.Keys, sp.RowsIn, sp.RowsBuild, sp.RowsOut)
	case "semi-join":
		fmt.Fprintf(&b, "semi-join %s  rows: %d -> %d  (source %d rows)", sp.Label, sp.RowsIn, sp.RowsOut, sp.RowsBuild)
	case "fold":
		fmt.Fprintf(&b, "fold %s  rows: %d x %d -> %d", sp.Label, sp.RowsIn, sp.RowsBuild, sp.RowsOut)
	case "residual-filter":
		fmt.Fprintf(&b, "residual filter: %s  rows: %d -> %d", sp.Detail, sp.RowsIn, sp.RowsOut)
	case "project":
		distinct := ""
		if sp.Detail == "distinct" {
			distinct = " distinct"
		}
		fmt.Fprintf(&b, "project%s [%s]  rows: %d -> %d", distinct, sp.Label, sp.RowsIn, sp.RowsOut)
	case "decompose":
		fmt.Fprintf(&b, "decompose %s  rows: %d -> %d", sp.Label, sp.RowsIn, sp.RowsOut)
	case "output":
		fmt.Fprintf(&b, "return %s  rows: %d -> %d  bytes: %d", sp.Label, sp.RowsIn, sp.RowsOut, sp.Bytes)
	case "counter":
		// Operational counters (server stats rendered through the trace
		// pipeline): a bare name/value, no row arrows.
		fmt.Fprintf(&b, "%s: %d", sp.Label, sp.RowsOut)
	case "note":
		b.WriteString(sp.Detail)
	default:
		fmt.Fprintf(&b, "%s %s  rows: %d -> %d", sp.Op, sp.Label, sp.RowsIn, sp.RowsOut)
	}

	var ann []string
	if sp.EstOut > 0 {
		ann = append(ann, fmt.Sprintf("est %d, actual %d", sp.EstOut, sp.RowsOut))
	}
	if sp.Dict > 0 {
		ann = append(ann, fmt.Sprintf("dict %d", sp.Dict))
	}
	if sp.BuildNS > 0 {
		ann = append(ann, "build "+ms(sp.BuildNS))
	}
	if sp.ProbeNS > 0 {
		ann = append(ann, "probe "+ms(sp.ProbeNS))
	}
	if sp.DurNS > 0 {
		ann = append(ann, ms(sp.DurNS))
	}
	if sp.Morsels > 1 {
		ann = append(ann, fmt.Sprintf("morsels %d", sp.Morsels))
	}
	if len(ann) > 0 {
		b.WriteString("  [" + strings.Join(ann, ", ") + "]")
	}
	return b.String()
}

// CountsFingerprint canonicalizes the deterministic portion of the trace:
// per-span ops, labels, phases, details, cardinalities, key counts and byte
// counts, plus the whole-query counters. Wall times, the parallel degree and
// morsel counts are excluded, so the fingerprint of a query is bit-identical
// at any degree of parallelism — the invariant the trace tests lock in.
func (tr *Trace) CountsFingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s strategy=%s outputs=%v\n", tr.Mode, tr.Strategy, tr.Outputs)
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		fmt.Fprintf(&b, "%s|%s|%s|%s|in=%d|build=%d|out=%d|keys=%d|bytes=%d\n",
			sp.Op, sp.Label, sp.Phase, sp.Detail, sp.RowsIn, sp.RowsBuild, sp.RowsOut, sp.Keys, sp.Bytes)
	}
	c := tr.Counters
	fmt.Fprintf(&b, "scanned=%d joined=%d dropped=%d out=%d bytes=%d\n",
		c.RowsScanned, c.RowsJoined, c.RowsDropped, c.RowsOut, c.BytesOut)
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func ms(ns int64) string {
	return fmt.Sprintf("%.2fms", float64(ns)/1e6)
}
