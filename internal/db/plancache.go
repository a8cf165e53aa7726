package db

import (
	"resultdb/internal/engine"
	"resultdb/internal/sqlparse"
)

// The plan-verdict cache memoizes one bit per (query, table versions):
// did cost-based reduction planning produce a plan operationally different
// from the heuristic's? Statistics make big queries faster by switching
// roots, reordering passes, and injecting pre-filters — but on tiny queries
// whose cost-based plan comes out identical to the heuristic plan, the
// planning work itself is pure overhead paid on every execution. Once a
// full cost-based run reports core.Stats.PlanDiverged == false, re-running
// the same statement against unchanged tables skips the statistics
// machinery and takes the (provably identical) heuristic path directly.
// Any DML/DDL on an involved table publishes a new version of it, which no
// recorded verdict matches, so the next execution re-plans with fresh
// statistics.
//
// Traced runs (EXPLAIN ANALYZE and friends) bypass the cache in both
// directions: they always plan with statistics so the trace shows the
// cost-based decisions, and they record nothing.

// planVerdictCap bounds the verdict map. Verdicts are one bool plus one
// slice, so the bound exists only to stop unbounded growth under
// generated-query workloads; overflow simply resets the map (verdicts are
// re-derived in one execution each).
const planVerdictCap = 512

// planVerdict fingerprints the table versions a verdict was recorded
// against: storage.Table.Version of each of the statement's relations, in
// order. Numbers, not pointers — a verdict must not keep a superseded version
// (and its frame) reachable until its statement happens to run again.
type planVerdict struct {
	vers     []uint64
	diverged bool
}

// planKeyMemo caches one statement's rendered verdict key. Clients that
// re-execute a parsed *Select (benchmark loops, prepared-statement-style
// reuse) would otherwise pay the SQL render — a few microseconds on wide
// JOB queries, which is the same order as the whole planning overhead the
// verdict cache exists to remove. The memo is validated against the
// fields a caller could plausibly mutate between executions (the WHERE
// root pointer, FROM arity, and the mode flags); a stale or colliding
// memo can only misdirect the stats-skip decision, never the results —
// both the cost-based and the heuristic path compute the same bytes.
type planKeyMemo struct {
	where      sqlparse.Expr
	from       int
	resultdb   bool
	preserving bool
	distinct   bool
	key        string
}

// planKey returns the verdict-cache key for sel: the raw source text when
// the parser recorded it (zero cost), else the rendered SQL memoized per
// statement object. The execution mode is appended by the caller — the
// same statement in RDB vs RDBRP mode has different outputs and hence a
// different early-stop surface, so the two must not share a verdict.
func (d *Database) planKey(sel *sqlparse.Select) string {
	if sel.Src != "" {
		return sel.Src
	}
	d.planMu.Lock()
	m, ok := d.planKeys[sel]
	d.planMu.Unlock()
	if ok && m.where == sel.Where && m.from == len(sel.From) &&
		m.resultdb == sel.ResultDB && m.preserving == sel.Preserving && m.distinct == sel.Distinct {
		return m.key
	}
	key := sel.SQL()
	d.planMu.Lock()
	if d.planKeys == nil || len(d.planKeys) >= planVerdictCap {
		d.planKeys = make(map[*sqlparse.Select]planKeyMemo, 64)
	}
	d.planKeys[sel] = planKeyMemo{
		where:      sel.Where,
		from:       len(sel.From),
		resultdb:   sel.ResultDB,
		preserving: sel.Preserving,
		distinct:   sel.Distinct,
		key:        key,
	}
	d.planMu.Unlock()
	return key
}

// modeKeySuffix disambiguates verdicts of the same statement text executed
// in different subdatabase modes (QueryResultDB can force either mode on
// the same parsed statement).
func modeKeySuffix(mode Mode) string {
	if mode == ModeRDBRP {
		return "\x00rp"
	}
	return ""
}

// planConfirmedHeuristic reports whether a previous cost-based execution of
// key recorded a non-diverged plan that is still valid for the table
// versions src resolves (the reader's snapshot, or a write transaction): a
// version is immutable, so matching versions means matching statistics.
func (d *Database) planConfirmedHeuristic(src engine.Source, key string, spec *engine.SPJSpec) bool {
	d.planMu.Lock()
	v, ok := d.planVerdicts[key]
	d.planMu.Unlock()
	if !ok || v.diverged || len(v.vers) != len(spec.Rels) {
		return false
	}
	for i, r := range spec.Rels {
		t, err := src.Table(r.Table)
		if err != nil || t.Version() != v.vers[i] {
			return false
		}
	}
	return true
}

// recordPlanVerdict stores the divergence verdict of a completed cost-based
// execution, fingerprinted by the involved table versions it planned
// against.
func (d *Database) recordPlanVerdict(src engine.Source, key string, spec *engine.SPJSpec, diverged bool) {
	v := planVerdict{vers: make([]uint64, len(spec.Rels)), diverged: diverged}
	for i, r := range spec.Rels {
		t, err := src.Table(r.Table)
		if err != nil {
			// A table vanished mid-flight; the verdict cannot be
			// fingerprinted, so don't cache it.
			return
		}
		v.vers[i] = t.Version()
	}
	d.planMu.Lock()
	if d.planVerdicts == nil || len(d.planVerdicts) >= planVerdictCap {
		d.planVerdicts = make(map[string]planVerdict, 64)
	}
	d.planVerdicts[key] = v
	d.planMu.Unlock()
}
