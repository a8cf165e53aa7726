package db

import "fmt"

// StreamMeta is the response header of a streamed execution: everything a
// consumer must know before the first result set arrives. For RESULTDB
// queries the set count and the post-join plan are fixed by the analysis
// phase, before any output relation is projected, so a wire server can
// serialize the header and then ship each relation while the executor is
// still projecting the next one.
type StreamMeta struct {
	// NumSets is the exact number of emit calls that will follow.
	NumSets int
	// Plan is the shipped post-join recipe (RDBRP results only).
	Plan *PostJoinPlan
	// Materialised reports that the result existed before this statement
	// asked for it — a SELECT served from the result cache — or is a
	// non-SELECT's: the emit calls that follow are a replay with no work
	// between them, and a cached result's sets may already carry their
	// encoded payloads (PayloadMemo), so a consumer has nothing to overlap
	// its own work with. A SELECT this call had to execute reports false
	// even when the cache makes it replay: its sets are still to be encoded.
	Materialised bool
}

// streamSink receives a streamed execution, nil-safe: a nil sink turns
// queryResultDBAt/querySingleTableAt back into the plain buffered path at
// the cost of two nil checks.
type streamSink struct {
	beginFn func(StreamMeta) error
	emitFn  func(*ResultSet) error
}

func (s *streamSink) begin(m StreamMeta) error {
	if s == nil {
		return nil
	}
	return s.beginFn(m)
}

func (s *streamSink) emit(set *ResultSet) error {
	if s == nil {
		return nil
	}
	return s.emitFn(set)
}

// ExecStream executes one SQL statement, delivering the result incrementally:
// begin is called exactly once with the header (set count, post-join plan),
// then emit once per result set, in result order. For uncached SELECTs the
// calls interleave with execution — emit(set_i) runs before relation i+1 is
// projected, which is what makes server-side pipelining (execute ‖ encode ‖
// transmit) possible. Cached SELECTs and non-SELECT statements execute fully
// first and then replay their result through the callbacks
// (StreamMeta.Materialised marks the replays that involved no execution at
// all), so consumers see one protocol either way.
//
// SELECTs stream from a snapshot pinned at entry, lock-free: the emitted
// sets are immutable views of one committed state even while writers
// publish concurrently.
//
// The returned Result holds the values a plain Exec would have produced,
// unboxed: a SELECT's emitted and returned sets carry their views and no
// Rows (the wire server encodes from the views; see ResultSet).
// An error from begin or emit aborts execution and is returned verbatim; an
// execution error after begin was already called is returned too — streaming
// consumers must be prepared to abandon a stream mid-flight.
func (d *Database) ExecStream(sql string, begin func(StreamMeta) error, emit func(*ResultSet) error) (*Result, error) {
	return d.execStreamAt(d.readCtx(), nil, sql, begin, emit)
}

// execStreamAt is ExecStream against an explicit execution context.
// onMutated, when non-nil, runs after a successful mutation (sessions
// refresh their pinned view through it).
func (d *Database) execStreamAt(ec execCtx, onMutated func(), sql string, begin func(StreamMeta) error, emit func(*ResultSet) error) (res *Result, err error) {
	// Same panic confinement as ExecStatement: a poisoned query surfaces as
	// a statement error (the stream is abandoned mid-flight), not a crash.
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("db: internal error: %v", p)
		}
	}()
	st, err := d.parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*selectStmt)
	if !ok {
		res, err := d.execAt(ec, st, onMutated)
		if err != nil {
			return nil, err
		}
		return res, replayStream(res, true, begin, emit)
	}
	if ec.opts.ResultCache {
		// The cache stores whole results (and may return one computed by a
		// concurrent identical query at the same snapshot versions), so the
		// streamed form is a replay.
		res, hit, err := d.queryCached(ec, sel)
		if err != nil {
			return nil, err
		}
		return res, replayStream(res, hit, begin, emit)
	}
	sink := &streamSink{beginFn: begin, emitFn: emit}
	if sel.ResultDB {
		mode := ModeRDB
		if sel.Preserving {
			mode = ModeRDBRP
		}
		return d.queryResultDBAt(ec, sel.Select, mode, sink)
	}
	return d.querySingleTableAt(ec, sel.Select, sink)
}

// replayStream feeds an already-computed result through the streaming
// callbacks (used for cached results and non-SELECT statements).
func replayStream(res *Result, materialised bool, begin func(StreamMeta) error, emit func(*ResultSet) error) error {
	if err := begin(StreamMeta{NumSets: len(res.Sets), Plan: res.PostJoinPlan, Materialised: materialised}); err != nil {
		return err
	}
	for _, set := range res.Sets {
		if err := emit(set); err != nil {
			return err
		}
	}
	return nil
}
