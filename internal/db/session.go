package db

import (
	"resultdb/internal/sqlparse"
	"resultdb/internal/trace"
)

// Session is one client's handle on the database — the wire server opens one
// per connection, the shell uses one for the interactive loop — making the
// engine's visibility rules an explicit contract instead of an accident of
// locking:
//
//   - Snapshot isolation per statement: every statement executed through a
//     session runs against one immutable committed state. It can never
//     observe another connection's half-applied batch, no matter how the
//     statements interleave.
//   - Read your own writes: a mutation acknowledged through this session is
//     visible to every later statement of the same session (writes are
//     globally serialized, and the session re-pins after its own commits).
//   - Snapshot isolation across connections: another session's commit
//     becomes visible only at a statement boundary — by default at the next
//     statement (each statement pins the then-newest state), or, between
//     Pin and Unpin, not at all (repeatable reads against one frozen state).
//
// Per-session execution options (Strategy, CoreOptions) start as copies of
// the database's and may be changed freely between the session's own
// statements without racing other connections — this is what the wire
// server's per-connection settings ride on. Being copies, they do not follow
// later changes to the database's: a caller that toggles the result cache
// (Database.EnableCache) and wants an existing session to use it sets that
// session's CoreOptions.ResultCache too. A Session is not safe
// for concurrent use by multiple goroutines; open one per client. Sessions
// hold no server-side resources and need no close.
type Session struct {
	db *Database
	// pinned, when non-nil, freezes the session's view (Pin/Unpin). When
	// nil, each statement pins the newest committed state.
	pinned *Snapshot

	// Strategy and CoreOptions are this session's private execution options,
	// seeded from the database's at NewSession.
	Strategy    Strategy
	CoreOptions ExecOptions
}

// NewSession opens a session whose options start as copies of the
// database-level configuration.
func (d *Database) NewSession() *Session {
	return &Session{
		db:          d,
		Strategy:    d.Strategy,
		CoreOptions: d.CoreOptions,
	}
}

// DB returns the underlying database.
func (s *Session) DB() *Database { return s.db }

// Snapshot returns the state the session's next read statement would see:
// the pinned snapshot, or the newest committed state.
func (s *Session) Snapshot() *Snapshot {
	if s.pinned != nil {
		return s.pinned
	}
	return s.db.Snapshot()
}

// Pin freezes the session's view at the newest committed state (or keeps
// the current pin): until Unpin, every read statement sees exactly this
// state — repeatable reads. The session's own writes still re-pin, so read
// your own writes survives pinning.
func (s *Session) Pin() *Snapshot {
	if s.pinned == nil {
		s.pinned = s.db.Snapshot()
	}
	return s.pinned
}

// Unpin releases a pinned view; subsequent statements see the newest
// committed state again.
func (s *Session) Unpin() { s.pinned = nil }

// Pinned reports whether the session is holding a frozen view.
func (s *Session) Pinned() bool { return s.pinned != nil }

// ctx builds the execution context for one read statement: the session's
// view plus its private options.
func (s *Session) ctx() execCtx {
	snap := s.Snapshot()
	return execCtx{src: snap, snap: snap, strategy: s.Strategy, opts: s.CoreOptions}
}

// afterWrite re-pins a frozen session on the newest state so the session's
// own acknowledged write is visible to its next statement (read your own
// writes). Unpinned sessions need nothing: they pick up the newest state —
// which includes the write, because writes are serialized and acknowledged
// only after publish — at the next statement anyway.
func (s *Session) afterWrite() {
	if s.pinned != nil {
		s.pinned = s.db.Snapshot()
	}
}

// Exec parses and executes a single SQL statement through the session.
// Panics are confined to the statement, as in ExecStatement.
func (s *Session) Exec(sql string) (res *Result, err error) {
	defer confine(&res, &err)
	return boxed(s.ExecUnboxed(sql))
}

// ExecUnboxed is Exec without the boxing: a SELECT's sets carry their views
// and no Rows (see ResultSet), which is what the wire server encodes from.
// Reads run against the session's view; mutations go through the write path
// and refresh it. A panic is not confined here but reaches the caller: the
// wire server's recover confines it to the connection and counts it.
func (s *Session) ExecUnboxed(sql string) (*Result, error) {
	st, err := s.db.parse(sql)
	if err != nil {
		return nil, err
	}
	return s.db.execAt(s.ctx(), st, s.afterWrite)
}

// ExecStatement executes a parsed statement through the session: reads run
// against the session's view with the session's options; mutations go
// through the database's serialized write path and then refresh the
// session's view. Panics are confined to the statement, as in
// Database.ExecStatement.
func (s *Session) ExecStatement(st sqlparse.Statement) (res *Result, err error) {
	defer confine(&res, &err)
	return boxed(s.db.execAt(s.ctx(), st, s.afterWrite))
}

// Query executes a SELECT against the session's view.
func (s *Session) Query(sel *sqlparse.Select) (*Result, error) {
	return boxed(s.db.query(s.ctx(), &selectStmt{Select: sel}))
}

// QueryResultDB executes sel with subdatabase semantics in the requested
// mode against the session's view (the session-scoped analogue of
// Database.QueryResultDB).
func (s *Session) QueryResultDB(sel *sqlparse.Select, mode Mode) (*Result, error) {
	return boxed(s.db.queryResultDBAt(s.ctx(), sel, mode))
}

// QueryWithTrace executes a SELECT against the session's view with execution
// tracing enabled (see Database.QueryWithTrace).
func (s *Session) QueryWithTrace(sel *sqlparse.Select) (*Result, *trace.Trace, error) {
	return s.db.queryWithTrace(s.ctx(), sel)
}
