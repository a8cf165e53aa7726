package db

import "testing"

// sessRows counts the rows a session currently sees in table t.
func sessRows(t *testing.T, s *Session, table string) int {
	t.Helper()
	res, err := s.Exec("SELECT " + table + ".id FROM " + table + " AS " + table)
	if err != nil {
		t.Fatal(err)
	}
	return res.First().NumRows()
}

func sessionFixture(t *testing.T) *Database {
	t.Helper()
	d := Open(DefaultConfig())
	if _, err := d.ExecScript(`
		CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT);
		INSERT INTO t VALUES (1, 'a'), (2, 'b');
	`); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSessionReadYourOwnWrites(t *testing.T) {
	d := sessionFixture(t)
	s := d.NewSession()
	if got := sessRows(t, s, "t"); got != 2 {
		t.Fatalf("rows = %d, want 2", got)
	}
	if _, err := s.Exec("INSERT INTO t VALUES (3, 'c')"); err != nil {
		t.Fatal(err)
	}
	if got := sessRows(t, s, "t"); got != 3 {
		t.Fatalf("own write invisible: rows = %d, want 3", got)
	}
}

func TestSessionPinFreezesOtherSessionsCommits(t *testing.T) {
	d := sessionFixture(t)
	a, b := d.NewSession(), d.NewSession()

	a.Pin()
	if !a.Pinned() {
		t.Fatal("Pin did not pin")
	}
	if _, err := b.Exec("INSERT INTO t VALUES (3, 'c')"); err != nil {
		t.Fatal(err)
	}
	// b (unpinned) sees its own commit at the next statement; a (pinned)
	// keeps its frozen view.
	if got := sessRows(t, b, "t"); got != 3 {
		t.Fatalf("writer session rows = %d, want 3", got)
	}
	if got := sessRows(t, a, "t"); got != 2 {
		t.Fatalf("pinned session rows = %d, want 2 (repeatable reads)", got)
	}
	a.Unpin()
	if a.Pinned() {
		t.Fatal("Unpin did not unpin")
	}
	if got := sessRows(t, a, "t"); got != 3 {
		t.Fatalf("unpinned session rows = %d, want 3", got)
	}
}

func TestSessionUnpinnedSeesCommitsAtStatementBoundary(t *testing.T) {
	d := sessionFixture(t)
	a, b := d.NewSession(), d.NewSession()
	if _, err := b.Exec("INSERT INTO t VALUES (3, 'c')"); err != nil {
		t.Fatal(err)
	}
	if got := sessRows(t, a, "t"); got != 3 {
		t.Fatalf("unpinned session missed another session's commit: rows = %d", got)
	}
}

// A pinned session's own acknowledged write must be visible to its next
// statement: afterWrite re-pins on the post-commit state.
func TestSessionPinnedReadYourOwnWrites(t *testing.T) {
	d := sessionFixture(t)
	s := d.NewSession()
	s.Pin()
	if _, err := s.Exec("INSERT INTO t VALUES (3, 'c')"); err != nil {
		t.Fatal(err)
	}
	if !s.Pinned() {
		t.Fatal("write should re-pin, not unpin")
	}
	if got := sessRows(t, s, "t"); got != 3 {
		t.Fatalf("pinned session cannot read its own write: rows = %d, want 3", got)
	}
}

// Per-session options are private copies: changing them affects neither the
// database defaults nor other sessions. A session sets three execution
// values: its strategy, its degree and whether it uses the result cache.
func TestSessionOptionsAreIndependent(t *testing.T) {
	d := sessionFixture(t)
	d.EnableCache(0)
	a, b := d.NewSession(), d.NewSession()
	if a.Strategy != d.Strategy || a.CoreOptions != d.CoreOptions {
		t.Fatal("session options not seeded from database")
	}
	a.Strategy = StrategyDecompose
	a.CoreOptions = ExecOptions{Parallelism: 7, ResultCache: false}
	if b.Strategy == StrategyDecompose || b.CoreOptions != (ExecOptions{ResultCache: true}) {
		t.Fatalf("session option change leaked into sibling session: %v %+v", b.Strategy, b.CoreOptions)
	}
	if d.Strategy == StrategyDecompose || d.CoreOptions != (ExecOptions{ResultCache: true}) {
		t.Fatalf("session option change leaked into database: %v %+v", d.Strategy, d.CoreOptions)
	}
	// The session still executes with its private options.
	if res, err := a.Exec("SELECT RESULTDB t.name FROM t AS t WHERE t.id = 1"); err != nil || len(res.Sets) == 0 {
		t.Fatalf("decompose-strategy session query failed: %v", err)
	}
}

// Session.Snapshot reports the view the next statement would use.
func TestSessionSnapshotReporting(t *testing.T) {
	d := sessionFixture(t)
	s := d.NewSession()
	seq0 := s.Snapshot().Seq()
	pinned := s.Pin()
	if pinned.Seq() != seq0 {
		t.Fatalf("pin seq = %d, want %d", pinned.Seq(), seq0)
	}
	if _, err := d.Exec("INSERT INTO t VALUES (3, 'c')"); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().Seq() != seq0 {
		t.Fatal("pinned Snapshot() advanced")
	}
	s.Unpin()
	if s.Snapshot().Seq() != seq0+1 {
		t.Fatalf("unpinned Snapshot().Seq() = %d, want %d", s.Snapshot().Seq(), seq0+1)
	}
}
