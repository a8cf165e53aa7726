package db

import (
	"strings"
	"sync"

	"resultdb/internal/sqlparse"
)

// memoGenBytes bounds one generation of the statement memo by the summed
// length of its keys, the raw statement texts. The memo keeps two
// generations, so it holds at most 2 × 128 KiB of text. Measured on the 33
// JOB RESULTDB statements (315 bytes each on average), an entry — key, AST,
// canonical text, table list and map slot — retains ≈ 2.8 KB, 8.9× its text,
// so a full memo retains ≈ 2.3 MiB. 128 KiB holds about 400 statements of
// that size, more than ten times the 33 a repeated-query workload cycles
// through.
const memoGenBytes = 128 << 10

// selectStmt is a parsed SELECT as the read path carries it: the AST plus the
// canonical text and table list the result cache places it by. Those two are
// derived on first use by the cached path, at most once. One memoised
// selectStmt serves every execution of its text, in every session at once,
// so nothing may write its AST after parse returns it.
type selectStmt struct {
	*sqlparse.Select

	once   sync.Once
	canon  string
	tables []string
}

// fingerprint returns the statement's canonical text (sqlparse.Canonical)
// and the tables it reads (sqlparse.Tables), deriving them on first call.
func (q *selectStmt) fingerprint() (canon string, tables []string) {
	q.once.Do(func() {
		q.canon = sqlparse.Canonical(q.Select)
		q.tables = sqlparse.Tables(q.Select)
	})
	return q.canon, q.tables
}

// stmtMemo maps exact raw statement text to its parsed SELECT. It holds two
// generations: a text found in the old one moves to the current one, and
// when the current one would pass memoGenBytes of key text it becomes the
// old one and the previous old one is dropped. A statement in use therefore
// survives any number of rotations, and one seen once ages out after two.
// The memo carries no version: a parse depends on the text alone.
type stmtMemo struct {
	mu       sync.Mutex
	cur, old map[string]*selectStmt
	curBytes int
}

// get returns the memoised statement of sql, or nil.
func (m *stmtMemo) get(sql string) *selectStmt {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q, ok := m.cur[sql]; ok {
		return q
	}
	q, ok := m.old[sql]
	if ok {
		m.add(strings.Clone(sql), q)
	}
	return q
}

// put memoises q under sql and returns the statement the memo now holds for
// sql: q, or the one a concurrent put of the same text left first. A text
// longer than a generation is not memoised.
func (m *stmtMemo) put(sql string, q *selectStmt) *selectStmt {
	if len(sql) > memoGenBytes {
		return q
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.cur[sql]; ok {
		return prev
	}
	m.add(strings.Clone(sql), q)
	return q
}

// add inserts into the current generation, rotating first when sql would
// take it past its bound. Callers pass a cloned key, so the memo retains
// exactly its own bytes and not a larger buffer sql may be a slice of. m.mu
// is held.
func (m *stmtMemo) add(sql string, q *selectStmt) {
	if m.cur == nil || m.curBytes+len(sql) > memoGenBytes {
		m.old, m.cur, m.curBytes = m.cur, make(map[string]*selectStmt), 0
	}
	m.cur[sql] = q
	m.curBytes += len(sql)
}

// parse is the database's one single-statement parse entry point. A SELECT
// comes back as a *selectStmt, shared through the memo with every other
// execution of the same text. Every other statement, and every parse error,
// is parsed fresh and never memoised, so a stream of distinct INSERTs cannot
// churn the memo.
func (d *Database) parse(sql string) (sqlparse.Statement, error) {
	if q := d.memo.get(sql); q != nil {
		return q, nil
	}
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if sel, ok := st.(*sqlparse.Select); ok {
		return d.memo.put(sql, &selectStmt{Select: sel}), nil
	}
	return st, nil
}
