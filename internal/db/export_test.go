package db

import "resultdb/internal/sqlparse"

// MemoGenBytes is memoGenBytes, for the tests of package db_test.
const MemoGenBytes = memoGenBytes

// MemoisedSelect returns the parsed SELECT the statement memo holds for sql,
// parsing and memoising it first if the memo holds none; ok is false when sql
// is not a SELECT.
func MemoisedSelect(d *Database, sql string) (sel *sqlparse.Select, ok bool, err error) {
	st, err := d.parse(sql)
	if err != nil {
		return nil, false, err
	}
	q, ok := st.(*selectStmt)
	if !ok {
		return nil, false, nil
	}
	return q.Select, true, nil
}

// MemoTextBytes is the summed length of the statement memo's keys, over both
// generations.
func MemoTextBytes(d *Database) int {
	m := &d.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, g := range []map[string]*selectStmt{m.cur, m.old} {
		for sql := range g {
			n += len(sql)
		}
	}
	return n
}

// PaperExampleSQL is paperExampleSQL, for the tests of package db_test.
const PaperExampleSQL = paperExampleSQL
