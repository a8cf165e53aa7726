// Package client is the reproduction's answer to the paper's "API
// Integration" proposal (Section 7, item 6): current database APIs expect a
// single cursor of tuples; ResultDB needs a minimally invasive extension
// that returns a *set* of cursors, one per relation, plus a cursor over the
// join co-groups of multiple result sets so clients don't have to hand-roll
// the post-join.
//
// The package works against anything that executes SQL — the in-process
// *db.Database and the TCP *wire.Client both satisfy Conn — so the same
// application code runs embedded or remote.
package client

import (
	"errors"
	"fmt"
	"sort"

	"resultdb/internal/db"
	"resultdb/internal/types"
)

// Conn executes SQL against some database; *db.Database and *wire.Client
// both implement it.
type Conn interface {
	Exec(sql string) (*db.Result, error)
}

// DB is a thin convenience handle over a connection.
type DB struct {
	conn Conn
}

// Open wraps a connection.
func Open(conn Conn) *DB { return &DB{conn: conn} }

// Exec runs a statement without result interpretation (DDL/DML).
func (d *DB) Exec(sql string) (*db.Result, error) { return d.conn.Exec(sql) }

// Query runs a query and returns a cursor over its first (single-table)
// result set — the classic API shape.
func (d *DB) Query(sql string) (*Rows, error) {
	res, err := d.conn.Exec(sql)
	if err != nil {
		return nil, err
	}
	set := res.First()
	if set == nil {
		return nil, errors.New("client: statement returned no result set")
	}
	return newRows(set), nil
}

// QuerySubDB runs a (typically RESULTDB) query and returns the multi-cursor
// result: one named cursor per relation of the subdatabase.
func (d *DB) QuerySubDB(sql string) (*SubDB, error) {
	res, err := d.conn.Exec(sql)
	if err != nil {
		return nil, err
	}
	if len(res.Sets) == 0 {
		return nil, errors.New("client: statement returned no result sets")
	}
	return &SubDB{res: res}, nil
}

// Rows is a forward-only cursor over one result set, in the style of
// database/sql.
type Rows struct {
	set    *db.ResultSet
	pos    int
	closed bool
}

func newRows(set *db.ResultSet) *Rows { return &Rows{set: set, pos: -1} }

// Columns returns the column labels.
func (r *Rows) Columns() []string { return r.set.Columns }

// Name returns the relation label of the cursor's result set.
func (r *Rows) Name() string { return r.set.Name }

// Next advances to the next row; it returns false after the last row or
// after Close.
func (r *Rows) Next() bool {
	if r.closed {
		return false
	}
	r.pos++
	return r.pos < r.set.NumRows()
}

// valid reports whether the cursor is on a row.
func (r *Rows) valid() bool { return r.pos >= 0 && r.pos < r.set.NumRows() }

// Row returns the current row, boxed afresh from the set's view (valid
// after a true Next).
func (r *Rows) Row() types.Row {
	if !r.valid() {
		return nil
	}
	return r.set.Row(r.pos)
}

// Scan copies the current row into the destinations: *int64, *float64,
// *string, *bool, or *types.Value. NULL scans into a *types.Value as a NULL
// value and is an error for concrete destinations. It reads the cells off
// the set's view and boxes no row.
func (r *Rows) Scan(dest ...any) error {
	if !r.valid() {
		return errors.New("client: Scan called without a successful Next")
	}
	if len(dest) != len(r.set.Columns) {
		return fmt.Errorf("client: Scan expects %d destinations, got %d", len(r.set.Columns), len(dest))
	}
	for i, d := range dest {
		v := r.set.Column(i).At(r.pos)
		switch p := d.(type) {
		case *types.Value:
			*p = v
		case *int64:
			if v.IsNull() || v.Kind() != types.KindInt {
				return fmt.Errorf("client: column %d is %s, not INTEGER", i, v.Kind())
			}
			*p = v.Int()
		case *float64:
			if v.IsNull() || (v.Kind() != types.KindFloat && v.Kind() != types.KindInt) {
				return fmt.Errorf("client: column %d is %s, not numeric", i, v.Kind())
			}
			*p = v.Float()
		case *string:
			if v.IsNull() || v.Kind() != types.KindText {
				return fmt.Errorf("client: column %d is %s, not TEXT", i, v.Kind())
			}
			*p = v.Text()
		case *bool:
			if v.IsNull() || v.Kind() != types.KindBool {
				return fmt.Errorf("client: column %d is %s, not BOOLEAN", i, v.Kind())
			}
			*p = v.Bool()
		default:
			return fmt.Errorf("client: unsupported Scan destination %T", d)
		}
	}
	return nil
}

// Close releases the cursor (idempotent).
func (r *Rows) Close() error {
	r.closed = true
	return nil
}

// SubDB is a subdatabase result: a set of named cursors (the paper's
// extended API) plus co-group iteration.
type SubDB struct {
	res *db.Result
}

// Relations lists the result-set names in server order.
func (s *SubDB) Relations() []string {
	out := make([]string, len(s.res.Sets))
	for i, set := range s.res.Sets {
		out[i] = set.Name
	}
	return out
}

// Cursor returns a fresh cursor over the named relation, or nil.
func (s *SubDB) Cursor(name string) *Rows {
	set := s.res.Set(name)
	if set == nil {
		return nil
	}
	return newRows(set)
}

// Result exposes the underlying raw result.
func (s *SubDB) Result() *db.Result { return s.res }

// PostJoin reconstructs the single-table result from a relationship-
// preserving subdatabase using the plan the server shipped with it
// (SELECT RESULTDB PRESERVING ...; the paper's Section 7 "subdatabase
// snapshot"): the client performs the post-join mechanically, without
// knowing the original query.
func (s *SubDB) PostJoin() (*Rows, error) {
	set, err := db.ExecutePostJoinPlan(s.res)
	if err != nil {
		return nil, err
	}
	return newRows(set), nil
}

// HasPostJoinPlan reports whether the server shipped a post-join plan.
func (s *SubDB) HasPostJoinPlan() bool { return s.res.PostJoinPlan != nil }

// CoGroup builds a cursor over the join co-groups of two relations of the
// subdatabase: for every distinct key value, the rows of the left relation
// whose leftCol equals the key, paired with the rows of the right relation
// whose rightCol equals it (Section 7's "cursor that iterates over the join
// co-groups of multiple result sets"). Keys are emitted in sorted order;
// keys appearing on only one side yield an empty opposite group, so a
// client can implement inner or outer post-joins from the same cursor.
func (s *SubDB) CoGroup(left, leftCol, right, rightCol string) (*CoGroups, error) {
	ls := s.res.Set(left)
	if ls == nil {
		return nil, fmt.Errorf("client: no relation %q in the subdatabase", left)
	}
	rs := s.res.Set(right)
	if rs == nil {
		return nil, fmt.Errorf("client: no relation %q in the subdatabase", right)
	}
	li := colIndex(ls, leftCol)
	if li < 0 {
		return nil, fmt.Errorf("client: relation %q has no column %q", left, leftCol)
	}
	ri := colIndex(rs, rightCol)
	if ri < 0 {
		return nil, fmt.Errorf("client: relation %q has no column %q", right, rightCol)
	}

	groups := map[uint64]*CoGroup{}
	order := []*CoGroup{}
	upsert := func(v types.Value) *CoGroup {
		h := v.Hash()
		if g, ok := groups[h]; ok && types.Equal(g.Key, v) {
			return g
		}
		// Hash collisions between unequal keys fall back to a linear probe
		// over the order slice (vanishingly rare; correctness first).
		for _, g := range order {
			if types.Equal(g.Key, v) {
				return g
			}
		}
		g := &CoGroup{Key: v}
		groups[h] = g
		order = append(order, g)
		return g
	}
	for i := range ls.NumRows() {
		k := ls.Column(li).At(i)
		if k.IsNull() {
			continue // NULL keys never participate in joins
		}
		g := upsert(k)
		g.Left = append(g.Left, ls.Row(i))
	}
	for i := range rs.NumRows() {
		k := rs.Column(ri).At(i)
		if k.IsNull() {
			continue
		}
		g := upsert(k)
		g.Right = append(g.Right, rs.Row(i))
	}
	sort.Slice(order, func(i, j int) bool {
		return types.Compare(order[i].Key, order[j].Key) < 0
	})
	return &CoGroups{groups: order, pos: -1}, nil
}

// CoGroup is one key's group: all left rows and all right rows sharing it.
type CoGroup struct {
	Key   types.Value
	Left  []types.Row
	Right []types.Row
}

// CoGroups iterates co-groups in ascending key order.
type CoGroups struct {
	groups []*CoGroup
	pos    int
}

// Next advances; false after the last group.
func (c *CoGroups) Next() bool {
	c.pos++
	return c.pos < len(c.groups)
}

// Group returns the current co-group (valid after a true Next).
func (c *CoGroups) Group() *CoGroup {
	if c.pos < 0 || c.pos >= len(c.groups) {
		return nil
	}
	return c.groups[c.pos]
}

// Len returns the number of distinct keys.
func (c *CoGroups) Len() int { return len(c.groups) }

func colIndex(set *db.ResultSet, name string) int {
	for i, c := range set.Columns {
		if equalFold(c, name) {
			return i
		}
	}
	return -1
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
