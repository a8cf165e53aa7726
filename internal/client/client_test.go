package client

import (
	"fmt"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/types"
	"resultdb/internal/wire"
	"resultdb/internal/workload/star"
)

func shopDB(t *testing.T) *db.Database {
	t.Helper()
	d := db.New()
	if _, err := d.ExecScript(`
CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT, state TEXT);
CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, pid INTEGER);
CREATE TABLE products (id INTEGER PRIMARY KEY, name TEXT, category TEXT);
INSERT INTO customers VALUES (0, 'custA', 'NY'), (1, 'custB', 'CA'), (2, 'custC', 'NY');
INSERT INTO orders VALUES (0, 0, 1), (1, 1, 1), (2, 1, 2), (3, 2, 1), (4, 0, 2), (5, 1, 3);
INSERT INTO products VALUES (0, 'smartphone', 'electronics'), (1, 'laptop', 'electronics'),
                            (2, 'shirt', 'clothing'), (3, 'pants', 'clothing');
`); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRowsScan(t *testing.T) {
	c := Open(shopDB(t))
	rows, err := c.Query("SELECT c.id, c.name FROM customers AS c WHERE c.state = 'NY' ORDER BY c.id")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := strings.Join(rows.Columns(), ","); got != "c.id,c.name" {
		t.Errorf("columns = %s", got)
	}
	var ids []int64
	var names []string
	for rows.Next() {
		var id int64
		var name string
		if err := rows.Scan(&id, &name); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		names = append(names, name)
	}
	if len(ids) != 2 || ids[0] != 0 || names[1] != "custC" {
		t.Errorf("scanned %v %v", ids, names)
	}
	// After exhaustion, Next stays false and Scan errors.
	if rows.Next() {
		t.Error("Next after exhaustion")
	}
	if err := rows.Scan(new(int64), new(string)); err == nil {
		t.Error("Scan after exhaustion should fail")
	}
}

func TestScanTypeMismatches(t *testing.T) {
	c := Open(shopDB(t))
	rows, err := c.Query("SELECT c.id, c.name FROM customers AS c WHERE c.id = 0")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no row")
	}
	if err := rows.Scan(new(string), new(string)); err == nil {
		t.Error("int into *string should fail")
	}
	if err := rows.Scan(new(int64)); err == nil {
		t.Error("arity mismatch should fail")
	}
	var v types.Value
	var f float64
	if err := rows.Scan(&f, &v); err != nil {
		t.Errorf("int into *float64 and *types.Value should work: %v", err)
	}
	if f != 0 || v.Text() != "custA" {
		t.Errorf("scanned %v %v", f, v)
	}
	if err := rows.Scan(new(int64), new(bool)); err == nil {
		t.Error("text into *bool should fail")
	}
}

func TestSubDBCursors(t *testing.T) {
	c := Open(shopDB(t))
	sub, err := c.QuerySubDB(`SELECT RESULTDB c.name, p.name, p.category
		FROM customers AS c, orders AS o, products AS p
		WHERE c.state = 'NY' AND c.id = o.cid AND p.id = o.pid`)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sub.Relations(), ","); got != "c,p" {
		t.Errorf("relations = %s", got)
	}
	pc := sub.Cursor("p")
	n := 0
	for pc.Next() {
		n++
	}
	if n != 2 {
		t.Errorf("p cursor rows = %d", n)
	}
	if sub.Cursor("zz") != nil {
		t.Error("unknown cursor should be nil")
	}
	// Fresh cursors iterate independently.
	pc2 := sub.Cursor("p")
	if !pc2.Next() {
		t.Error("fresh cursor exhausted")
	}
}

func TestCoGroups(t *testing.T) {
	c := Open(shopDB(t))
	// RDBRP-style query exposing the join keys on both sides.
	sub, err := c.QuerySubDB(`SELECT RESULTDB c.id, c.name, o.cid, o.pid
		FROM customers AS c, orders AS o
		WHERE c.id = o.cid AND c.state = 'NY'`)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := sub.CoGroup("c", "id", "o", "cid")
	if err != nil {
		t.Fatal(err)
	}
	if cg.Len() != 2 {
		t.Fatalf("co-groups = %d, want 2 (custA, custC)", cg.Len())
	}
	// Groups arrive key-ordered; reconstructing the join from the cursor
	// yields exactly |left| x |right| pairs per key.
	totalPairs := 0
	var keys []int64
	for cg.Next() {
		g := cg.Group()
		keys = append(keys, g.Key.Int())
		if len(g.Left) != 1 {
			t.Errorf("key %v: left rows = %d, want 1 (customer id unique)", g.Key, len(g.Left))
		}
		totalPairs += len(g.Left) * len(g.Right)
	}
	if keys[0] != 0 || keys[1] != 2 {
		t.Errorf("keys = %v, want [0 2]", keys)
	}
	if totalPairs != 3 {
		t.Errorf("pairs = %d, want 3 (the single-table join cardinality)", totalPairs)
	}
	if cg.Group() != nil {
		t.Error("Group after exhaustion should be nil")
	}
}

func TestCoGroupErrors(t *testing.T) {
	c := Open(shopDB(t))
	sub, err := c.QuerySubDB(`SELECT RESULTDB c.id, o.cid FROM customers AS c, orders AS o WHERE c.id = o.cid`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.CoGroup("zz", "id", "o", "cid"); err == nil {
		t.Error("unknown relation should fail")
	}
	if _, err := sub.CoGroup("c", "zz", "o", "cid"); err == nil {
		t.Error("unknown column should fail")
	}
}

// TestPostJoinPlanShipping: SELECT RESULTDB PRESERVING ships a post-join
// plan; the client reconstructs the single-table result without knowing the
// query — locally and over TCP.
func TestPostJoinPlanShipping(t *testing.T) {
	d := shopDB(t)
	srv := wire.NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wc, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	const query = `
		FROM customers AS c, orders AS o, products AS p
		WHERE c.state = 'NY' AND c.id = o.cid AND p.id = o.pid`
	// Ground truth from the classic query.
	want := map[string]int{}
	st, err := d.QuerySQL("SELECT c.name, p.name, p.category " + query)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range st.First().Rows {
		want[r.String()]++
	}

	for name, conn := range map[string]Conn{"local": d, "wire": wc} {
		c := Open(conn)
		sub, err := c.QuerySubDB("SELECT RESULTDB PRESERVING c.name, p.name, p.category " + query)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sub.HasPostJoinPlan() {
			t.Fatalf("%s: no shipped plan", name)
		}
		rows, err := sub.PostJoin()
		if err != nil {
			t.Fatalf("%s: post-join: %v", name, err)
		}
		got := map[string]int{}
		n := 0
		for rows.Next() {
			got[rows.Row().String()]++
			n++
		}
		if n != len(st.First().Rows) {
			t.Errorf("%s: post-join rows = %d, want %d", name, n, len(st.First().Rows))
		}
		for k := range want {
			if got[k] == 0 {
				t.Errorf("%s: post-join missing row %q", name, k)
			}
		}
	}

	// Plain RESULTDB (no PRESERVING) ships no plan; PostJoin errors.
	c := Open(d)
	sub, err := c.QuerySubDB("SELECT RESULTDB c.name, p.name, p.category " + query)
	if err != nil {
		t.Fatal(err)
	}
	if sub.HasPostJoinPlan() {
		t.Error("plain RESULTDB should not ship a plan")
	}
	if _, err := sub.PostJoin(); err == nil {
		t.Error("PostJoin without plan should fail")
	}
}

// TestClientOverWire runs the same API against a TCP connection.
func TestClientOverWire(t *testing.T) {
	d := shopDB(t)
	srv := wire.NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wc, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	c := Open(wc)
	sub, err := c.QuerySubDB(`SELECT RESULTDB c.name, p.category
		FROM customers AS c, orders AS o, products AS p
		WHERE c.id = o.cid AND p.id = o.pid AND c.state = 'NY'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Relations()) != 2 {
		t.Fatalf("relations = %v", sub.Relations())
	}
	rows := sub.Cursor("c")
	var names []string
	for rows.Next() {
		var name string
		if err := rows.Scan(&name); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if strings.Join(names, ",") != "custA,custC" && strings.Join(names, ",") != "custC,custA" {
		t.Errorf("names = %v", names)
	}
}

// TestClientAPISameOverWire: the client package's cursors, Scan, co-groups
// and post-join print the same over a Client — where a subdatabase's sets
// are views alone — as over the in-process Database, where they are boxed,
// for a RESULTDB and a RESULTDB PRESERVING statement over the star schema,
// and so does the single cursor of a classic statement.
func TestClientAPISameOverWire(t *testing.T) {
	cfg := star.Config{Dims: 2, DimRows: 8, PayloadLen: 6, Seed: 7}
	d := db.New()
	if err := star.Load(d, cfg); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wc, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	st := star.Query(cfg, 0.6)
	body := strings.TrimPrefix(st, "SELECT")
	stmts := []string{"SELECT RESULTDB" + body, "SELECT RESULTDB PRESERVING" + body}
	output := func(conn Conn, boxed bool) string {
		var b strings.Builder
		cur := func(rows *Rows) {
			fmt.Fprintf(&b, "%s %v\n", rows.Name(), rows.Columns())
			for rows.Next() {
				cells := make([]any, len(rows.Columns()))
				vals := make([]types.Value, len(cells))
				for i := range cells {
					cells[i] = &vals[i]
				}
				if err := rows.Scan(cells...); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%v %v\n", rows.Row(), types.Row(vals))
			}
		}
		c := Open(conn)
		for _, sql := range stmts {
			sub, err := c.QuerySubDB(sql)
			if err != nil {
				t.Fatal(err)
			}
			if len(sub.Relations()) < 2 {
				t.Fatalf("%s: relations %v; the shape is not exercised", sql, sub.Relations())
			}
			for _, set := range sub.Result().Sets {
				if (set.Rows != nil) != boxed {
					t.Fatalf("%s: set %q has Rows %v, want %v", sql, set.Name, set.Rows != nil, boxed)
				}
			}
			for _, name := range sub.Relations() {
				cur(sub.Cursor(name))
			}
			for i := range cfg.Dims {
				dim := star.DimName(i)
				groups, err := sub.CoGroup("f", dim+"_id", dim, "id")
				if err != nil {
					t.Fatal(err)
				}
				for groups.Next() {
					g := groups.Group()
					fmt.Fprintf(&b, "%s %v: %v | %v\n", dim, g.Key, g.Left, g.Right)
				}
			}
			if sub.HasPostJoinPlan() {
				pj, err := sub.PostJoin()
				if err != nil {
					t.Fatal(err)
				}
				cur(pj)
			}
		}
		rows, err := c.Query(st)
		if err != nil {
			t.Fatal(err)
		}
		cur(rows)
		return b.String()
	}
	local, remote := output(d, true), output(wc, false)
	if remote != local {
		t.Fatalf("over the wire the client API prints\n%s\nin process\n%s", remote, local)
	}
	if n := strings.Count(local, "\n"); n < 100 {
		t.Fatalf("the client API printed %d lines; the shape is not exercised", n)
	}
}
