package db_test

import (
	"bytes"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
	"resultdb/internal/wire"
	"resultdb/internal/workload/star"
)

// TestResultSetsCarryViews: every set the system produces carries its
// columnar view, one frame column per output column — the v2 encoder's
// fast-path precondition and what a post-join runs on — whichever operators
// built it: a reduced scan, a join output projected for a single-table
// SELECT, the Decompose strategy, a folded (cyclic) reduction, the sequential
// pipeline; and so does the same result after a trip over the v2 or the v1
// wire, where the decoder is the producer, and EXPLAIN's and EXPLAIN
// ANALYZE's plan. A boxed set's Rows hold its view's values. A decoded set
// has Rows exactly when its result has one set (the classic cursor), and its
// view holds the in-process rows cell for cell. The server's form
// (Session.ExecUnboxed) is the view alone, Rows nil, and encodes in v1 and
// v2 to the bytes of the boxed form in-process callers get.
func TestResultSetsCarryViews(t *testing.T) {
	d := db.New()
	if _, err := d.ExecScript(`
CREATE TABLE a (id INT PRIMARY KEY, name TEXT);
CREATE TABLE b (id INT PRIMARY KEY, a_id INT, v FLOAT);
CREATE TABLE c (id INT PRIMARY KEY, a_id INT, b_id INT);
INSERT INTO a VALUES (1, 'x'), (2, 'y'), (3, 'z');
INSERT INTO b VALUES (10, 1, 0.5), (11, 1, 1.5), (12, 3, 2.5);
INSERT INTO c VALUES (20, 1, 10), (21, 3, 12), (22, 2, 11);`); err != nil {
		t.Fatal(err)
	}
	check := func(name, where string, r *db.Result, boxed bool) {
		t.Helper()
		for _, set := range r.Sets {
			if set.NumRows() == 0 {
				t.Errorf("%s (%s): set %q is empty; the shape is not exercised", name, where, set.Name)
			}
			if (set.Rows != nil) != boxed {
				t.Errorf("%s (%s): set %q has Rows %v", name, where, set.Name, set.Rows != nil)
			}
			if set.Vec == nil {
				t.Errorf("%s (%s): set %q has no colstore view attached", name, where, set.Name)
				continue
			}
			if set.Vec.Frame.NumCols() != len(set.Columns) {
				t.Errorf("%s (%s): set %q: view has %d columns, set has %d", name, where, set.Name, set.Vec.Frame.NumCols(), len(set.Columns))
				continue
			}
			if boxed && len(set.Rows) != set.NumRows() {
				t.Errorf("%s (%s): set %q: %d rows boxed, view has %d", name, where, set.Name, len(set.Rows), set.NumRows())
				continue
			}
			for i, row := range set.Rows {
				for j, v := range row {
					if got := set.Column(j).At(i); got != v {
						t.Errorf("%s (%s): set %q cell (%d,%d): view %v, row %v", name, where, set.Name, i, j, got, v)
					}
				}
			}
		}
	}
	// sameCells: each set of got holds, in its view, the boxed rows of the
	// same set of want, cell for cell.
	sameCells := func(name, where string, got, want *db.Result) {
		t.Helper()
		if len(got.Sets) != len(want.Sets) {
			t.Fatalf("%s (%s): %d sets, want %d", name, where, len(got.Sets), len(want.Sets))
		}
		for k, set := range got.Sets {
			rows := want.Sets[k].Rows
			if set.NumRows() != len(rows) {
				t.Errorf("%s (%s): set %q has %d rows, want %d", name, where, set.Name, set.NumRows(), len(rows))
				continue
			}
			for i, row := range rows {
				for j, v := range row {
					if got := set.Column(j).At(i); got != v {
						t.Errorf("%s (%s): set %q cell (%d,%d): %v, in process %v", name, where, set.Name, i, j, got, v)
					}
				}
			}
		}
	}
	for name, sql := range map[string]string{
		"RDB":                    "SELECT RESULTDB a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id",
		"RDBRP":                  "SELECT RESULTDB PRESERVING a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id",
		"single table over join": "SELECT a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id",
		"Decompose (residual)":   "SELECT RESULTDB a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id AND a.id < b.id",
		"cyclic (folded)":        "SELECT RESULTDB a.name, b.v, c.id FROM a AS a, b AS b, c AS c WHERE a.id = b.a_id AND b.id = c.b_id AND c.a_id = a.id",
		"sequential pipeline":    "SELECT a.name, COUNT(*) FROM a AS a LEFT JOIN b AS b ON a.id = b.a_id GROUP BY a.name ORDER BY a.name",
	} {
		res, err := d.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		decoded, err := wire.DecodeResult(wire.EncodeResultV2(res))
		if err != nil {
			t.Fatalf("%s: v2 round trip: %v", name, err)
		}
		decodedV1, err := wire.DecodeResult(wire.EncodeResult(res))
		if err != nil {
			t.Fatalf("%s: v1 round trip: %v", name, err)
		}
		server, _, err := d.NewSession().ExecUnboxed(sql)
		if err != nil {
			t.Fatalf("%s: server path: %v", name, err)
		}
		for _, version := range []int{wire.FormatV1, wire.FormatV2} {
			opts := wire.EncodeOptions{Version: version}
			if !bytes.Equal(wire.EncodeResultOptions(server, opts), wire.EncodeResultOptions(res, opts)) {
				t.Errorf("%s: the server's unboxed result and the boxed one encode differently in version %d", name, version)
			}
		}
		check(name, "engine", res, true)
		check(name, "decoded", decoded, len(decoded.Sets) == 1)
		check(name, "decoded v1", decodedV1, len(decodedV1.Sets) == 1)
		sameCells(name, "decoded", decoded, res)
		sameCells(name, "decoded v1", decodedV1, res)
		check(name, "server", server, false)
	}
	for _, explain := range []string{"EXPLAIN", "EXPLAIN ANALYZE"} {
		res, err := d.Exec(explain + " SELECT RESULTDB a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id")
		if err != nil {
			t.Fatalf("%s: %v", explain, err)
		}
		check(explain, "engine", res, true)
	}
	empty, err := d.Exec("SELECT RESULTDB a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id AND a.id > 99")
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wire.DecodeResult(wire.EncodeResultV2(empty))
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range decoded.Sets {
		if set.Vec == nil || set.Vec.Len() != 0 || set.Vec.Frame.NumCols() != len(set.Columns) {
			t.Errorf("decoded empty set %q: view %+v", set.Name, set.Vec)
		}
	}
}

// TestPostJoinSameOnEveryResultForm: the post-join gives the same rows, in
// the same order and of the same kinds, whether it runs on the engine's own
// result, on a v2-decoded one (frames from the decoder; inline text arrives
// as exact values and is typed on entry), on a v1-decoded one or on a
// hand-built one (both made from rows by db.NewResultSet, so every column
// holds exact values and is typed on entry) — with NULLs in and next to the
// join columns.
func TestPostJoinSameOnEveryResultForm(t *testing.T) {
	stars := db.New()
	cfg := star.Config{Dims: 3, DimRows: 9, PayloadLen: 12, Seed: 3}
	if err := star.Load(stars, cfg); err != nil {
		t.Fatal(err)
	}
	nulls := db.New()
	if _, err := nulls.ExecScript(`
CREATE TABLE p (id INT PRIMARY KEY, tag TEXT, w FLOAT, ok BOOL);
CREATE TABLE q (id INT PRIMARY KEY, p_id INT, tag TEXT);
INSERT INTO p VALUES (1, 'red', 0.5, TRUE), (2, NULL, NULL, FALSE), (3, 'red', 2.5, NULL), (4, 'blue', NULL, TRUE);
INSERT INTO q VALUES (10, 1, 'red'), (11, 2, NULL), (12, NULL, 'blue'), (13, 3, 'red'), (14, 3, NULL), (15, 4, 'green');`); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    *db.Database
		sql  string
	}{
		{"star 0.6", stars, star.Query(cfg, 0.6)},
		{"star 1.0", stars, star.Query(cfg, 1.0)},
		{"nulls", nulls, "SELECT p.tag, p.w, p.ok, q.tag FROM p AS p, q AS q WHERE p.id = q.p_id"},
		{"text key with nulls", nulls, "SELECT p.id, p.w, q.id FROM p AS p, q AS q WHERE p.tag = q.tag"},
	}
	for _, tc := range cases {
		sel, err := sqlparse.ParseSelect(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := tc.d.QueryResultDB(sel, db.ModeRDBRP)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		viaV2, err := wire.DecodeResult(wire.EncodeResultV2(res))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		viaV1, err := wire.DecodeResult(wire.EncodeResult(res))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		handBuilt := &db.Result{PostJoinPlan: res.PostJoinPlan}
		for _, set := range res.Sets {
			rows := make([]types.Row, len(set.Rows))
			for i, r := range set.Rows {
				rows[i] = r.Clone()
			}
			handBuilt.Sets = append(handBuilt.Sets, db.NewResultSet(set.Name, set.Columns, rows))
		}
		want, err := db.ExecutePostJoinPlan(res)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s: empty post-join; the shape is not exercised", tc.name)
		}
		fromSelect, err := tc.d.PostJoin(sel, res)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		forms := map[string]*db.ResultSet{"Database.PostJoin": fromSelect}
		for form, r := range map[string]*db.Result{"decoded v2": viaV2, "decoded v1": viaV1, "hand-built": handBuilt} {
			if forms[form], err = db.ExecutePostJoinPlan(r); err != nil {
				t.Fatalf("%s on %s: %v", tc.name, form, err)
			}
		}
		for form, got := range forms {
			if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") || len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s on %s: %v x %d rows, want %v x %d", tc.name, form, got.Columns, len(got.Rows), want.Columns, len(want.Rows))
			}
			for i, row := range want.Rows {
				for c := range row {
					if got.Rows[i][c] != row[c] {
						t.Fatalf("%s on %s: cell (%d,%d) = %v (%s), want %v (%s)", tc.name, form, i, c,
							got.Rows[i][c], got.Rows[i][c].Kind(), row[c], row[c].Kind())
					}
				}
			}
		}
	}
}
