package db

import (
	"reflect"
	"testing"
)

func streamDB(t *testing.T) *Database {
	t.Helper()
	d := New()
	if _, err := d.ExecScript(`
CREATE TABLE a (id INT PRIMARY KEY, name TEXT);
CREATE TABLE b (id INT PRIMARY KEY, a_id INT, v FLOAT);
INSERT INTO a VALUES (1, 'x'), (2, 'y'), (3, 'z');
INSERT INTO b VALUES (10, 1, 0.5), (11, 1, 1.5), (12, 3, 2.5);`); err != nil {
		t.Fatal(err)
	}
	return d
}

// unboxedExec runs sql through Session.ExecUnboxed, the call the wire server
// makes, and checks that every set it returns is its view alone.
func unboxedExec(t *testing.T, d *Database, sql string) *Result {
	t.Helper()
	res, err := d.NewSession().ExecUnboxed(sql)
	if err != nil {
		t.Fatalf("ExecUnboxed(%q): %v", sql, err)
	}
	for _, set := range res.Sets {
		if set.Vec == nil || set.Rows != nil {
			t.Fatalf("ExecUnboxed(%q): set %q is not unboxed", sql, set.Name)
		}
	}
	return res
}

// sameSets compares unboxed sets against a result's sets by value.
func sameSets(t *testing.T, sets []*ResultSet, res *Result) {
	t.Helper()
	if len(sets) != len(res.Sets) {
		t.Fatalf("got %d sets, result has %d", len(sets), len(res.Sets))
	}
	for i, set := range sets {
		want := res.Sets[i]
		if set.Name != want.Name || !reflect.DeepEqual(set.Columns, want.Columns) || !reflect.DeepEqual(set.boxed().Rows, want.boxed().Rows) {
			t.Fatalf("set %d differs from the result's set", i)
		}
	}
}

func TestExecStreamResultDB(t *testing.T) {
	d := streamDB(t)
	sql := "SELECT RESULTDB a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id"
	res := unboxedExec(t, d, sql)
	if len(res.Sets) != 2 {
		t.Fatalf("got %d sets, want 2", len(res.Sets))
	}
	// The unboxed result must match a plain Exec of the same query.
	plain, err := d.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameSets(t, res.Sets, plain)
}

func TestExecStreamPreservingCarriesPlan(t *testing.T) {
	d := streamDB(t)
	sql := "SELECT RESULTDB PRESERVING a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id"
	res := unboxedExec(t, d, sql)
	if res.PostJoinPlan == nil {
		t.Fatal("PRESERVING result lost the post-join plan")
	}
	plain, err := d.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameSets(t, res.Sets, plain)
}

func TestExecStreamSingleTable(t *testing.T) {
	d := streamDB(t)
	sql := "SELECT a.name FROM a AS a WHERE a.id > 1"
	res := unboxedExec(t, d, sql)
	if len(res.Sets) != 1 || res.Sets[0].NumRows() != 2 {
		t.Fatalf("single-table result: %d sets", len(res.Sets))
	}
	plain, err := d.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameSets(t, res.Sets, plain)
}

func TestExecStreamNonSelectReplays(t *testing.T) {
	d := streamDB(t)
	sess := d.NewSession()
	sess.Pin()
	res, err := sess.ExecUnboxed("INSERT INTO a VALUES (4, 'w')")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 0 || res.Affected != 1 {
		t.Fatalf("DML result: %d sets, affected %d; want 0 sets, 1 affected", len(res.Sets), res.Affected)
	}
	// The session re-pinned after its own write: its next read sees it.
	got, err := sess.ExecUnboxed("SELECT a.name FROM a AS a WHERE a.id = 4")
	if err != nil {
		t.Fatal(err)
	}
	if got.Sets[0].NumRows() != 1 {
		t.Fatal("a pinned session did not read its own write")
	}
}

func TestExecStreamCachedReplays(t *testing.T) {
	d := streamDB(t)
	d.EnableCache(DefaultCacheBudget)
	sql := "SELECT RESULTDB a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id"
	// Cold fill, then a warm hit: both return the full result, as its views.
	cold := unboxedExec(t, d, sql)
	warm := unboxedExec(t, d, sql)
	sameSets(t, warm.Sets, cold)
	if st := d.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("want one fill and one hit, got %+v", st)
	}
}
