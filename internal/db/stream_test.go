package db

import (
	"errors"
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

// collect runs ExecStream and records the callback sequence.
func collect(t *testing.T, d *Database, sql string) (StreamMeta, []*ResultSet, *Result) {
	t.Helper()
	var meta StreamMeta
	var sets []*ResultSet
	begun := false
	res, err := d.ExecStream(sql,
		func(m StreamMeta) error {
			if begun {
				t.Fatal("begin called twice")
			}
			begun = true
			meta = m
			return nil
		},
		func(set *ResultSet) error {
			if !begun {
				t.Fatal("emit before begin")
			}
			sets = append(sets, set)
			return nil
		})
	if err != nil {
		t.Fatalf("ExecStream(%q): %v", sql, err)
	}
	if !begun {
		t.Fatal("begin never called")
	}
	return meta, sets, res
}

// sameSets compares streamed sets against a result's sets by value.
func sameSets(t *testing.T, sets []*ResultSet, res *Result) {
	t.Helper()
	if len(sets) != len(res.Sets) {
		t.Fatalf("emitted %d sets, result has %d", len(sets), len(res.Sets))
	}
	for i, set := range sets {
		want := res.Sets[i]
		if set.Name != want.Name || !reflect.DeepEqual(set.Columns, want.Columns) || !reflect.DeepEqual(set.boxed().Rows, want.boxed().Rows) {
			t.Fatalf("emitted set %d differs from the result's set", i)
		}
	}
}

func TestExecStreamResultDB(t *testing.T) {
	d := streamDB(t)
	sql := "SELECT RESULTDB a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id"
	meta, sets, res := collect(t, d, sql)
	if meta.NumSets != len(res.Sets) || meta.NumSets != len(sets) {
		t.Fatalf("meta.NumSets = %d, emitted %d, result has %d", meta.NumSets, len(sets), len(res.Sets))
	}
	sameSets(t, sets, res)

	// The streamed result must match a plain Exec of the same query.
	plain, err := d.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameSets(t, sets, plain)
}

func TestExecStreamPreservingCarriesPlan(t *testing.T) {
	d := streamDB(t)
	meta, sets, res := collect(t, d,
		"SELECT RESULTDB PRESERVING a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id")
	if meta.Plan == nil || res.PostJoinPlan == nil {
		t.Fatal("PRESERVING stream lost the post-join plan")
	}
	if meta.Plan != res.PostJoinPlan {
		t.Error("meta.Plan is not the result's plan")
	}
	sameSets(t, sets, res)
}

func TestExecStreamSingleTable(t *testing.T) {
	d := streamDB(t)
	meta, sets, res := collect(t, d, "SELECT a.name FROM a AS a WHERE a.id > 1")
	if meta.NumSets != 1 || len(sets) != 1 {
		t.Fatalf("single-table stream: NumSets=%d, emitted %d", meta.NumSets, len(sets))
	}
	if meta.Materialised {
		t.Fatal("a SELECT that executes while it streams was announced as materialised")
	}
	sameSets(t, sets, res)
}

func TestExecStreamNonSelectReplays(t *testing.T) {
	d := streamDB(t)
	meta, sets, res := collect(t, d, "INSERT INTO a VALUES (4, 'w')")
	if meta.NumSets != 0 || len(sets) != 0 {
		t.Fatalf("DML stream: NumSets=%d, emitted %d", meta.NumSets, len(sets))
	}
	if res.Affected != 1 {
		t.Fatalf("affected = %d, want 1", res.Affected)
	}
	if !meta.Materialised {
		t.Fatal("a non-SELECT's replay was not announced as materialised")
	}
}

func TestExecStreamCachedReplays(t *testing.T) {
	d := streamDB(t)
	d.EnableCache(DefaultCacheBudget)
	sql := "SELECT RESULTDB a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id"
	// Cold fill, then a warm replay: both must stream the full result.
	for _, phase := range []string{"cold", "warm"} {
		meta, sets, res := collect(t, d, sql)
		if meta.NumSets != len(res.Sets) {
			t.Fatalf("%s: meta.NumSets = %d, result has %d", phase, meta.NumSets, len(res.Sets))
		}
		sameSets(t, sets, res)
		// Only the hit existed before it was asked for; the fill still has
		// its sets to encode, and consumers overlap that work.
		if meta.Materialised != (phase == "warm") {
			t.Fatalf("%s: Materialised = %v", phase, meta.Materialised)
		}
	}
	if st := d.CacheStats(); st.Hits == 0 {
		t.Error("warm replay did not come from the cache")
	}
}

func TestExecStreamCallbackErrorsAbort(t *testing.T) {
	d := streamDB(t)
	sql := "SELECT RESULTDB a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id"
	boom := errors.New("sink full")
	if _, err := d.ExecStream(sql,
		func(StreamMeta) error { return boom },
		func(*ResultSet) error { return nil }); !errors.Is(err, boom) {
		t.Fatalf("begin error not propagated: %v", err)
	}
	emits := 0
	if _, err := d.ExecStream(sql,
		func(StreamMeta) error { return nil },
		func(*ResultSet) error { emits++; return boom }); !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: %v", err)
	}
	if emits != 1 {
		t.Fatalf("execution continued after an emit error (%d emits)", emits)
	}
}
