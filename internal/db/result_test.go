package db

import (
	"sync"
	"testing"

	"resultdb/internal/colstore"
	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
)

// TestWireSizeFromColumns: a set's Section 6.1 size summed from its typed
// view equals the size of the same rows made a set by NewResultSet (exact
// values), for every vector kind with and without NULLs, an exact-value
// column of mixed kinds, and under a selection.
func TestWireSizeFromColumns(t *testing.T) {
	var rows []types.Row
	for i := 0; i < 300; i++ {
		var mixed types.Value
		switch i % 5 {
		case 0:
			mixed = types.NewInt(int64(i))
		case 1:
			mixed = types.NewText(string(make([]byte, i%13)))
		case 2:
			mixed = types.NewFloat(float64(i) / 3)
		case 3:
			mixed = types.NewBool(i%2 == 0)
		}
		row := types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i)), types.NewBool(i%3 == 0),
			types.NewText(string(make([]byte, i%7))), mixed}
		if i%4 == 1 { // NULLs in every typed column
			row[0], row[1], row[2], row[3] = types.Null(), types.Null(), types.Null(), types.Null()
		}
		rows = append(rows, row)
	}
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindBool, types.KindText, types.KindInt}
	frame := colstore.NewFrame(kinds, rows)
	if _, ok := frame.Col(4).(*colstore.AnyColumn); !ok {
		t.Fatalf("column 4 is %T, want the exact-value column", frame.Col(4))
	}
	var sel []int32
	for i := 0; i < len(rows); i += 3 {
		sel = append(sel, int32(i))
	}
	cols := []string{"i", "f", "b", "s", "mixed"}
	for _, v := range []*colstore.View{{Frame: frame}, {Frame: frame, Sel: sel}, {Frame: frame, Sel: []int32{}}} {
		view := &ResultSet{Name: "x", Columns: cols, Vec: v}
		boxed := NewResultSet("x", cols, v.Rows())
		if view.NumRows() != boxed.NumRows() || view.WireSize() != boxed.WireSize() {
			t.Errorf("selection of %d: view counts %d rows / %d bytes, rows %d / %d",
				len(v.Sel), view.NumRows(), view.WireSize(), boxed.NumRows(), boxed.WireSize())
		}
	}
}

// TestInProcessCallsBox: every in-process call returns sets with Rows boxed
// from their views; Session.ExecUnboxed, what the wire server runs, returns
// the views alone.
func TestInProcessCallsBox(t *testing.T) {
	d := cacheTestDB(t)
	d.DisableCache()
	sql := "SELECT RESULTDB PRESERVING m.title, r.actor FROM movies m, roles r WHERE m.id = r.movie_id"
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	results := map[string]func() (*Result, error){
		"Database.Exec":          func() (*Result, error) { return d.Exec(sql) },
		"Database.ExecStatement": func() (*Result, error) { return d.ExecStatement(sel) },
		"Database.Query":         func() (*Result, error) { return d.Query(sel) },
		"Database.QueryResultDB": func() (*Result, error) { return d.QueryResultDB(sel, ModeRDBRP) },
		"Database.QueryWithTrace": func() (*Result, error) {
			res, _, err := d.QueryWithTrace(sel)
			return res, err
		},
		"Session.Exec":          func() (*Result, error) { return sess.Exec(sql) },
		"Session.ExecStatement": func() (*Result, error) { return sess.ExecStatement(sel) },
		"Session.Query":         func() (*Result, error) { return sess.Query(sel) },
		"Session.QueryResultDB": func() (*Result, error) { return sess.QueryResultDB(sel, ModeRDBRP) },
		"Session.QueryWithTrace": func() (*Result, error) {
			res, _, err := sess.QueryWithTrace(sel)
			return res, err
		},
	}
	var res *Result
	for name, call := range results {
		r, err := call()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, set := range r.Sets {
			if set.Vec == nil || set.Rows == nil || len(set.Rows) != set.NumRows() {
				t.Errorf("%s: set %q not boxed", name, set.Name)
			}
		}
		res = r
	}
	for name, call := range map[string]func() (*ResultSet, error){
		"Database.PostJoin":   func() (*ResultSet, error) { return d.PostJoin(sel, res) },
		"ExecutePostJoinPlan": func() (*ResultSet, error) { return ExecutePostJoinPlan(res) },
	} {
		set, err := call()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if set.Rows == nil || len(set.Rows) != set.NumRows() || set.NumRows() == 0 {
			t.Errorf("%s: post-join set not boxed", name)
		}
	}
	r, _, err := sess.ExecUnboxed(sql)
	if err != nil {
		t.Fatalf("Session.ExecUnboxed: %v", err)
	}
	for _, set := range r.Sets {
		if set.Vec == nil || set.Rows != nil {
			t.Errorf("Session.ExecUnboxed: set %q boxed on the server path", set.Name)
		}
	}
}

// TestCacheHitBoxesIntoACopy (run under -race by verify.sh): in-process
// callers and wire-server reads (ExecUnboxed) of one cached entry race. Each
// in-process caller gets a boxed copy sharing the entry's views; the entry's
// own sets, which the server reads, stay unboxed — a caller boxing into them
// would be a data race and would show Rows on the server side.
func TestCacheHitBoxesIntoACopy(t *testing.T) {
	d := cacheTestDB(t)
	sql := "SELECT RESULTDB m.title, r.actor FROM movies m, roles r WHERE m.id = r.movie_id"
	entry, _, err := d.NewSession().ExecUnboxed(sql)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan string, 1)
	report := func(msg string) { // the first failure is enough
		select {
		case errs <- msg:
		default:
		}
	}
	for i := 0; i < readers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				res, err := d.Exec(sql)
				if err != nil {
					report(err.Error())
					return
				}
				for j, set := range res.Sets {
					if set == entry.Sets[j] || set.Vec != entry.Sets[j].Vec || len(set.Rows) != set.NumRows() {
						report("in-process hit is not a boxed copy of the entry's set " + set.Name)
						return
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			sess := d.NewSession()
			for k := 0; k < 20; k++ {
				res, _, err := sess.ExecUnboxed(sql)
				if err != nil {
					report(err.Error())
					return
				}
				for _, set := range res.Sets {
					if set.Rows != nil {
						report("the server saw Rows on the cached set " + set.Name)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := d.CacheStats(); st.Misses != 1 {
		t.Fatalf("want every read served from the one entry, got %+v", st)
	}
}
