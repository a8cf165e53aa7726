package wire

import (
	"runtime"
	"strings"
	"testing"

	"resultdb/internal/colstore"
	"resultdb/internal/db"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

// TestDecodeBoxesNoSubdatabase guards the client half of "results box on
// demand": decoding the three star_transfer payloads (RESULTDB PRESERVING)
// and JOB 16b's allocates no row block — the heap profile sees no
// types.MakeRows — and leaves every set a view, Rows nil, that holds the
// in-process rows cell for cell.
func TestDecodeBoxesNoSubdatabase(t *testing.T) {
	starDB, jobDB := db.New(), db.New()
	if err := star.Load(starDB, star.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := job.Load(jobDB, job.Config{Scale: 0.1, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	var want []*db.Result
	var payloads [][]byte
	exec := func(d *db.Database, sql string) {
		res, err := d.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want, payloads = append(want, res), append(payloads, EncodeResultV2(res))
	}
	for _, s := range []float64{0.6, 0.8, 1.0} {
		exec(starDB, "SELECT RESULTDB PRESERVING"+strings.TrimPrefix(star.Query(star.DefaultConfig(), s), "SELECT"))
	}
	exec(jobDB, jobRDB(t, "16b"))
	decodeAll := func() []*db.Result {
		var out []*db.Result
		for _, p := range payloads {
			res, err := DecodeResultExpect(p, FormatV2)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	decodeAll() // warm

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := rowBlockAllocs()
	decoded := decodeAll()
	if boxed := rowBlockAllocs() - before; boxed != 0 {
		t.Errorf("decoding %d subdatabases boxed %d row blocks, want 0", len(payloads), boxed)
	}
	runtime.MemProfileRate = 512 * 1024

	for k, res := range decoded {
		if len(res.Sets) < 2 {
			t.Fatalf("result %d has %d sets; the shape is not exercised", k, len(res.Sets))
		}
		for s, set := range res.Sets {
			if set.Rows != nil {
				t.Errorf("result %d: set %q of a subdatabase is boxed", k, set.Name)
			}
			rows := want[k].Sets[s].Rows
			if set.NumRows() != len(rows) || set.NumRows() == 0 {
				t.Fatalf("result %d: set %q has %d rows, in process %d", k, set.Name, set.NumRows(), len(rows))
			}
			for i, row := range rows {
				for j, v := range row {
					if got := set.Column(j).At(i); got != v {
						t.Fatalf("result %d: set %q cell (%d,%d) is %v, in process %v", k, set.Name, i, j, got, v)
					}
				}
			}
		}
	}
}

// TestClientBoxesAOneSetResult: over a Client, a one-set result is the
// classic cursor and still carries Rows, equal to its view, for the two
// shapes readers rely on — a one-column INT set (the writer-rows check of
// the benchmark's crash test counts these rows) and a one-column TEXT set,
// whose rows are windows on the view's values.
func TestClientBoxesAOneSetResult(t *testing.T) {
	d := db.New()
	if _, err := d.ExecScript(`
CREATE TABLE x (id INT PRIMARY KEY, name TEXT);
INSERT INTO x VALUES (1, 'ann'), (2, 'bob'), (3, 'cy'), (4, 'dee'), (5, NULL);`); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		sql     string
		n       int
		windows bool
	}{
		{"SELECT x.id FROM x AS x WHERE x.id >= 2", 4, false},
		{"SELECT x.name FROM x AS x", 5, true},
	} {
		res, err := c.Exec(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Sets) != 1 {
			t.Fatalf("%s: %d sets, want 1", tc.sql, len(res.Sets))
		}
		set := res.First()
		if len(set.Rows) != tc.n || set.NumRows() != tc.n {
			t.Fatalf("%s: %d rows boxed, view has %d, want %d", tc.sql, len(set.Rows), set.NumRows(), tc.n)
		}
		vals, exact := set.Vec.Frame.Col(0).(*colstore.AnyColumn)
		if exact != tc.windows {
			t.Fatalf("%s: decoded column is %T; the shape is not exercised", tc.sql, set.Vec.Frame.Col(0))
		}
		for i, row := range set.Rows {
			if len(row) != 1 || row[0] != set.Column(0).At(i) {
				t.Fatalf("%s: row %d is %v, its view holds %v", tc.sql, i, row, set.Column(0).At(i))
			}
			if exact && &row[0] != &vals.Vals[i] {
				t.Fatalf("%s: row %d is a copy, not a window on the column", tc.sql, i)
			}
		}
	}
}
