// MVCC gate, storage half: a table is a frame whose vectors and dictionaries
// are shared, append-only, between a version and its successors. The tests
// here hold that to what a client can observe — bytes on the wire and bytes
// allocated — through the SQL surface.
package db_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"resultdb/internal/db"
)

// TestMVCCFailedInsertLeavesNoTrace: a multi-row INSERT whose first row brings
// a string the table has never seen and whose second row violates NOT NULL
// fails as a whole. The draft it appended to is dropped, but the dictionary's
// backing array and the writer's string index are shared with the published
// version — so the statements that follow must answer, v2 byte for v2 byte
// (dictionary codes included), like a database that never saw the failure.
func TestMVCCFailedInsertLeavesNoTrace(t *testing.T) {
	setup := []string{
		"CREATE TABLE doc (id INTEGER PRIMARY KEY, tag TEXT NOT NULL, note TEXT)",
		"INSERT INTO doc VALUES (1, 'red', 'first'), (2, 'blue', NULL), (3, 'red', 'third')",
	}
	failing := "INSERT INTO doc VALUES (4, 'ghost', 'phantom'), (5, NULL, 'never')"
	after := []string{
		"INSERT INTO doc VALUES (4, 'green', 'fourth')",
		"INSERT INTO doc VALUES (5, 'ghost', NULL), (6, 'blue', 'phantom')",
	}
	reads := []string{
		"SELECT d.id, d.tag, d.note FROM doc AS d",
		"SELECT d.tag FROM doc AS d WHERE d.tag LIKE 'g%'",
		"SELECT RESULTDB d.tag, e.note FROM doc AS d, doc AS e WHERE d.tag = e.tag AND d.id < e.id",
		"SELECT DISTINCT d.tag FROM doc AS d",
	}
	build := func(withFailure bool) *db.Database {
		d := db.Open(db.DefaultConfig())
		for _, sql := range setup {
			if _, err := d.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		if withFailure {
			if _, err := d.Exec(failing); err == nil || !strings.Contains(err.Error(), "NOT NULL") {
				t.Fatalf("failing INSERT: err = %v, want a NOT NULL violation", err)
			}
		}
		return d
	}
	clean, scarred := build(false), build(true)
	compare := func(stage string) {
		t.Helper()
		for _, q := range reads {
			want, err := clean.QuerySQL(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := scarred.QuerySQL(q)
			if err != nil {
				t.Fatal(err)
			}
			if mvccEncode(got) != mvccEncode(want) {
				t.Fatalf("%s: %s\nanswers differ from a database that never saw the failed INSERT:\n got %v\nwant %v",
					stage, q, got.First().Rows, want.First().Rows)
			}
		}
	}
	compare("right after the failure")
	for i, sql := range after {
		for _, d := range []*db.Database{clean, scarred} {
			if _, err := d.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		compare(fmt.Sprintf("after %d later inserts", i+1))
	}
	// The table's own dictionary, not only what the encoder makes of it.
	for _, d := range []*db.Database{clean, scarred} {
		tab, err := d.Table("doc")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tab.Columns().DictEntries(), 4+4; got != want {
			t.Fatalf("doc's dictionaries hold %d entries, want %d (red blue green ghost + four notes)", got, want)
		}
	}
}

// commitAndScanBytes measures what one commit of 8 rows into a table of n
// rows, followed by a scan of that table, allocates — the mean over iters
// rounds, vector growth (amortised like any slice) included.
func commitAndScanBytes(t *testing.T, n, iters int) uint64 {
	t.Helper()
	d := db.Open(db.DefaultConfig())
	if _, err := d.Exec("CREATE TABLE big (id INTEGER PRIMARY KEY, grp INTEGER, tag TEXT)"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for id := 0; id < n; {
		b.Reset()
		b.WriteString("INSERT INTO big VALUES ")
		for k := 0; k < 1000 && id < n; k, id = k+1, id+1 {
			if k > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, 't%d')", id, id%97, id%1000)
		}
		if _, err := d.Exec(b.String()); err != nil {
			t.Fatal(err)
		}
	}
	round := func(i int) {
		b.Reset()
		b.WriteString("INSERT INTO big VALUES ")
		for k := 0; k < 8; k++ {
			if k > 0 {
				b.WriteString(", ")
			}
			id := n + 8*i + k
			fmt.Fprintf(&b, "(%d, %d, 't%d')", id, id%97, id%1000)
		}
		if _, err := d.Exec(b.String()); err != nil {
			t.Fatal(err)
		}
		res, err := d.QuerySQL("SELECT b.id, b.tag FROM big AS b LIMIT 3")
		if err != nil {
			t.Fatal(err)
		}
		if res.First().NumRows() != 3 {
			t.Fatalf("scan returned %d rows, want 3", res.First().NumRows())
		}
	}
	round(0) // warm whatever is built once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= iters; i++ {
		round(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(iters)
}

// TestMVCCCommitCostsItsOwnRows is the O(tail) guard: the first scan behind a
// commit must not pay for the table. Committing 8 rows to a 100 000-row table
// and scanning it allocates a bounded number of bytes — well under one image
// of the table (3 columns x 100 000 rows is over 2 MB of vectors alone, which
// is what a version that re-imaged its parent would allocate every round) —
// and no more than the same round on a table a tenth the size, give or take
// the amortised growth of the vectors.
func TestMVCCCommitCostsItsOwnRows(t *testing.T) {
	const bound = 256 << 10
	small := commitAndScanBytes(t, 10_000, 40)
	large := commitAndScanBytes(t, 100_000, 40)
	t.Logf("commit 8 rows + scan: %d B/round at 10k rows, %d B/round at 100k rows", small, large)
	if large > bound {
		t.Fatalf("a commit of 8 rows to a 100 000-row table and a scan allocate %d bytes, want <= %d: the commit pays for the table", large, bound)
	}
	if large > small+bound/2 {
		t.Fatalf("allocation grows with the table: %d B/round at 10k rows, %d at 100k", small, large)
	}
}
