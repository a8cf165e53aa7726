package db_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/rewrite"
	"resultdb/internal/sqlparse"
	"resultdb/internal/wire"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/ssb"
	"resultdb/internal/workload/star"
)

// The statement memo shares one parsed SELECT among every execution of its
// text, in every session at once. These tests hold it to that: no execution
// writes a memoised AST, the memo carries no version, it stays within its
// bound, and it does not define the result cache's key.

// immutabilityCase is one database and the statements the guard runs on it,
// in order; stmts may depend on the loaded database (the rewrites read its
// keys).
type immutabilityCase struct {
	name  string
	load  func(*db.Database) error
	stmts func(t *testing.T, d *db.Database) []string
}

// jobForms renders every JOB template as plain SELECT, RESULTDB and RESULTDB
// PRESERVING.
func jobForms() []string {
	var out []string
	for _, q := range job.Queries() {
		st := strings.TrimSpace(q.SQL)
		body := strings.TrimPrefix(st, "SELECT")
		out = append(out, st, "SELECT RESULTDB"+body, "SELECT RESULTDB PRESERVING"+body)
	}
	return out
}

// rewriteStatements renders the RM 1–4 plans of a few JOB templates in both
// modes: materialized-view setups, per-relation SELECTs and teardowns.
func rewriteStatements(t *testing.T, d *db.Database, names ...string) []string {
	var out []string
	for _, name := range names {
		q, err := job.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := sqlparse.ParseSelect(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range rewrite.Methods {
			for _, mode := range []rewrite.Mode{rewrite.ModeRDB, rewrite.ModeRDBRP} {
				p, err := rewrite.Rewrite(sel, d, m, mode)
				if err != nil {
					t.Fatalf("%s %v: %v", name, m, err)
				}
				out = append(out, p.Statements()...)
			}
		}
	}
	return out
}

// TestMemoASTImmutable parses every statement once, executes it through
// every entry point that takes text — Database.Exec, and Session.ExecUnboxed
// from another goroutine at the same time — with the cache on and off at
// parallelism 1 and 4, and then requires the AST to equal a fresh parse of
// the same text. A SELECT's AST is the memo's, shared by both executions (and
// checked to still be the memoised one after them); any other statement's is
// executed through ExecStatement.
func TestMemoASTImmutable(t *testing.T) {
	starCfg := star.Config{Dims: 3, DimRows: 12, PayloadLen: 16, Seed: 7}
	cases := []immutabilityCase{
		{"job", func(d *db.Database) error { return job.Load(d, job.Config{Scale: 0.05, Seed: 42}) },
			func(t *testing.T, d *db.Database) []string {
				return append(jobForms(), rewriteStatements(t, d, "3c", "9c", "16b")...)
			}},
		{"star", func(d *db.Database) error { return star.Load(d, starCfg) },
			func(*testing.T, *db.Database) []string {
				var out []string
				for _, s := range []float64{0.2, 1.0} {
					body := strings.TrimPrefix(strings.TrimSpace(star.PayloadQuery(starCfg, s)), "SELECT")
					out = append(out, star.Query(starCfg, s), "SELECT RESULTDB"+body, "SELECT RESULTDB PRESERVING"+body)
				}
				return out
			}},
		{"hierarchy", func(d *db.Database) error { return hierarchy.Load(d, hierarchy.DefaultConfig()) },
			func(*testing.T, *db.Database) []string {
				return []string{hierarchy.OuterJoinQuery, hierarchy.ResultDBElectronics, hierarchy.ResultDBClothing}
			}},
		{"ssb", func(d *db.Database) error { return ssb.Load(d, ssb.Config{Scale: 0.05, Seed: 77}) },
			func(*testing.T, *db.Database) []string {
				out := []string{
					`SELECT lo.lo_id, s.s_id, s.s_nation FROM lineorder AS lo
						LEFT OUTER JOIN supplier AS s ON lo.lo_suppkey = s.s_id
							AND s.s_nation IN (SELECT c.c_nation FROM customer AS c WHERE c.c_region = 'ASIA')
						WHERE lo.lo_quantity < 20`,
					`SELECT lo.lo_id, lo.lo_revenue, s.s_name, s.s_region FROM lineorder AS lo
						LEFT OUTER JOIN supplier AS s ON lo.lo_suppkey = s.s_id AND s.s_region = 'ASIA'`,
					`SELECT s.s_nation, COUNT(*) AS n, AVG(lo.lo_revenue), MAX(lo.lo_discount) - MIN(lo.lo_discount)
						FROM lineorder AS lo JOIN supplier AS s ON lo.lo_suppkey = s.s_id
						GROUP BY s.s_nation HAVING COUNT(*) > 10 ORDER BY s.s_nation LIMIT 7`,
					`SELECT lo.lo_quantity / 10, COUNT(lo.lo_id) FROM lineorder AS lo
						GROUP BY lo.lo_quantity / 10 HAVING lo.lo_quantity / 10 IN (0, 2, 4)`,
					`SELECT RESULTDB lo.lo_id, s.s_name FROM lineorder AS lo, supplier AS s
						WHERE lo.lo_suppkey = s.s_id
							AND s.s_nation IN (SELECT c.c_nation FROM customer AS c WHERE c.c_region = 'ASIA')`,
					`SELECT lo.lo_id FROM lineorder AS lo
						WHERE lo.lo_suppkey NOT IN (SELECT s.s_id FROM supplier AS s WHERE s.s_region = 'ASIA')
						ORDER BY lo.lo_id LIMIT 20`,
				}
				for _, q := range ssb.AggregateQueries() {
					out = append(out, q.SQL)
				}
				return out
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := db.Open(db.Config{Parallelism: 1})
			if err := c.load(d); err != nil {
				t.Fatal(err)
			}
			stmts := c.stmts(t, d)
			kept := make(map[string]sqlparse.Statement, len(stmts))
			for _, cache := range []bool{false, true} {
				for _, par := range []int{1, 4} {
					if cache {
						d.EnableCache(0)
					} else {
						d.DisableCache()
					}
					d.CoreOptions.Parallelism = par
					sess := d.NewSession()
					label := fmt.Sprintf("cache=%v/par=%d", cache, par)
					for _, sql := range stmts {
						runOnce(t, d, sess, kept, label, sql)
					}
				}
			}
			for sql, st := range kept {
				fresh, err := sqlparse.Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(st, fresh) {
					t.Errorf("executing the statement changed its AST:\n%s\nnow renders\n%s", sql, st.SQL())
				}
			}
		})
	}
}

// runOnce executes sql through its kept AST, parsing it into kept first.
func runOnce(t *testing.T, d *db.Database, sess *db.Session, kept map[string]sqlparse.Statement, label, sql string) {
	t.Helper()
	st, seen := kept[sql]
	if !seen {
		sel, isSelect, err := db.MemoisedSelect(d, sql)
		if err != nil {
			t.Fatalf("%s: %v\n%s", label, err, sql)
		}
		if isSelect {
			st = sel
		} else if st, err = sqlparse.Parse(sql); err != nil {
			t.Fatal(err)
		}
		kept[sql] = st
	}
	sel, isSelect := st.(*sqlparse.Select)
	if !isSelect {
		if _, err := d.ExecStatement(st); err != nil {
			t.Fatalf("%s: %v\n%s", label, err, sql)
		}
		return
	}
	var wg sync.WaitGroup
	var unboxedErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, unboxedErr = sess.ExecUnboxed(sql)
	}()
	_, err := d.Exec(sql)
	wg.Wait()
	if err != nil || unboxedErr != nil {
		t.Fatalf("%s: Exec: %v, ExecUnboxed: %v\n%s", label, err, unboxedErr, sql)
	}
	if again, _, _ := db.MemoisedSelect(d, sql); again != sel {
		t.Fatalf("%s: the memo no longer holds the AST the executions shared\n%s", label, sql)
	}
}

// memoTestScript is a two-table database for the memo's version and key
// tests; memoTestSQL joins the two.
const (
	memoTestScript = `
CREATE TABLE m (id INTEGER PRIMARY KEY, title TEXT);
CREATE TABLE r (id INTEGER PRIMARY KEY, mid INTEGER, who TEXT);
INSERT INTO m VALUES (1, 'Heat'), (2, 'Ronin'), (3, 'Blow Out');
INSERT INTO r VALUES (10, 1, 'De Niro'), (11, 2, 'De Niro'), (12, 1, 'Pacino');
`
	memoTestSQL    = "SELECT RESULTDB m.title, r.who FROM m AS m, r AS r WHERE m.id = r.mid"
	memoTestCommit = "INSERT INTO r VALUES (13, 3, 'Travolta')" // joins: the result changes
)

func memoTestDB(t *testing.T, cache bool) *db.Database {
	t.Helper()
	d := db.Open(db.Config{Parallelism: 1, CacheEnabled: cache})
	if _, err := d.ExecScript(memoTestScript); err != nil {
		t.Fatal(err)
	}
	return d
}

// memoTestOracle is the v2 encoding of memoTestSQL on a fresh cache-off
// database, before the commit or after it.
func memoTestOracle(t *testing.T, committed bool) string {
	t.Helper()
	d := memoTestDB(t, false)
	if committed {
		if _, err := d.Exec(memoTestCommit); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.Exec(memoTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	return string(wire.EncodeResultV2(res))
}

// TestMemoCarriesNoVersion pins two sessions on either side of a commit and
// runs the same raw text in both at once: each must get exactly its own
// snapshot's bytes, with the cache off and on, though both execute the one
// memoised AST.
func TestMemoCarriesNoVersion(t *testing.T) {
	want := map[bool]string{false: memoTestOracle(t, false), true: memoTestOracle(t, true)}
	if want[false] == want[true] {
		t.Fatal("the commit does not change the result; the test cannot tell the snapshots apart")
	}
	for _, cache := range []bool{false, true} {
		d := memoTestDB(t, cache)
		before, after := d.NewSession(), d.NewSession()
		before.Pin()
		if _, err := d.Exec(memoTestCommit); err != nil {
			t.Fatal(err)
		}
		after.Pin()
		shared, _, err := db.MemoisedSelect(d, memoTestSQL)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for committed, s := range map[bool]*db.Session{false: before, true: after} {
			wg.Add(1)
			go func(committed bool, s *db.Session) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					exec := s.Exec
					if i%2 == 1 {
						exec = s.ExecUnboxed
					}
					res, err := exec(memoTestSQL)
					if err != nil {
						t.Error(err)
						return
					}
					if got := string(wire.EncodeResultV2(res)); got != want[committed] {
						t.Errorf("cache=%v: the session pinned %s the commit got another snapshot's bytes",
							cache, map[bool]string{false: "before", true: "after"}[committed])
						return
					}
				}
			}(committed, s)
		}
		wg.Wait()
		if again, _, _ := db.MemoisedSelect(d, memoTestSQL); again != shared {
			t.Fatalf("cache=%v: the sessions did not share one memoised statement", cache)
		}
	}
}

// TestMemoBounded feeds ten times a generation's bound of distinct SELECT
// texts: the memo's key text never passes two generations, a statement run
// throughout stays memoised, and non-SELECTs, parse errors and texts longer
// than a generation are never memoised.
func TestMemoBounded(t *testing.T) {
	d := memoTestDB(t, false)
	hot := "SELECT m.title FROM m AS m WHERE m.id = 1"
	if _, err := d.Exec(hot); err != nil {
		t.Fatal(err)
	}
	hotSel, _, _ := db.MemoisedSelect(d, hot)
	pad := strings.Repeat(" ", 1000)
	for i, fed := 0, 0; fed < 10*db.MemoGenBytes; i++ {
		sql := fmt.Sprintf("SELECT m.title FROM m AS m WHERE m.id = %d%s", i, pad)
		if _, err := d.Exec(sql); err != nil {
			t.Fatal(err)
		}
		fed += len(sql)
		if n := db.MemoTextBytes(d); n > 2*db.MemoGenBytes {
			t.Fatalf("after %d bytes of distinct texts the memo holds %d bytes of text, bound %d", fed, n, 2*db.MemoGenBytes)
		}
		if i%50 == 0 {
			if _, err := d.Exec(hot); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sel, _, _ := db.MemoisedSelect(d, hot); sel != hotSel {
		t.Fatal("a statement run throughout was evicted from the memo")
	}
	held := db.MemoTextBytes(d)
	huge := "SELECT m.title FROM m AS m" + strings.Repeat(" ", db.MemoGenBytes)
	for i := 0; i < 50; i++ {
		if _, err := d.Exec(fmt.Sprintf("INSERT INTO m VALUES (%d, 't%d')", 100+i, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Exec("SELEC m.title FROM m AS m"); err == nil {
			t.Fatal("a malformed statement parsed")
		}
		if _, err := d.Exec("EXPLAIN " + hot); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Exec(huge); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.MemoTextBytes(d); got != held {
		t.Fatalf("non-SELECTs, parse errors and an oversized text changed the memo: %d bytes of text, was %d", got, held)
	}
}

// TestMemoVariantsShareCacheEntry runs whitespace and case variants of a
// cached statement: each is a memo entry of its own, and each is served by
// the one result-cache entry, because sqlparse.Canonical, not the raw text,
// keys the cache.
func TestMemoVariantsShareCacheEntry(t *testing.T) {
	d := memoTestDB(t, true)
	base, err := d.Exec(memoTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	want := string(wire.EncodeResultV2(base))
	baseSel, _, _ := db.MemoisedSelect(d, memoTestSQL)
	seen := map[*sqlparse.Select]bool{baseSel: true}
	sess := d.NewSession()
	for _, variant := range []string{
		"SELECT  RESULTDB m.title,\n\tr.who FROM m AS m, r AS r WHERE m.id = r.mid",
		"select resultdb M.Title, R.Who from M as M, R as R where M.ID = R.MID",
	} {
		sel, _, err := db.MemoisedSelect(d, variant)
		if err != nil {
			t.Fatal(err)
		}
		if seen[sel] {
			t.Fatalf("variant %q shares a memo entry with another text", variant)
		}
		seen[sel] = true
		if sqlparse.Canonical(sel) != sqlparse.Canonical(baseSel) {
			t.Fatalf("variant %q has another canonical form", variant)
		}
		for _, exec := range []func(string) (*db.Result, error){
			d.Exec,
			sess.ExecUnboxed,
		} {
			st := d.CacheStats()
			res, err := exec(variant)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.CacheStats(); got.Hits != st.Hits+1 || got.Misses != st.Misses || got.Entries != 1 {
				t.Fatalf("variant %q: hits %d → %d, misses %d → %d, %d entries; want one more hit on the one entry",
					variant, st.Hits, got.Hits, st.Misses, got.Misses, got.Entries)
			}
			if string(wire.EncodeResultV2(res)) != want {
				t.Fatalf("variant %q served other bytes", variant)
			}
		}
	}
}
