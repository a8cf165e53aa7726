package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"resultdb/internal/cache"
	"resultdb/internal/db"
	"resultdb/internal/engine"
	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

// This file is the correctness gate of the semantic result cache: for every
// workload query it executes the statement
//
//	(1) cold      — first execution on the cached database (a miss),
//	(2) warm      — second execution (must be a cache hit), and
//	(3) appended  — after each of two INSERTs into a table the statement
//	                reads: a dangling one (fresh values in every column), which
//	                an eligible subdatabase must survive by extension and any
//	                other statement by invalidation, and a joining one (a row
//	                that takes part in the result, copied under a fresh value
//	                in a column nothing joins or filters on), which must be
//	                recomputed,
//
// and requires each to be byte-identical, after wire encoding, to an uncached
// oracle database that received exactly the same statements. The wire
// encoding covers set names, column lists, row data, and the shipped
// post-join plan, so any divergence — stale rows, wrong dedup, a mixed-up
// entry, a surviving pre-DML result, an extension that missed a join — shows
// up as a byte diff.
//
// The second half of the file repeats the exercise on the socket, where a
// cached result's v2 payloads are kept from the first response on
// (db.PayloadMemo): the filling response, the response served from the kept
// bytes, a cache-off server's response and the in-process v2 encoding of the
// oracle's result must be the same bytes — an extended or recomputed entry's
// kept bytes included.

// literalFor produces a deterministic, distinctive literal for a column.
func literalFor(kind types.Kind, seq int) string {
	switch kind {
	case types.KindInt:
		return fmt.Sprintf("%d", 900000000+seq)
	case types.KindFloat:
		return fmt.Sprintf("%d.5", 900000000+seq)
	case types.KindBool:
		return "TRUE"
	default:
		return fmt.Sprintf("'cache_diff_%d'", seq)
	}
}

var insertSeq int

// invalidatingInsert builds an INSERT statement for the first base table the
// query references, with fresh synthetic values for every column.
func invalidatingInsert(t *testing.T, d *db.Database, sel *sqlparse.Select) string {
	t.Helper()
	tables := sqlparse.Tables(sel)
	if len(tables) == 0 {
		t.Fatal("query references no tables")
	}
	def, err := d.Catalog().Lookup(tables[0])
	if err != nil {
		t.Fatalf("lookup %s: %v", tables[0], err)
	}
	insertSeq++
	vals := make([]string, len(def.Columns))
	for i, c := range def.Columns {
		vals[i] = literalFor(c.Type, insertSeq)
	}
	return fmt.Sprintf("INSERT INTO %s VALUES (%s)", def.Name, strings.Join(vals, ", "))
}

// execBytes executes sql and returns the wire encoding of the result.
func execBytes(t *testing.T, d *db.Database, sql string) []byte {
	t.Helper()
	res, err := d.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return EncodeResult(res)
}

// appendCase is one commit after which a cached statement is read again: an
// INSERT, and whether the cache must serve the statement by extending its
// entry (the appended rows take part in no join) rather than discarding it.
type appendCase struct {
	what    string
	insert  string
	extends bool
}

// appendsFor returns the two commits every differential statement goes
// through: invalidatingInsert's dangling row, and — where the statement has a
// participating row to copy — joiningInsert's.
func appendsFor(t *testing.T, oracle *db.Database, sel *sqlparse.Select) []appendCase {
	t.Helper()
	cases := []appendCase{{"dangling append", invalidatingInsert(t, oracle, sel), danglingExtends(t, oracle, sel)}}
	if ins, ok := joiningInsert(t, oracle, sel); ok {
		cases = append(cases, appendCase{"joining append", ins, false})
	}
	return cases
}

// plainSPJ analyzes sel as the single-table SPJ query it is built on; nil
// when it is not one.
func plainSPJ(d *db.Database, sel *sqlparse.Select) (*sqlparse.Select, *engine.SPJSpec) {
	plain := *sel
	plain.ResultDB, plain.Preserving = false, false
	spec, err := engine.AnalyzeSPJ(&plain, d.Snapshot())
	if err != nil {
		return nil, nil
	}
	return &plain, spec
}

// danglingExtends is this gate's own statement of when invalidatingInsert's
// row must be served by extension: sel is a subdatabase the semi-join
// reduction computed without folding (the strategy reports its Stats), the
// table the row goes to is read in FROM and by no IN-subquery, and every
// alias over it is joined with a relation over another table — one that
// holds none of the row's fresh values, so the row has no partner there.
func danglingExtends(t *testing.T, oracle *db.Database, sel *sqlparse.Select) bool {
	t.Helper()
	table := sqlparse.Tables(sel)[0]
	if !sel.ResultDB {
		return false
	}
	res, err := oracle.Query(sel)
	if err != nil {
		t.Fatal(err)
	}
	_, spec := plainSPJ(oracle, sel)
	if spec == nil || res.Stats == nil || res.Stats.Folds > 0 {
		return false
	}
	inSub := false
	sqlparse.WalkExpr(sel.Where, func(x sqlparse.Expr) {
		if sub, ok := x.(*sqlparse.InSubquery); ok {
			for _, name := range sqlparse.Tables(sub.Query) {
				inSub = inSub || strings.EqualFold(name, table)
			}
		}
	})
	if inSub {
		return false
	}
	for _, r := range spec.Rels {
		if !strings.EqualFold(r.Table, table) {
			continue
		}
		foreign := false
		for _, jp := range spec.JoinPreds {
			for _, side := range [][2]string{{jp.LeftRel, jp.RightRel}, {jp.RightRel, jp.LeftRel}} {
				if nb, ok := spec.RelByAlias(side[1]); ok && strings.EqualFold(side[0], r.Alias) && !strings.EqualFold(nb.Table, table) {
					foreign = true
				}
			}
		}
		if !foreign {
			return false
		}
	}
	return true
}

// joiningInsert builds an INSERT that must change what the cache may serve:
// a row that takes part in sel's join at some alias, copied with a fresh
// value in one column that no join predicate and no filter of that alias
// reads (the primary key when it qualifies). The copy passes the alias's
// filters and has the original's partners. ok is false when sel is not an
// SPJ query or has no such row and column.
func joiningInsert(t *testing.T, d *db.Database, sel *sqlparse.Select) (string, bool) {
	t.Helper()
	plain, spec := plainSPJ(d, sel)
	if spec == nil {
		return "", false
	}
	for _, r := range spec.Rels {
		def, err := d.Catalog().Lookup(r.Table)
		if err != nil {
			t.Fatal(err)
		}
		read := map[string]bool{}
		for _, c := range spec.JoinAttrsOf(r.Alias) {
			read[strings.ToLower(c)] = true
		}
		for _, f := range spec.Filters[r.Alias] {
			for _, c := range sqlparse.ColumnRefs(f) {
				read[strings.ToLower(c.Column)] = true
			}
		}
		free := -1
		for i, c := range def.Columns {
			if !read[strings.ToLower(c.Name)] && (free < 0 || len(def.PrimaryKey) > 0 && strings.EqualFold(c.Name, def.PrimaryKey[0])) {
				free = i
			}
		}
		if free < 0 {
			continue
		}
		probe := *plain
		probe.Items = []sqlparse.SelectItem{{Star: true, Table: r.Alias}}
		probe.Distinct, probe.OrderBy, probe.Limit = false, nil, nil
		res, err := d.Query(&probe)
		if err != nil {
			t.Fatalf("participating rows of %s: %v", r.Alias, err)
		}
		if res.First().NumRows() == 0 {
			continue
		}
		insertSeq++
		vals := make([]string, len(def.Columns))
		for i, v := range res.First().Rows[0] {
			vals[i] = (&sqlparse.Literal{Value: v}).SQL()
		}
		vals[free] = literalFor(def.Columns[free].Type, insertSeq)
		return fmt.Sprintf("INSERT INTO %s VALUES (%s)", def.Name, strings.Join(vals, ", ")), true
	}
	return "", false
}

// checkColdWarmInvalidate runs the differential for one query: cold, warm,
// then every append of appendsFor.
func checkColdWarmInvalidate(t *testing.T, cached, oracle *db.Database, name, sql string) {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	checkColdWarm(t, cached, oracle, name, sql)
	checkAppends(t, cached, oracle, name, sql, appendsFor(t, oracle, sel))
}

// checkColdWarm fills the cache with sql and hits it, both byte-identical
// to the oracle.
func checkColdWarm(t *testing.T, cached, oracle *db.Database, name, sql string) {
	t.Helper()
	st0 := cached.CacheStats()
	cold := execBytes(t, cached, sql)
	want := execBytes(t, oracle, sql)
	if !bytes.Equal(cold, want) {
		t.Fatalf("%s: cold cached execution differs from uncached oracle", name)
	}

	warm := execBytes(t, cached, sql)
	if !bytes.Equal(warm, want) {
		t.Fatalf("%s: warm (cache-hit) execution differs from uncached oracle", name)
	}
	st1 := cached.CacheStats()
	if st1.Hits != st0.Hits+1 {
		t.Fatalf("%s: warm execution was not a cache hit (%+v -> %+v)", name, st0, st1)
	}
}

// checkAppends applies each case's INSERT to both databases and reads sql
// again: the bytes must equal the oracle's, and the cache must have extended
// its entry or discarded and recomputed it, as the case says.
func checkAppends(t *testing.T, cached, oracle *db.Database, name, sql string, cases []appendCase) {
	t.Helper()
	for _, a := range cases {
		for _, d := range []*db.Database{cached, oracle} {
			if _, err := d.Exec(a.insert); err != nil {
				t.Fatalf("%s: %q: %v", name, a.insert, err)
			}
		}
		st0 := cached.CacheStats()
		got := execBytes(t, cached, sql)
		if !bytes.Equal(got, execBytes(t, oracle, sql)) {
			t.Fatalf("%s: after the %s, execution differs from uncached oracle (stale cache?)", name, a.what)
		}
		if st := cached.CacheStats(); !appendOutcome(st0, st, a.extends, 1) {
			t.Fatalf("%s: after the %s, want extended=%v, got %+v -> %+v", name, a.what, a.extends, st0, st)
		}
	}
}

// appendOutcome reports whether the counters moved from st0 to st as reads
// lookups of one statement after one commit must move them: the first either
// extends the entry (a hit) or invalidates it and recomputes (a miss), and
// the rest hit.
func appendOutcome(st0, st cache.Stats, extends bool, reads int) bool {
	if extends {
		return st.Extended == st0.Extended+1 && st.Invalidations == st0.Invalidations &&
			st.Misses == st0.Misses && st.Hits == st0.Hits+uint64(reads)
	}
	return st.Extended == st0.Extended && st.Invalidations == st0.Invalidations+1 &&
		st.Misses == st0.Misses+1 && st.Hits == st0.Hits+uint64(reads)-1
}

// cachedAndOracle loads the same workload into a cached db and an uncached
// oracle.
func cachedAndOracle(t *testing.T, load func(d *db.Database) error) (*db.Database, *db.Database) {
	t.Helper()
	cached, oracle := db.New(), db.New()
	if err := load(cached); err != nil {
		t.Fatal(err)
	}
	if err := load(oracle); err != nil {
		t.Fatal(err)
	}
	cached.EnableCache(256 << 20)
	if oracle.CacheEnabled() {
		t.Fatal("oracle must stay uncached")
	}
	return cached, oracle
}

func TestCacheDifferentialJOB(t *testing.T) {
	cached, oracle := cachedAndOracle(t, func(d *db.Database) error {
		return job.Load(d, job.Config{Scale: 0.05, Seed: 42})
	})
	for _, q := range job.Queries() {
		sql := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
		checkColdWarmInvalidate(t, cached, oracle, q.Name+"/rdb", sql)
	}
	// The ten Table-1 instances additionally run relationship-preserving
	// (post-join plan included in the encoding) and classic single-table.
	for _, name := range job.Table1Queries {
		q, err := job.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		trimmed := strings.TrimSpace(q.SQL)
		rp := "SELECT RESULTDB PRESERVING" + strings.TrimPrefix(trimmed, "SELECT")
		checkColdWarmInvalidate(t, cached, oracle, name+"/rdbrp", rp)
		checkColdWarmInvalidate(t, cached, oracle, name+"/st", trimmed)
	}
}

func TestCacheDifferentialStar(t *testing.T) {
	cfg := star.Config{Dims: 3, DimRows: 12, PayloadLen: 16, Seed: 7}
	cached, oracle := cachedAndOracle(t, func(d *db.Database) error {
		return star.Load(d, cfg)
	})
	for _, sel := range []float64{0.2, 0.6, 1.0} {
		st := star.Query(cfg, sel)
		rdb := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(star.PayloadQuery(cfg, sel)), "SELECT")
		checkColdWarmInvalidate(t, cached, oracle, fmt.Sprintf("star-%.1f/st", sel), st)
		checkColdWarmInvalidate(t, cached, oracle, fmt.Sprintf("star-%.1f/rdb", sel), rdb)
	}
}

func TestCacheDifferentialHierarchy(t *testing.T) {
	cached, oracle := cachedAndOracle(t, func(d *db.Database) error {
		return hierarchy.Load(d, hierarchy.DefaultConfig())
	})
	checkColdWarmInvalidate(t, cached, oracle, "hier/outer", strings.TrimSpace(hierarchy.OuterJoinQuery))
	checkColdWarmInvalidate(t, cached, oracle, "hier/rdb-electronics", strings.TrimSpace(hierarchy.ResultDBElectronics))
	checkColdWarmInvalidate(t, cached, oracle, "hier/rdb-clothing", strings.TrimSpace(hierarchy.ResultDBClothing))
}

// selfJoinLoad is a reporting chain for the self-join statement: emp e
// reports to emp b. Employee 6 reports to a boss (50) who is not there yet.
func selfJoinLoad(d *db.Database) error {
	_, err := d.ExecScript(`
CREATE TABLE emp (id INT PRIMARY KEY, boss INT, dept TEXT);
INSERT INTO emp VALUES (1, 0, 'ops'), (2, 1, 'ops'), (3, 1, 'dev'), (4, 2, 'ops'), (5, 3, 'dev'), (6, 50, 'dev');`)
	return err
}

// selfJoinSQL reads emp twice, e and b, over the edge e.boss = b.id: every
// appended row is a tail of both sides of it. %s is the RESULTDB flavour.
const selfJoinSQL = "SELECT RESULTDB%s e.id, b.id, b.dept FROM emp AS e, emp AS b WHERE e.boss = b.id AND b.dept = 'ops'"

// selfJoinAppends are the self-join's commits, in order, each appending to
// both sides of the edge at once.
var selfJoinAppends = []appendCase{
	// 10 reports to nobody there, and nobody reports to it; 11 is not in
	// 'ops', so it cannot be a b either.
	{"dangling rows on both sides", "INSERT INTO emp VALUES (10, 77, 'ops'), (11, 78, 'dev')", true},
	// 20 reports to 21, an 'ops' boss arriving in the same commit: the new
	// pair joins tail to tail, and neither row joins an old one.
	{"rows joining each other", "INSERT INTO emp VALUES (20, 21, 'dev'), (21, 99, 'ops')", false},
	// 50 is the boss employee 6 has been waiting for: a tail row on the b
	// side with an old partner on the e side.
	{"boss of an old row", "INSERT INTO emp VALUES (50, 0, 'ops')", false},
	// Another dangling commit, now over the recomputed entry.
	{"dangling row again", "INSERT INTO emp VALUES (60, 61, 'dev')", true},
}

// TestCacheDifferentialSelfJoin: a statement reading one table under two
// aliases, RDB and RDBRP, through commits that append to both sides of its
// edge at once — extended when no appended row joins, recomputed when one
// joins another appended row or an old one, byte-identical to the oracle
// either way.
func TestCacheDifferentialSelfJoin(t *testing.T) {
	for _, mode := range []string{"", " PRESERVING"} {
		cached, oracle := cachedAndOracle(t, selfJoinLoad)
		sql := fmt.Sprintf(selfJoinSQL, mode)
		checkColdWarm(t, cached, oracle, "selfjoin"+mode, sql)
		checkAppends(t, cached, oracle, "selfjoin"+mode, sql, selfJoinAppends)
	}
}

// --- On the socket: hit bytes == miss bytes == cache-off bytes ---------------

// rawClient speaks the protocol frame by frame and hands back a response's
// payload bytes exactly as they crossed the socket (chunk payloads
// concatenated), undecoded.
type rawClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialRaw(t testing.TB, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{conn: conn, r: bufio.NewReader(conn)}
}

// exec returns errors instead of failing the test so that goroutines other
// than the test's own may call it.
func (c *rawClient) exec(sql string) ([]byte, error) {
	c.conn.SetDeadline(time.Now().Add(60 * time.Second))
	if err := writeFrame(c.conn, frameQuery, []byte(sql)); err != nil {
		return nil, err
	}
	var body []byte
	for {
		typ, payload, err := readFrame(c.r)
		if err != nil {
			return nil, err
		}
		switch typ {
		case frameChunk:
			body = append(body, payload...)
		case frameEnd:
			return body, nil
		case frameErr:
			return nil, errors.New(string(payload))
		default:
			return nil, fmt.Errorf("unexpected frame type %d", typ)
		}
	}
}

func (c *rawClient) mustExec(t *testing.T, what, sql string) []byte {
	t.Helper()
	b, err := c.exec(sql)
	if err != nil {
		t.Fatalf("%s: %v\nsql: %s", what, err, sql)
	}
	return b
}

// socketFleet is a cache-on and a cache-off server over the same data at one
// parallelism degree, with one raw connection to each.
type socketFleet struct {
	par                int
	cached, oracle     *db.Database
	toCached, toOracle *rawClient
}

func newSocketFleet(t *testing.T, par int, load func(d *db.Database) error) *socketFleet {
	t.Helper()
	f := &socketFleet{
		par:    par,
		cached: db.Open(db.Config{Parallelism: par}),
		oracle: db.Open(db.Config{Parallelism: par}),
	}
	for _, d := range []*db.Database{f.cached, f.oracle} {
		if err := load(d); err != nil {
			t.Fatal(err)
		}
	}
	f.cached.EnableCache(256 << 20)
	for _, side := range []struct {
		d    *db.Database
		conn **rawClient
	}{{f.cached, &f.toCached}, {f.oracle, &f.toOracle}} {
		srv := NewServer(side.d)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		*side.conn = dialRaw(t, addr)
	}
	return f
}

// want returns the cache-off server's response to sql, having checked that
// it is the in-process v2 encoding of the oracle's result.
func (f *socketFleet) want(t *testing.T, what, sql string) []byte {
	t.Helper()
	got := f.toOracle.mustExec(t, what, sql)
	res, err := f.oracle.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got, EncodeResultV2(res)) {
		t.Fatalf("%s: the cache-off server's response differs from the in-process v2 encoding", what)
	}
	return got
}

// check runs one statement: from a cleared cache the filling response, the
// response served from the kept payload and the cache-off response must be
// the same bytes. Then, after each commit of appendsFor (applied to both
// servers), the statement is read twice — the first read extends or
// recomputes the entry, the second hits it — and both still match the
// cache-off server.
func (f *socketFleet) check(t *testing.T, name, sql string) {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	f.checkColdWarm(t, name, sql)
	f.checkAppends(t, name, sql, appendsFor(t, f.oracle, sel))
}

// checkColdWarm is the first half of check: fill, kept payload and cache-off
// bytes alike.
func (f *socketFleet) checkColdWarm(t *testing.T, name, sql string) {
	t.Helper()
	what := fmt.Sprintf("%s [par%d]", name, f.par)
	f.cached.ClearCache()
	st0 := f.cached.CacheStats()
	first := f.toCached.mustExec(t, what, sql)
	second := f.toCached.mustExec(t, what, sql)
	want := f.want(t, what, sql)
	if st := f.cached.CacheStats(); st.Misses != st0.Misses+1 || st.Hits != st0.Hits+1 {
		t.Fatalf("%s: want one miss then one hit, got %+v -> %+v", what, st0, st)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("%s: filling response differs from the cache-off server's", what)
	}
	if !bytes.Equal(second, want) {
		t.Fatalf("%s: response served from the kept payload differs from the cache-off server's", what)
	}
}

// checkAppends is checkAppends on the socket: two reads after each commit.
func (f *socketFleet) checkAppends(t *testing.T, name, sql string, cases []appendCase) {
	t.Helper()
	const reads = 2
	for _, a := range cases {
		for _, d := range []*db.Database{f.cached, f.oracle} {
			if _, err := d.Exec(a.insert); err != nil {
				t.Fatalf("%s: %q: %v", name, a.insert, err)
			}
		}
		what := fmt.Sprintf("%s after the %s [par%d]", name, a.what, f.par)
		want := f.want(t, what, sql)
		st0 := f.cached.CacheStats()
		for read := 0; read < reads; read++ {
			if got := f.toCached.mustExec(t, what, sql); !bytes.Equal(got, want) {
				t.Fatalf("%s, read %d: response differs from the cache-off server's (stale payload?)", what, read)
			}
		}
		if st := f.cached.CacheStats(); !appendOutcome(st0, st, a.extends, reads) {
			t.Fatalf("%s: want extended=%v over %d reads, got %+v -> %+v", what, a.extends, reads, st0, st)
		}
	}
}

func TestCacheDifferentialSocketJOB(t *testing.T) {
	for _, par := range []int{1, 4} {
		f := newSocketFleet(t, par, func(d *db.Database) error {
			return job.Load(d, job.Config{Scale: 0.05, Seed: 42})
		})
		for _, q := range job.Queries() {
			sql := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
			f.check(t, q.Name+"/rdb", sql)
		}
		for _, name := range job.Table1Queries {
			q, err := job.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rp := "SELECT RESULTDB PRESERVING" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
			f.check(t, name+"/rdbrp", rp)
		}
	}
}

func TestCacheDifferentialSocketStar(t *testing.T) {
	cfg := star.Config{Dims: 3, DimRows: 12, PayloadLen: 16, Seed: 7}
	for _, par := range []int{1, 4} {
		f := newSocketFleet(t, par, func(d *db.Database) error { return star.Load(d, cfg) })
		for _, sel := range []float64{0.2, 0.6, 1.0} {
			rdb := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(star.PayloadQuery(cfg, sel)), "SELECT")
			rp := "SELECT RESULTDB PRESERVING" + strings.TrimPrefix(strings.TrimSpace(star.Query(cfg, sel)), "SELECT")
			f.check(t, fmt.Sprintf("star-%.1f/st", sel), star.Query(cfg, sel))
			f.check(t, fmt.Sprintf("star-%.1f/rdb", sel), rdb)
			f.check(t, fmt.Sprintf("star-%.1f/rdbrp", sel), rp)
		}
	}
}

func TestCacheDifferentialSocketHierarchy(t *testing.T) {
	for _, par := range []int{1, 4} {
		f := newSocketFleet(t, par, func(d *db.Database) error {
			return hierarchy.Load(d, hierarchy.DefaultConfig())
		})
		f.check(t, "hier/outer", strings.TrimSpace(hierarchy.OuterJoinQuery))
		f.check(t, "hier/rdb-electronics", strings.TrimSpace(hierarchy.ResultDBElectronics))
		f.check(t, "hier/rdb-clothing", strings.TrimSpace(hierarchy.ResultDBClothing))
	}
}

func TestCacheDifferentialSocketSelfJoin(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, mode := range []string{"", " PRESERVING"} {
			f := newSocketFleet(t, par, selfJoinLoad)
			sql := fmt.Sprintf(selfJoinSQL, mode)
			f.checkColdWarm(t, "selfjoin"+mode, sql)
			f.checkAppends(t, "selfjoin"+mode, sql, selfJoinAppends)
		}
	}
}

// bothVersions encodes res in v1 and v2.
func bothVersions(res *db.Result) [2][]byte {
	return [2][]byte{EncodeResult(res), EncodeResultV2(res)}
}

// TestCacheDifferentialWriteAndPinnedSession: a write that changes a cached
// statement's answer makes the kept payloads unreachable — the next response
// carries the new rows — while a session pinned before the write keeps
// getting its snapshot's bytes.
func TestCacheDifferentialWriteAndPinnedSession(t *testing.T) {
	cached, oracle := chaosDBPar(t, 1), chaosDBPar(t, 1)
	cached.EnableCache(64 << 20)
	exec := func(s *db.Session) [2][]byte {
		t.Helper()
		res, err := s.Exec(chaosQuery)
		if err != nil {
			t.Fatal(err)
		}
		return bothVersions(res)
	}
	pinned, live, ref := cached.NewSession(), cached.NewSession(), oracle.NewSession()
	pinned.Pin()

	before := exec(ref)
	if got := exec(pinned); got[0] == nil || !bytes.Equal(got[0], before[0]) || !bytes.Equal(got[1], before[1]) {
		t.Fatal("filling execution differs from the uncached oracle")
	}
	if got := exec(live); !bytes.Equal(got[0], before[0]) || !bytes.Equal(got[1], before[1]) {
		t.Fatal("hit served from the kept payloads differs from the uncached oracle")
	}

	// Customer 1 gains an order the statement selects.
	const ins = "INSERT INTO ord VALUES (999999, 1, 4242.5)"
	for _, s := range []*db.Session{live, ref} {
		if _, err := s.Exec(ins); err != nil {
			t.Fatal(err)
		}
	}
	after := exec(ref)
	if bytes.Equal(after[0], before[0]) || bytes.Equal(after[1], before[1]) {
		t.Fatal("test is vacuous: the INSERT did not change the answer")
	}
	for round := 0; round < 2; round++ { // recompute, then hit
		if got := exec(live); !bytes.Equal(got[0], after[0]) || !bytes.Equal(got[1], after[1]) {
			t.Fatalf("round %d after the INSERT: response does not carry the new rows", round)
		}
		if got := exec(pinned); !bytes.Equal(got[0], before[0]) || !bytes.Equal(got[1], before[1]) {
			t.Fatalf("round %d after the INSERT: pinned session lost its snapshot's bytes", round)
		}
	}
}

// TestCacheDifferentialConcurrentFirstEncode releases 16 connections together
// onto one cold statement: the fill is single-flight, the first encode of the
// shared result is not, and every connection must still receive the
// cache-off bytes. Then 16 goroutines race the first v2 encode of a freshly
// cached result directly: identical bytes, and exactly one copy charged to
// the entry. Run under -race (verify.sh does).
func TestCacheDifferentialConcurrentFirstEncode(t *testing.T) {
	served, oracle := chaosDBPar(t, 2), chaosDBPar(t, 1)
	served.EnableCache(64 << 20)
	srv := NewServer(served)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref, err := oracle.Exec(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeResultV2(ref)

	const n = 16
	conns := make([]*rawClient, n)
	for i := range conns {
		conns[i] = dialRaw(t, addr)
	}
	got := make([][]byte, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = conns[i].exec(chaosQuery)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("connection %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("connection %d: response differs from the cache-off bytes", i)
		}
	}
	if st := served.CacheStats(); st.Misses != 1 || st.Hits+st.Collapsed != n-1 {
		t.Fatalf("want one execution shared by %d connections, got %+v", n, st)
	}

	// In process, on a fresh entry: the fill, then a hit with nothing kept.
	served.ClearCache()
	if _, err := served.Exec(chaosQuery); err != nil {
		t.Fatal(err)
	}
	res, err := served.Exec(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	resident := served.CacheStats().Bytes
	encoded := make([][]byte, n)
	start = make(chan struct{})
	for i := range encoded {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			encoded[i] = EncodeResultV2(res)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range encoded {
		if !bytes.Equal(encoded[i], want) {
			t.Fatalf("racing encoder %d produced different v2 bytes", i)
		}
	}
	var hdr Encoder
	hdr.encodeHeader(FormatV2, len(res.Sets), res.PostJoinPlan != nil)
	if grew := served.CacheStats().Bytes - resident; grew != int64(len(want)-hdr.Len()) {
		t.Fatalf("racing first encoders charged the entry %d bytes, want exactly one copy (%d)",
			grew, len(want)-hdr.Len())
	}
}
