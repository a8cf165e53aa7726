// MVCC stress gate: N reader sessions race M writer sessions under -race and
// every read must be byte-identical — at the wire-encoding level — to some
// committed prefix of the writes, mirroring the per-prefix oracle machinery of
// internal/durable/crash_test.go. A torn batch, a half-published state, or a
// stale cache fill would produce bytes matching no prefix and fail the gate.
//
// The test lives in package db_test so it can wire-encode results through
// internal/wire (which imports db) exactly as a networked client would
// receive them.
package db_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/wire"
)

const (
	mvccWriters      = 2  // M >= 2, each owning a private table (total order per table)
	mvccReaders      = 6  // N >= 6 concurrent reader sessions
	mvccBatches      = 40 // committed batches per writer
	mvccRowsPerBatch = 25
	mvccSeed         = 7483
)

// mvccTable is writer w's private table name.
func mvccTable(w int) string { return fmt.Sprintf("w%d", w) }

func mvccCreateSQL(w int) string {
	return fmt.Sprintf("CREATE TABLE %s (id INTEGER PRIMARY KEY, val INTEGER)", mvccTable(w))
}

func mvccReadSQL(w int) string {
	tbl := mvccTable(w)
	return fmt.Sprintf("SELECT %s.id, %s.val FROM %s AS %s", tbl, tbl, tbl, tbl)
}

// mvccStatements pre-renders every writer's batch statements from one seeded
// generator, so the live run and the oracle runs execute identical SQL.
func mvccStatements() [][]string {
	rng := rand.New(rand.NewSource(mvccSeed))
	stmts := make([][]string, mvccWriters)
	for w := range stmts {
		stmts[w] = make([]string, mvccBatches)
		id := 0
		for k := range stmts[w] {
			var b strings.Builder
			fmt.Fprintf(&b, "INSERT INTO %s VALUES ", mvccTable(w))
			for r := 0; r < mvccRowsPerBatch; r++ {
				if r > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "(%d, %d)", id, rng.Intn(1_000_000))
				id++
			}
			stmts[w][k] = b.String()
		}
	}
	return stmts
}

// mvccEncode renders a result exactly as the wire server ships it (v2
// columnar payload) — the byte-exactness the gate asserts on.
func mvccEncode(res *db.Result) string {
	return string(wire.EncodeResultV2(res))
}

// mvccOracle replays one writer's batches serially on a private database and
// returns the wire encoding of every committed prefix 0..B, keyed by bytes.
// Values are the prefix index, so readers can also assert monotonicity.
func mvccOracle(t *testing.T, w int, stmts []string) map[string]int {
	t.Helper()
	od := db.Open(db.DefaultConfig())
	od.CoreOptions.Parallelism = 1
	if _, err := od.Exec(mvccCreateSQL(w)); err != nil {
		t.Fatal(err)
	}
	allowed := make(map[string]int, len(stmts)+1)
	record := func(prefix int) {
		res, err := od.Exec(mvccReadSQL(w))
		if err != nil {
			t.Fatalf("oracle prefix %d: %v", prefix, err)
		}
		allowed[mvccEncode(res)] = prefix
	}
	record(0)
	for k, sql := range stmts {
		if _, err := od.Exec(sql); err != nil {
			t.Fatalf("oracle batch %d: %v", k, err)
		}
		record(k + 1)
	}
	if len(allowed) != len(stmts)+1 {
		t.Fatalf("oracle prefixes not byte-distinct: %d encodings for %d prefixes", len(allowed), len(stmts)+1)
	}
	return allowed
}

// TestMVCCStressPrefixConsistency is the concurrency gate from verify.sh:
// every concurrent read observes exactly some committed prefix, prefixes
// observed by one reader never move backwards, and the final state is the
// full write history — with the result cache enabled, so the snapshot-keyed
// cache path (DoAt/PutAt) is raced too.
func TestMVCCStressPrefixConsistency(t *testing.T) {
	stmts := mvccStatements()
	allowed := make([]map[string]int, mvccWriters)
	for w := 0; w < mvccWriters; w++ {
		allowed[w] = mvccOracle(t, w, stmts[w])
	}

	cfg := db.DefaultConfig()
	cfg.CacheEnabled = true
	d := db.Open(cfg)
	d.CoreOptions.Parallelism = 1
	for w := 0; w < mvccWriters; w++ {
		if _, err := d.Exec(mvccCreateSQL(w)); err != nil {
			t.Fatal(err)
		}
	}

	var (
		done     atomic.Bool
		failures atomic.Int64
		reads    atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < mvccWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := d.NewSession()
			for k, sql := range stmts[w] {
				if _, err := sess.Exec(sql); err != nil {
					t.Errorf("writer %d batch %d: %v", w, k, err)
					failures.Add(1)
					return
				}
			}
		}(w)
	}

	var readerWG sync.WaitGroup
	for r := 0; r < mvccReaders; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			sess := d.NewSession()
			last := make([]int, mvccWriters) // highest prefix seen per table
			for i := 0; !done.Load() && failures.Load() == 0; i++ {
				w := (r + i) % mvccWriters
				res, err := sess.Exec(mvccReadSQL(w))
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					failures.Add(1)
					return
				}
				prefix, ok := allowed[w][mvccEncode(res)]
				if !ok {
					t.Errorf("reader %d: read of %s matches no committed prefix (%d rows)",
						r, mvccTable(w), res.First().NumRows())
					failures.Add(1)
					return
				}
				if prefix < last[w] {
					t.Errorf("reader %d: %s went backwards: prefix %d after %d",
						r, mvccTable(w), prefix, last[w])
					failures.Add(1)
					return
				}
				last[w] = prefix
				reads.Add(1)
			}
		}(r)
	}

	wg.Wait()
	done.Store(true)
	readerWG.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}
	if got := reads.Load(); got < mvccReaders {
		t.Fatalf("readers made only %d reads", got)
	}

	// Quiesced: the newest state must be the complete history of every writer.
	sess := d.NewSession()
	for w := 0; w < mvccWriters; w++ {
		res, err := sess.Exec(mvccReadSQL(w))
		if err != nil {
			t.Fatal(err)
		}
		if prefix := allowed[w][mvccEncode(res)]; prefix != mvccBatches {
			t.Fatalf("final state of %s is prefix %d, want %d", mvccTable(w), prefix, mvccBatches)
		}
	}
	t.Logf("%d consistent reads raced %d writers x %d batches", reads.Load(), mvccWriters, mvccBatches)
}

// TestMVCCPinnedSnapshotFrozenBytes: a pinned session's reads stay
// byte-identical across another session's commits — the repeatable-read half
// of the Session contract, asserted at the wire level.
func TestMVCCPinnedSnapshotFrozenBytes(t *testing.T) {
	stmts := mvccStatements()
	d := db.Open(db.DefaultConfig())
	d.CoreOptions.Parallelism = 1
	if _, err := d.Exec(mvccCreateSQL(0)); err != nil {
		t.Fatal(err)
	}
	writer := d.NewSession()
	if _, err := writer.Exec(stmts[0][0]); err != nil {
		t.Fatal(err)
	}

	reader := d.NewSession()
	reader.Pin()
	res, err := reader.Exec(mvccReadSQL(0))
	if err != nil {
		t.Fatal(err)
	}
	before := mvccEncode(res)

	for _, sql := range stmts[0][1:4] {
		if _, err := writer.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	res, err = reader.Exec(mvccReadSQL(0))
	if err != nil {
		t.Fatal(err)
	}
	if mvccEncode(res) != before {
		t.Fatal("pinned session observed another session's commits")
	}

	reader.Unpin()
	res, err = reader.Exec(mvccReadSQL(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.First().NumRows() != 4*mvccRowsPerBatch {
		t.Fatalf("unpinned session sees %d rows, want %d", res.First().NumRows(), 4*mvccRowsPerBatch)
	}
}

// extendSchema is the extension tests' pair of tables; extendSQL joins them.
// The writer's dangling rows point at a parent that does not exist; every
// fifth batch's rows point at parent 1 and carry values no earlier row has.
const (
	extendSchema = `
CREATE TABLE par (id INTEGER PRIMARY KEY, grp INTEGER);
CREATE TABLE child (id INTEGER PRIMARY KEY, par_id INTEGER, v INTEGER);
INSERT INTO par VALUES (1, 10), (2, 20), (3, 30);
INSERT INTO child VALUES (1, 1, 100), (2, 2, 200), (3, 3, 300);`
	extendSQL     = "SELECT RESULTDB p.grp, c.v FROM par AS p, child AS c WHERE p.id = c.par_id"
	extendBatches = 40
)

func extendBatch(k int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO child VALUES ")
	for r := 0; r < 4; r++ {
		if r > 0 {
			b.WriteString(", ")
		}
		id, par := 1000+k*4+r, 1_000_000+k
		if k%5 == 4 {
			par = 1
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", id, par, id)
	}
	return b.String()
}

func extendDB(t *testing.T, cache bool) *db.Database {
	t.Helper()
	cfg := db.DefaultConfig()
	cfg.CacheEnabled = cache
	cfg.Parallelism = 1
	d := db.Open(cfg)
	if _, err := d.ExecScript(extendSchema); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMVCCPinnedSessionWhileOthersExtend: a session pinned before a run of
// commits keeps reading its own snapshot's bytes while unpinned readers have
// the cache extend the statement's entry over the dangling commits and
// recompute it over the joining one — and those readers match an uncached
// oracle at every step.
func TestMVCCPinnedSessionWhileOthersExtend(t *testing.T) {
	d, oracle := extendDB(t, true), extendDB(t, false)
	pinned, live := d.NewSession(), d.NewSession()
	pinned.Pin()
	read := func(s *db.Session) string {
		t.Helper()
		res, err := s.Exec(extendSQL)
		if err != nil {
			t.Fatal(err)
		}
		return mvccEncode(res)
	}
	own := read(pinned)
	for k := 0; k < 5; k++ {
		for _, x := range []*db.Database{d, oracle} {
			if _, err := x.Exec(extendBatch(k)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := oracle.Exec(extendSQL)
		if err != nil {
			t.Fatal(err)
		}
		if read(live) != mvccEncode(want) {
			t.Fatalf("batch %d: unpinned reader differs from the uncached oracle", k)
		}
		if read(pinned) != own {
			t.Fatalf("batch %d: the pinned session lost its snapshot's bytes", k)
		}
	}
	st := d.CacheStats()
	if st.Extended != 4 {
		t.Fatalf("four dangling batches extended %d times: %+v", st.Extended, st)
	}
	if own == read(live) {
		t.Fatal("test is vacuous: the joining batch did not change the answer")
	}
}

// TestMVCCStressExtension is the race gate of the extension path: readers
// extend one statement's entry while a writer commits, mostly dangling rows,
// every fifth batch joining ones — each commit after at least one more read,
// so the entry is there to extend. Every read must match the uncached answer
// of some committed prefix, and never an older one than the reader saw last.
func TestMVCCStressExtension(t *testing.T) {
	oracle := extendDB(t, false)
	epoch := map[string]int{} // answer bytes -> the first prefix with them
	record := func(prefix int) {
		res, err := oracle.Exec(extendSQL)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := epoch[mvccEncode(res)]; !ok {
			epoch[mvccEncode(res)] = prefix
		}
	}
	record(0)
	for k := 0; k < extendBatches; k++ {
		if _, err := oracle.Exec(extendBatch(k)); err != nil {
			t.Fatal(err)
		}
		record(k + 1)
	}

	d := extendDB(t, true)
	var (
		done     atomic.Bool
		failures atomic.Int64
		reads    atomic.Int64
		wg       sync.WaitGroup
	)
	for r := 0; r < mvccReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := d.NewSession()
			last := 0
			for !done.Load() && failures.Load() == 0 {
				res, err := sess.Exec(extendSQL)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					failures.Add(1)
					return
				}
				at, ok := epoch[mvccEncode(res)]
				if !ok || at < last {
					t.Errorf("reader %d: answer matches no committed prefix (%v) or went back from %d to %d", r, ok, last, at)
					failures.Add(1)
					return
				}
				last = at
				reads.Add(1)
			}
		}(r)
	}
	writer := d.NewSession()
	for k := 0; k < extendBatches && failures.Load() == 0; k++ {
		for seen := reads.Load(); reads.Load() == seen && failures.Load() == 0; {
			runtime.Gosched()
		}
		if _, err := writer.Exec(extendBatch(k)); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}
	res, err := writer.Exec(extendSQL)
	if err != nil {
		t.Fatal(err)
	}
	if at := epoch[mvccEncode(res)]; at != extendBatches {
		t.Fatalf("final answer is the one of prefix %d, want the last batch's (%d)", at, extendBatches)
	}
	if st := d.CacheStats(); st.Extended == 0 {
		t.Fatalf("no read extended the entry: %+v", st)
	}
}
