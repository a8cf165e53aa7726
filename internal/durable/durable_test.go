package durable

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/snapshot"
	"resultdb/internal/wal"
	"resultdb/internal/workload/hierarchy"
)

// openMem opens a manager over fs with no bootstrap allowed.
func openMem(t *testing.T, fs wal.FS, opts Options) (*Manager, *db.Database) {
	t.Helper()
	opts.FS = fs
	m, d, err := Open(opts, noBootstrap(t))
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func TestFreshOpenBootstrapCheckpointReplay(t *testing.T) {
	fs := wal.NewMemFS()
	booted := false
	m, d, err := Open(Options{FS: fs}, func(d *db.Database) error {
		booted = true
		_, err := d.ExecScript(`
			CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT);
			INSERT INTO t VALUES (1, 'boot');
		`)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !booted {
		t.Fatal("bootstrap not invoked on fresh directory")
	}
	// Birth checkpoint at LSN 0 exists before any commit.
	names, _ := fs.List()
	if want := ckptName(0); names[0] != want {
		t.Fatalf("files = %v, want %s first", names, want)
	}
	if _, err := d.Exec("INSERT INTO t VALUES (2, 'logged')"); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Wal.Records != 1 || st.CheckpointLSN != 0 {
		t.Fatalf("stats = %+v", st)
	}
	m.Close()

	// Reopen: bootstrap must NOT run; state = checkpoint + one replayed
	// record.
	m2, d2 := openMem(t, fs, Options{})
	defer m2.Close()
	if st := m2.Stats(); st.Replayed != 1 || st.RecoveredLSN != 1 {
		t.Fatalf("reopen stats = %+v", st)
	}
	res, err := d2.QuerySQL("SELECT t.tag FROM t AS t")
	if err != nil {
		t.Fatal(err)
	}
	if res.First().NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res.First().NumRows())
	}
}

func TestCheckpointPrunesAndShortensRecovery(t *testing.T) {
	fs := wal.NewMemFS()
	m, d, err := Open(Options{FS: fs, SegmentBytes: 64}, func(d *db.Database) error {
		_, err := d.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if _, err := d.Exec(insertN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.CheckpointLSN != 6 || st.Wal.Pruned == 0 {
		t.Fatalf("stats after checkpoint = %+v", st)
	}
	// Old checkpoint files are gone; exactly one remains.
	names, _ := fs.List()
	ckpts := 0
	for _, n := range names {
		if strings.HasPrefix(n, ckptPrefix) {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Fatalf("checkpoint files = %v", names)
	}
	m.Close()
	m2, d2 := openMem(t, fs, Options{SegmentBytes: 64})
	defer m2.Close()
	// The live segment is never pruned, so its already-covered records are
	// validated and skipped — but nothing is re-applied.
	if st := m2.Stats(); st.Replayed != 0 || st.RecoveredLSN != 6 {
		t.Fatalf("reopen stats = %+v", st)
	}
	res, err := d2.QuerySQL("SELECT t.id FROM t AS t")
	if err != nil {
		t.Fatal(err)
	}
	if res.First().NumRows() != 6 {
		t.Fatalf("rows = %d", res.First().NumRows())
	}
}

func insertN(i int) string {
	return "INSERT INTO t VALUES (" + string(rune('0'+i)) + ")"
}

func TestAutoCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	m, d, err := Open(Options{FS: fs, CheckpointEvery: 2}, func(d *db.Database) error {
		_, err := d.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := d.Exec(insertN(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	// Birth checkpoint plus one per two commits.
	if st.Checkpoints != 3 || st.CheckpointLSN != 4 {
		t.Fatalf("stats = %+v, want 3 checkpoints covering lsn 4", st)
	}
	m.Close()
	m2, _ := openMem(t, fs, Options{})
	defer m2.Close()
	if st := m2.Stats(); st.Replayed != 0 {
		t.Fatalf("reopen replayed %d records despite auto checkpoints", st.Replayed)
	}
}

func TestCorruptCheckpointTyped(t *testing.T) {
	fs := wal.NewMemFS()
	m, _, err := Open(Options{FS: fs}, func(d *db.Database) error {
		_, err := d.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	name := ckptName(0)
	data, _ := fs.ReadFile(name)
	data[len(data)/2] ^= 0x20
	fs.WriteFile(name, data)
	_, _, err = Open(Options{FS: fs}, nil)
	if !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("err = %v, want snapshot.ErrChecksum", err)
	}
}

func TestSegmentsWithoutCheckpointTyped(t *testing.T) {
	fs := wal.NewMemFS()
	m, d, err := Open(Options{FS: fs}, func(d *db.Database) error {
		_, err := d.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	fs.Remove(ckptName(0))
	if _, _, err := Open(Options{FS: fs}, nil); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestStrayTmpRemoved(t *testing.T) {
	fs := wal.NewMemFS()
	m, _, err := Open(Options{FS: fs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	fs.WriteFile(ckptTmp, []byte("half-written checkpoint"))
	m2, _ := openMem(t, fs, Options{})
	m2.Close()
	names, _ := fs.List()
	for _, n := range names {
		if n == ckptTmp {
			t.Fatalf("stray tmp survived reopen: %v", names)
		}
	}
}

func TestDurableStatsTrace(t *testing.T) {
	fs := wal.NewMemFS()
	m, d, err := Open(Options{FS: fs}, func(d *db.Database) error {
		_, err := d.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := d.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	tr := m.Stats().Trace()
	if tr.Mode != "wal-stats" {
		t.Fatalf("mode = %q", tr.Mode)
	}
	want := map[string]bool{
		"wal_records": false, "wal_fsyncs": false, "recovery_replayed": false,
		"checkpoints": false, "checkpoint_lsn": false,
	}
	for _, sp := range tr.Spans {
		if _, ok := want[sp.Label]; ok {
			want[sp.Label] = true
		}
	}
	for label, seen := range want {
		if !seen {
			t.Errorf("span %s missing", label)
		}
	}
}

// TestDirFSEndToEnd runs the full lifecycle against a real directory.
func TestDirFSEndToEnd(t *testing.T) {
	dir := t.TempDir()
	m, d, err := Open(Options{Dir: dir}, func(d *db.Database) error {
		_, err := d.ExecScript(`
			CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT);
			INSERT INTO t VALUES (1, 'boot');
		`)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("INSERT INTO t VALUES (2, 'two')"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m, d, err = Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res, err := d.QuerySQL("SELECT t.tag FROM t AS t")
	if err != nil {
		t.Fatal(err)
	}
	if res.First().NumRows() != 2 {
		t.Fatalf("rows = %d", res.First().NumRows())
	}
}

// TestRecoveryColdCache: semantic-cache entries from the pre-crash process
// must not survive recovery. The recovered database is a fresh instance, so
// its cache starts empty and cold — the first post-recovery execution is a
// miss that recomputes from recovered tables.
func TestRecoveryColdCache(t *testing.T) {
	img := buildImage(t, func(d *db.Database) error {
		_, err := d.ExecScript(`
			CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT);
			INSERT INTO t VALUES (1, 'a'), (2, 'b');
		`)
		return err
	})
	q := "SELECT t.tag FROM t AS t WHERE t.id = 1"

	m, d := openMem(t, img, Options{})
	d.EnableCache(64 << 20)
	if _, err := d.QuerySQL(q); err != nil {
		t.Fatal(err)
	}
	if _, err := d.QuerySQL(q); err != nil {
		t.Fatal(err)
	}
	if st := d.CacheStats(); st.Hits == 0 {
		t.Fatalf("pre-crash cache never hit: %+v", st)
	}
	m.Close() // "crash": the process state (and its cache) is gone

	_, rd := openMem(t, img, Options{})
	rd.EnableCache(64 << 20)
	st := rd.CacheStats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("recovered cache not cold: %+v", st)
	}
	res, err := rd.QuerySQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if rd.CacheStats().Misses != 1 {
		t.Fatalf("first post-recovery execution not a miss: %+v", rd.CacheStats())
	}
	if res.First().NumRows() != 1 || res.First().Rows[0][0].Text() != "a" {
		t.Fatalf("post-recovery rows = %+v", res.First().Rows)
	}
}

// TestRecoveryRebuildsColumnarFrames: a table is its frame, and a frame's
// vectors and dictionaries are built by the inserts that filled it — in a
// recovered process those are the checkpoint's rows in order followed by the
// replayed statements, not the original inserts. The pre-crash process scans
// the tables and then commits more rows (versions extending the scanned
// frames); the recovered database, whose frames were built afresh, must
// answer byte-for-byte like a database that never crashed and received the
// same statements.
func TestRecoveryRebuildsColumnarFrames(t *testing.T) {
	bootstrap := func(d *db.Database) error {
		return hierarchy.Load(d, hierarchy.DefaultConfig())
	}
	img := buildImage(t, bootstrap)
	m, d := openMem(t, img, Options{})
	suite := hierarchySuite()
	if _, err := d.QuerySQL(suite[1].sql); err != nil {
		t.Fatal(err)
	}
	dml := crashDML(t, d, suite)[:3]
	for _, sql := range dml {
		if _, err := d.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()

	mr, recovered := openMem(t, img, Options{})
	defer mr.Close()
	uncrashed := db.New()
	if err := bootstrap(uncrashed); err != nil {
		t.Fatal(err)
	}
	for _, sql := range dml {
		if _, err := uncrashed.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range suite {
		got := encodeSuite(t, recovered, []suiteQuery{q})
		want := encodeSuite(t, uncrashed, []suiteQuery{q})
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: post-recovery answer differs from the uncrashed database", q.name)
		}
	}
}
