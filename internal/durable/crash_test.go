package durable

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/snapshot"
	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
	"resultdb/internal/wal"
	"resultdb/internal/wire"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

// This file is the crash-recovery differential gate, the durability
// counterpart of wire's chaos gate: seed a workload, run a fixed DML/DDL
// sequence with the filesystem scheduled to die at every interesting byte
// offset of the WAL stream, "reboot" from the surviving bytes, and require
//
//	(1) prefix consistency — recovery lands on some statement prefix R with
//	    acked ≤ R ≤ total: an acknowledged batch is never lost, an
//	    unacknowledged tail may drop, and nothing is ever half-applied;
//	(2) byte-exact state — the recovered database's full snapshot encoding
//	    equals an uncrashed oracle that executed exactly the first R
//	    statements; and
//	(3) byte-exact answers — the recovered database answers the workload
//	    suite (JOB×33 RESULTDB, star, hierarchy) wire-identically to that
//	    oracle.
//
// The fault plan is deterministic (wal.FaultFS kills the n-th written byte),
// so every failure reproduces exactly.

// suiteQuery names one workload query of a differential suite.
type suiteQuery struct {
	name string
	sql  string
}

// encodeSuite answers every suite query and concatenates the wire encodings.
func encodeSuite(t *testing.T, d *db.Database, suite []suiteQuery) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, q := range suite {
		res, err := d.QuerySQL(q.sql)
		if err != nil {
			t.Fatalf("suite %s: %v", q.name, err)
		}
		buf.WriteString(q.name)
		buf.Write(wire.EncodeResult(res))
	}
	return buf.Bytes()
}

// snapBytes is the byte-exact whole-database fingerprint: the snapshot
// encoding covers the catalog (tables, views, keys) and every row in order.
func snapBytes(t *testing.T, d *db.Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.SaveLSN(d, 0, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// crashLiteral produces a deterministic literal for a column kind.
func crashLiteral(kind types.Kind, seq int) string {
	switch kind {
	case types.KindInt:
		return fmt.Sprintf("%d", 910000000+seq)
	case types.KindFloat:
		return fmt.Sprintf("%d.25", 910000000+seq)
	case types.KindBool:
		return "TRUE"
	default:
		return fmt.Sprintf("'crash_gate_%d'", seq)
	}
}

// crashDML builds the seeded statement sequence the gate kills: inserts into
// real workload tables (so suite answers depend on the surviving prefix),
// DDL (CREATE/DROP TABLE and MATERIALIZED VIEW, so catalog changes replay),
// and inserts into the gate's own table.
func crashDML(t *testing.T, d *db.Database, suite []suiteQuery) []string {
	t.Helper()
	sel, err := sqlparse.ParseSelect(suite[0].sql)
	if err != nil {
		t.Fatalf("parse %s: %v", suite[0].name, err)
	}
	tables := sqlparse.Tables(sel)
	if len(tables) > 3 {
		tables = tables[:3]
	}
	seq := 0
	stmts := []string{"CREATE TABLE crash_t (id INTEGER PRIMARY KEY, tag TEXT)"}
	for i, tbl := range tables {
		tab, err := d.Table(tbl)
		if err != nil {
			t.Fatalf("lookup %s: %v", tbl, err)
		}
		def := tab.Def
		row := func() string {
			vals := make([]string, len(def.Columns))
			for c, col := range def.Columns {
				seq++
				vals[c] = crashLiteral(col.Type, seq)
			}
			return strings.Join(vals, ", ")
		}
		stmts = append(stmts, fmt.Sprintf("INSERT INTO %s VALUES (%s), (%s)", def.Name, row(), row()))
		if i == 0 {
			stmts = append(stmts, fmt.Sprintf(
				"CREATE MATERIALIZED VIEW crash_mv AS SELECT x.%s FROM %s AS x",
				def.Columns[0].Name, def.Name))
		}
	}
	stmts = append(stmts,
		"INSERT INTO crash_t VALUES (1, 'alpha'), (2, 'beta')",
		"DROP MATERIALIZED VIEW crash_mv",
		"INSERT INTO crash_t VALUES (3, 'gamma')",
	)
	return stmts
}

// buildImage bootstraps a workload into a fresh in-memory data directory
// (checkpoint at LSN 0, empty WAL) — the disk image every fault run clones.
func buildImage(t *testing.T, bootstrap func(*db.Database) error) *wal.MemFS {
	t.Helper()
	img := wal.NewMemFS()
	mgr, _, err := Open(Options{FS: img, SegmentBytes: 512}, bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return img
}

// noBootstrap fails the test if recovery ever falls back to bootstrapping:
// every fault run must find its state on the (cloned) disk.
func noBootstrap(t *testing.T) func(*db.Database) error {
	return func(*db.Database) error {
		t.Error("bootstrap invoked on a recovered image")
		return fmt.Errorf("bootstrap invoked on a recovered image")
	}
}

// runCrashMatrix is the gate proper. SegmentBytes is tiny (512) so the
// sequence crosses several rotations and fault offsets land inside, between,
// and across segments.
func runCrashMatrix(t *testing.T, bootstrap func(*db.Database) error, suite []suiteQuery) {
	img := buildImage(t, bootstrap)

	// Clean run: learn each statement's record boundary in the WAL stream.
	cleanFS := img.Clone()
	mgr, d, err := Open(Options{FS: cleanFS, SegmentBytes: 512}, noBootstrap(t))
	if err != nil {
		t.Fatal(err)
	}
	stmts := crashDML(t, d, suite)
	boundaries := []int64{0}
	for _, sql := range stmts {
		if _, err := d.Exec(sql); err != nil {
			t.Fatalf("clean run %q: %v", sql, err)
		}
		boundaries = append(boundaries, mgr.Stats().Wal.Bytes)
	}
	mgr.Close()

	// Oracle: one clean database advanced statement by statement, its full
	// snapshot captured after every prefix. Suite encodings are derived
	// lazily per distinct prefix from those snapshots.
	oracle := db.New()
	if err := bootstrap(oracle); err != nil {
		t.Fatal(err)
	}
	oracleSnap := make([][]byte, len(stmts)+1)
	oracleSnap[0] = snapBytes(t, oracle)
	for i, sql := range stmts {
		if _, err := oracle.Exec(sql); err != nil {
			t.Fatalf("oracle %q: %v", sql, err)
		}
		oracleSnap[i+1] = snapBytes(t, oracle)
	}
	oracleSuite := map[uint64][]byte{}
	suiteFor := func(r uint64) []byte {
		if b, ok := oracleSuite[r]; ok {
			return b
		}
		od, _, err := snapshot.LoadLSN(bytes.NewReader(oracleSnap[r]))
		if err != nil {
			t.Fatalf("oracle prefix %d: %v", r, err)
		}
		b := encodeSuite(t, od, suite)
		oracleSuite[r] = b
		return b
	}

	// Interesting byte offsets: each record boundary ±1, each record's
	// midpoint, and the first few bytes of the stream. Offset == total
	// bytes never fires — the uncrashed control point.
	total := boundaries[len(boundaries)-1]
	offSet := map[int64]bool{0: true, 1: true, 7: true, total: true}
	for i := 1; i < len(boundaries); i++ {
		lo, hi := boundaries[i-1], boundaries[i]
		for _, o := range []int64{hi - 1, hi, hi + 1, (lo + hi) / 2} {
			if o >= 0 && o <= total {
				offSet[o] = true
			}
		}
	}
	var offsets []int64
	for o := range offSet {
		offsets = append(offsets, o)
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	t.Logf("%d statements, %d wal bytes, %d fault points", len(stmts), total, len(offsets))

	suiteChecked := map[uint64]bool{}
	for _, off := range offsets {
		inner := img.Clone()
		ffs := wal.NewFaultFS(inner)
		mgr, d, err := Open(Options{FS: ffs, SegmentBytes: 512}, noBootstrap(t))
		if err != nil {
			t.Fatalf("off %d: open: %v", off, err)
		}
		ffs.Arm(off)
		acked := 0
		for _, sql := range stmts {
			if _, err := d.Exec(sql); err != nil {
				if !ffs.Crashed() {
					t.Fatalf("off %d: non-crash error on %q: %v", off, sql, err)
				}
				break
			}
			acked++
		}
		mgr.Close() // error expected after a crash; the disk is `inner`

		// Reboot from the surviving bytes.
		rm, rd, err := Open(Options{FS: inner}, noBootstrap(t))
		if err != nil {
			t.Fatalf("off %d (acked %d): recovery failed: %v", off, acked, err)
		}
		r := rm.RecoveredLSN()
		if r < uint64(acked) || r > uint64(len(stmts)) {
			t.Fatalf("off %d: recovered to lsn %d outside [acked %d, total %d]", off, r, acked, len(stmts))
		}
		if got := snapBytes(t, rd); !bytes.Equal(got, oracleSnap[r]) {
			t.Fatalf("off %d: recovered state differs byte-wise from oracle prefix %d (acked %d)", off, r, acked)
		}
		if !suiteChecked[r] {
			if !bytes.Equal(encodeSuite(t, rd, suite), suiteFor(r)) {
				t.Fatalf("off %d: suite answers differ from oracle at prefix %d", off, r)
			}
			suiteChecked[r] = true
		}
		rm.Close()
	}
	if !suiteChecked[uint64(len(stmts))] {
		t.Error("no fault point exercised the full-prefix (uncrashed) suite")
	}
}

func hierarchySuite() []suiteQuery {
	return []suiteQuery{
		{"hier/outer", strings.TrimSpace(hierarchy.OuterJoinQuery)},
		{"hier/rdb-electronics", strings.TrimSpace(hierarchy.ResultDBElectronics)},
		{"hier/rdb-clothing", strings.TrimSpace(hierarchy.ResultDBClothing)},
	}
}

func starSuite(cfg star.Config) []suiteQuery {
	var out []suiteQuery
	for _, sel := range []float64{0.2, 0.6, 1.0} {
		st := star.Query(cfg, sel)
		rdb := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(star.PayloadQuery(cfg, sel)), "SELECT")
		out = append(out,
			suiteQuery{fmt.Sprintf("star-%.1f/st", sel), st},
			suiteQuery{fmt.Sprintf("star-%.1f/rdb", sel), rdb},
		)
	}
	return out
}

func jobSuite() []suiteQuery {
	var out []suiteQuery
	for _, q := range job.Queries() {
		sql := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
		out = append(out, suiteQuery{q.Name + "/rdb", sql})
	}
	return out
}

func TestCrashRecoveryDifferentialHierarchy(t *testing.T) {
	runCrashMatrix(t, func(d *db.Database) error {
		return hierarchy.Load(d, hierarchy.DefaultConfig())
	}, hierarchySuite())
}

func TestCrashRecoveryDifferentialStar(t *testing.T) {
	cfg := star.Config{Dims: 3, DimRows: 12, PayloadLen: 16, Seed: 7}
	runCrashMatrix(t, func(d *db.Database) error {
		return star.Load(d, cfg)
	}, starSuite(cfg))
}

func TestCrashRecoveryDifferentialJOB(t *testing.T) {
	runCrashMatrix(t, func(d *db.Database) error {
		return job.Load(d, job.Config{Scale: 0.05, Seed: 42})
	}, jobSuite())
}

// countingFS wraps a wal.FS and counts every byte written through it —
// including checkpoint bytes, which wal.Stats does not see — so the
// mid-checkpoint crash matrix can place fault offsets across the whole write
// stream.
type countingFS struct {
	wal.FS
	written int64
}

type countingFile struct {
	wal.File
	fs *countingFS
}

func (c *countingFS) OpenAppend(name string) (wal.File, error) {
	f, err := c.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written += int64(n)
	return n, err
}

// TestCrashDuringCheckpoint kills the filesystem at offsets spanning a
// checkpoint taken mid-sequence: whatever the offset — during the tmp write,
// around the rename, during pruning — recovery must land on a consistent
// prefix, from either the old checkpoint plus WAL or the new one.
func TestCrashDuringCheckpoint(t *testing.T) {
	bootstrap := func(d *db.Database) error {
		return hierarchy.Load(d, hierarchy.Config{Products: 200, Seed: 3})
	}
	suite := hierarchySuite()
	img := buildImage(t, bootstrap)

	runSequence := func(fsys wal.FS) (*Manager, *db.Database, int, error) {
		mgr, d, err := Open(Options{FS: fsys, SegmentBytes: 512}, noBootstrap(t))
		if err != nil {
			t.Fatal(err)
		}
		stmts := crashDML(t, d, suite)
		acked := 0
		for i, sql := range stmts {
			if _, err := d.Exec(sql); err != nil {
				return mgr, d, acked, err
			}
			acked++
			if i == 2 {
				if err := mgr.Checkpoint(); err != nil {
					return mgr, d, acked, err
				}
			}
		}
		return mgr, d, acked, nil
	}

	// Clean run on a counting FS to size the whole write stream.
	counter := &countingFS{FS: img.Clone()}
	mgr, cleanDB, _, err := runSequence(counter)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	nStmts := len(crashDML(t, cleanDB, suite))
	mgr.Close()
	total := counter.written

	// Oracle prefixes (checkpointing is invisible to logical state).
	oracle := db.New()
	if err := bootstrap(oracle); err != nil {
		t.Fatal(err)
	}
	oracleSnap := make([][]byte, nStmts+1)
	oracleSnap[0] = snapBytes(t, oracle)
	for i, sql := range crashDML(t, oracle, suite) {
		if _, err := oracle.Exec(sql); err != nil {
			t.Fatal(err)
		}
		oracleSnap[i+1] = snapBytes(t, oracle)
	}

	step := total/40 + 1
	for off := int64(0); off <= total; off += step {
		inner := img.Clone()
		ffs := wal.NewFaultFS(inner)
		ffs.Arm(off)
		mgr, _, acked, err := runSequence(ffs)
		if err != nil && !ffs.Crashed() {
			t.Fatalf("off %d: non-crash error: %v", off, err)
		}
		mgr.Close()
		rm, rd, err := Open(Options{FS: inner}, noBootstrap(t))
		if err != nil {
			t.Fatalf("off %d: recovery failed: %v", off, err)
		}
		r := rm.RecoveredLSN()
		if r < uint64(acked) || r > uint64(nStmts) {
			t.Fatalf("off %d: recovered lsn %d outside [acked %d, total %d]", off, r, acked, nStmts)
		}
		if !bytes.Equal(snapBytes(t, rd), oracleSnap[r]) {
			t.Fatalf("off %d: recovered state differs from oracle prefix %d", off, r)
		}
		rm.Close()
	}
}

// TestRecoveryLiveness: a recovered database is fully alive — it accepts new
// commits, checkpoints, and survives another reopen with everything intact.
func TestRecoveryLiveness(t *testing.T) {
	img := buildImage(t, func(d *db.Database) error {
		_, err := d.ExecScript(`
			CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT);
			INSERT INTO t VALUES (1, 'boot');
		`)
		return err
	})
	// Session 1: commit, then tear the final record by hand.
	mgr, d, err := Open(Options{FS: img}, noBootstrap(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("INSERT INTO t VALUES (2, 'acked')"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("INSERT INTO t VALUES (3, 'torn')"); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	names, _ := img.List()
	for _, name := range names {
		if strings.HasSuffix(name, ".seg") {
			data, _ := img.ReadFile(name)
			if len(data) > 0 {
				img.Truncate(name, int64(len(data)-3))
			}
		}
	}
	// Session 2: recover (drops the torn record), keep working, checkpoint.
	mgr, d, err = Open(Options{FS: img}, noBootstrap(t))
	if err != nil {
		t.Fatal(err)
	}
	if st := mgr.Stats(); !st.TornTail || st.Replayed != 1 {
		t.Fatalf("stats = %+v, want torn tail with 1 replayed", st)
	}
	if _, err := d.Exec("INSERT INTO t VALUES (3, 'post-recovery')"); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	// Session 3: everything is there; the WAL was pruned by the checkpoint.
	mgr, d, err = Open(Options{FS: img}, noBootstrap(t))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if st := mgr.Stats(); st.Replayed != 0 || st.TornTail {
		t.Fatalf("post-checkpoint reopen stats = %+v", st)
	}
	res, err := d.QuerySQL("SELECT t.tag FROM t AS t WHERE t.id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.First().NumRows() != 1 || res.First().Rows[0][0].Text() != "post-recovery" {
		t.Fatalf("rows = %+v", res.First().Rows)
	}
}
