// Command resultdb is an interactive SQL shell (and one-shot executor) for
// the reproduction's main-memory DBMS, with the paper's SELECT RESULTDB
// extension available out of the box.
//
// Usage:
//
//	resultdb                      # interactive shell on an empty database
//	resultdb -workload job        # preload the JOB-like IMDb workload
//	resultdb -e "SELECT ..."      # execute one statement and exit
//	resultdb -f script.sql        # run a SQL script, then open the shell
//	resultdb -connect :7483       # remote shell against a resultdbd server
//
// Shell meta-commands: \d (list tables), \d NAME (describe), \timing
// (toggle timings), \trace (toggle per-query JSON execution traces),
// \strategy semijoin|decompose, \stats TABLE (show the planner's statistics
// of a table's newest version), \cache [on|off|clear|SIZE] (semantic result
// cache), \wire [v1|v2|off] (show each result's encoded wire size at a
// payload version), \save FILE and \open FILE (binary database snapshots),
// \retry [off|ATTEMPTS [BACKOFF]] (remote retry policy, -connect only),
// \checkpoint and \wal (durability controls, -data-dir only), \q (quit).
//
// With -data-dir DIR the session is durable: every committed statement is
// write-ahead logged under DIR and a later `resultdb -data-dir DIR` recovers
// the exact committed state. -workload/-csv/-f then only seed the directory
// on its first ever start.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"resultdb/internal/csvio"
	"resultdb/internal/db"
	"resultdb/internal/durable"
	"resultdb/internal/snapshot"
	"resultdb/internal/sqlparse"
	"resultdb/internal/wal"
	"resultdb/internal/wire"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

func main() {
	var (
		workload  = flag.String("workload", "", "preload a workload: job | star | hierarchy")
		scale     = flag.Float64("scale", 0.25, "JOB workload scale factor")
		execSQL   = flag.String("e", "", "execute one statement and exit")
		file      = flag.String("f", "", "execute a SQL script file before starting the shell")
		csvDir    = flag.String("csv", "", "load every *.csv in the directory as a table before starting")
		traceExec = flag.Bool("trace", false, "emit a JSON execution trace after every SELECT")
		connect   = flag.String("connect", "", "execute against a resultdbd server at host:port instead of the embedded database (one attempt per statement; \\retry sets reconnect-and-retry)")
		dataDir   = flag.String("data-dir", "", "durable data directory: WAL + checkpoints (empty = in-memory only)")
		fsyncMode = flag.String("fsync", "always", "WAL fsync policy with -data-dir: always | interval | off")
	)
	flag.Parse()

	if *connect != "" {
		if *workload != "" || *csvDir != "" {
			fmt.Fprintln(os.Stderr, "resultdb: -workload and -csv load into the embedded database and cannot be combined with -connect")
			os.Exit(1)
		}
		remote, err := wire.Dial(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resultdb:", err)
			os.Exit(1)
		}
		defer remote.Close()
		s := &shell{remote: remote, out: os.Stdout}
		if *file != "" {
			script, err := os.ReadFile(*file)
			if err != nil {
				fmt.Fprintln(os.Stderr, "resultdb:", err)
				os.Exit(1)
			}
			if err := s.execute(string(script)); err != nil {
				fmt.Fprintln(os.Stderr, "resultdb:", err)
				os.Exit(1)
			}
		}
		if *execSQL != "" {
			if err := s.execute(*execSQL); err != nil {
				fmt.Fprintln(os.Stderr, "resultdb:", err)
				os.Exit(1)
			}
			return
		}
		s.repl(os.Stdin)
		return
	}

	seed := func(d *db.Database) error {
		if err := preload(d, *workload, *scale); err != nil {
			return err
		}
		if *csvDir != "" {
			if err := loadCSVDir(d, *csvDir); err != nil {
				return err
			}
		}
		if *file != "" {
			script, err := os.ReadFile(*file)
			if err != nil {
				return err
			}
			if _, err := d.ExecScript(string(script)); err != nil {
				return err
			}
		}
		return nil
	}

	var d *db.Database
	var mgr *durable.Manager
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resultdb: -fsync:", err)
			os.Exit(1)
		}
		mgr, d, err = durable.Open(durable.Options{Dir: *dataDir, Fsync: policy}, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resultdb:", err)
			os.Exit(1)
		}
		defer func() {
			if err := mgr.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "resultdb: checkpoint:", err)
			}
			if err := mgr.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "resultdb: close:", err)
			}
		}()
	} else {
		d = db.Open(db.DefaultConfig())
		if err := seed(d); err != nil {
			fmt.Fprintln(os.Stderr, "resultdb:", err)
			os.Exit(1)
		}
	}
	s := &shell{sess: d.NewSession(), mgr: mgr, out: os.Stdout, trace: *traceExec}
	if *execSQL != "" {
		if err := s.execute(*execSQL); err != nil {
			fmt.Fprintln(os.Stderr, "resultdb:", err)
			os.Exit(1)
		}
		return
	}
	s.repl(os.Stdin)
}

// loadCSVDir loads every *.csv file in dir as a table named after the file.
func loadCSVDir(d *db.Database, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(e.Name(), ".csv")
		n, err := csvio.Load(d, name, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", e.Name(), err)
		}
		fmt.Fprintf(os.Stderr, "loaded %s (%d rows)\n", name, n)
	}
	return nil
}

func preload(d *db.Database, workload string, scale float64) error {
	switch workload {
	case "":
		return nil
	case "job":
		return job.Load(d, job.Config{Scale: scale, Seed: 42})
	case "star":
		return star.Load(d, star.DefaultConfig())
	case "hierarchy":
		return hierarchy.Load(d, hierarchy.DefaultConfig())
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
}

type shell struct {
	// sess is the shell's database session: every statement sees one
	// consistent snapshot, the shell's own writes are visible immediately,
	// and \strategy toggles a session-local option.
	sess *db.Session
	// mgr, when set, makes the session durable (-data-dir) and enables the
	// \checkpoint and \wal meta commands.
	mgr *durable.Manager
	// remote, when set, routes every statement to a resultdbd server over
	// the wire protocol; db is nil and database-local meta commands are
	// unavailable.
	remote *wire.Client
	out    *os.File
	timing bool
	trace  bool
	// wireVer, when "v1" or "v2", prints each result's encoded payload size
	// at that wire format version (and the compression ratio for "v2").
	wireVer string
}

func (s *shell) repl(in *os.File) {
	fmt.Fprintln(s.out, "resultdb shell — SELECT RESULTDB supported; \\q to quit, \\d to list tables")
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "resultdb> "
	for {
		fmt.Fprint(s.out, prompt)
		if !scanner.Scan() {
			fmt.Fprintln(s.out)
			return
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if s.meta(trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt = "      ...> "
			continue
		}
		stmt := buf.String()
		buf.Reset()
		prompt = "resultdb> "
		if err := s.execute(stmt); err != nil {
			fmt.Fprintln(s.out, "error:", err)
		}
	}
}

// meta handles backslash commands; returns true to quit.
func (s *shell) meta(cmd string) bool {
	fields := strings.Fields(cmd)
	if s.remote != nil {
		switch fields[0] {
		case "\\q", "\\timing", "\\retry":
		default:
			fmt.Fprintln(s.out, "only \\q, \\timing and \\retry are available over -connect; everything else runs in the embedded shell")
			return false
		}
	}
	switch fields[0] {
	case "\\q":
		return true
	case "\\timing":
		s.timing = !s.timing
		fmt.Fprintf(s.out, "timing %v\n", s.timing)
	case "\\retry":
		return s.metaRetry(fields)
	case "\\trace":
		s.trace = !s.trace
		fmt.Fprintf(s.out, "trace %v\n", s.trace)
	case "\\checkpoint":
		if s.mgr == nil {
			fmt.Fprintln(s.out, "\\checkpoint needs a durable session; start the shell with -data-dir")
			return false
		}
		if err := s.mgr.Checkpoint(); err != nil {
			fmt.Fprintln(s.out, "error:", err)
			return false
		}
		st := s.mgr.Stats()
		fmt.Fprintf(s.out, "checkpointed at lsn %d (%d checkpoints, %d bytes total, %d wal segments pruned)\n",
			st.CheckpointLSN, st.Checkpoints, st.CheckpointBytes, st.Wal.Pruned)
	case "\\wal":
		if s.mgr == nil {
			fmt.Fprintln(s.out, "\\wal needs a durable session; start the shell with -data-dir")
			return false
		}
		st := s.mgr.Stats()
		fmt.Fprintf(s.out, "wal: %d records (%d bytes) across %d segments, %d fsyncs for %d sync requests (%d group-shared), %d rotations, %d segments pruned\n",
			st.Wal.Records, st.Wal.Bytes, st.Wal.Segments, st.Wal.Fsyncs, st.Wal.SyncRequests, st.Wal.GroupShared, st.Wal.Rotations, st.Wal.Pruned)
		fmt.Fprintf(s.out, "recovery: opened at lsn %d (checkpoint lsn %d, %d replayed, %d skipped, torn tail dropped: %v)\n",
			st.RecoveredLSN, st.CheckpointLSN, st.Replayed, st.ReplaySkipped, st.TornTail)
	case "\\cache":
		d := s.sess.DB()
		if len(fields) == 2 {
			switch fields[1] {
			case "on":
				d.EnableCache(db.DefaultCacheBudget)
			case "off":
				d.DisableCache()
			case "clear":
				d.ClearCache()
				fmt.Fprintln(s.out, "cache cleared")
			default:
				// \cache 256MB — enable with an explicit budget.
				if budget, err := db.ParseByteSize(fields[1]); err == nil {
					d.EnableCache(budget)
				} else {
					fmt.Fprintln(s.out, "usage: \\cache [on|off|clear|SIZE]")
					return false
				}
			}
			// The session copied the database's options when it opened.
			s.sess.CoreOptions.ResultCache = d.CoreOptions.ResultCache
		}
		if d.CacheEnabled() {
			st := d.CacheStats()
			fmt.Fprintf(s.out, "cache on: %d entries, %d/%d bytes, %d hits (%d extended), %d misses, %d invalidations, %d evictions, %d collapsed\n",
				st.Entries, st.Bytes, st.Budget, st.Hits, st.Extended, st.Misses, st.Invalidations, st.Evictions, st.Collapsed)
		} else {
			fmt.Fprintln(s.out, "cache off")
		}
	case "\\wire":
		if len(fields) == 2 {
			switch fields[1] {
			case "v1", "v2":
				s.wireVer = fields[1]
			case "off":
				s.wireVer = ""
			default:
				fmt.Fprintln(s.out, "usage: \\wire [v1|v2|off]")
				return false
			}
		}
		if s.wireVer == "" {
			fmt.Fprintln(s.out, "wire size display off")
		} else {
			fmt.Fprintf(s.out, "wire size display %s\n", s.wireVer)
		}
	case "\\stats":
		// \stats TABLE — the planner's statistics of the newest version.
		if len(fields) != 2 {
			fmt.Fprintln(s.out, "usage: \\stats TABLE")
			return false
		}
		st := s.sess.DB().TableStats(fields[1])
		if st == nil {
			fmt.Fprintf(s.out, "error: table %q does not exist\n", fields[1])
			return false
		}
		fmt.Fprint(s.out, st.String())
	case "\\strategy":
		if len(fields) == 2 {
			switch fields[1] {
			case "semijoin":
				s.sess.Strategy = db.StrategySemiJoin
			case "decompose":
				s.sess.Strategy = db.StrategyDecompose
			default:
				fmt.Fprintln(s.out, "usage: \\strategy semijoin|decompose")
			}
		}
		fmt.Fprintf(s.out, "resultdb strategy %v\n", s.sess.Strategy)
	case "\\save":
		if len(fields) != 2 {
			fmt.Fprintln(s.out, "usage: \\save FILE")
			return false
		}
		if err := s.saveSnapshot(fields[1]); err != nil {
			fmt.Fprintln(s.out, "error:", err)
		} else {
			fmt.Fprintln(s.out, "saved", fields[1])
		}
	case "\\open":
		if s.mgr != nil {
			fmt.Fprintln(s.out, "\\open would detach the session from its -data-dir WAL; start a plain shell to browse snapshots")
			return false
		}
		if len(fields) != 2 {
			fmt.Fprintln(s.out, "usage: \\open FILE")
			return false
		}
		if err := s.openSnapshot(fields[1]); err != nil {
			fmt.Fprintln(s.out, "error:", err)
		} else {
			fmt.Fprintln(s.out, "opened", fields[1])
		}
	case "\\d":
		// One snapshot for the whole listing: names and row counts are
		// mutually consistent even while other connections commit.
		snap := s.sess.Snapshot()
		if len(fields) == 2 {
			t, err := snap.Table(fields[1])
			if err != nil {
				fmt.Fprintln(s.out, "error:", err)
				return false
			}
			fmt.Fprintln(s.out, t.Def.String())
			return false
		}
		for _, name := range snap.TableNames() {
			t, err := snap.Table(name)
			if err != nil {
				continue
			}
			fmt.Fprintf(s.out, "%-24s %8d rows\n", name, t.Len())
		}
	default:
		fmt.Fprintln(s.out, "unknown command; try \\d, \\timing, \\trace, \\strategy, \\stats, \\cache, \\retry, \\checkpoint, \\wal, \\q")
	}
	return false
}

// metaRetry shows or reconfigures the remote connection's retry policy:
// \retry (show), \retry off, \retry N [BACKOFF] (N attempts, optional base
// backoff like 100ms). Always returns false (never quits).
func (s *shell) metaRetry(fields []string) bool {
	if s.remote == nil {
		fmt.Fprintln(s.out, "\\retry needs a remote connection; start the shell with -connect")
		return false
	}
	if len(fields) >= 2 {
		if fields[1] == "off" {
			s.remote.SetRetry(wire.RetryPolicy{})
		} else {
			var attempts int
			if _, err := fmt.Sscanf(fields[1], "%d", &attempts); err != nil || attempts < 1 {
				fmt.Fprintln(s.out, "usage: \\retry [off|ATTEMPTS [BACKOFF]]")
				return false
			}
			p := wire.DefaultRetryPolicy()
			p.MaxAttempts = attempts
			if len(fields) >= 3 {
				d, err := time.ParseDuration(fields[2])
				if err != nil || d <= 0 {
					fmt.Fprintln(s.out, "usage: \\retry [off|ATTEMPTS [BACKOFF]]")
					return false
				}
				p.BaseBackoff = d
			}
			s.remote.SetRetry(p)
		}
	}
	p := s.remote.RetryPolicy()
	if p.MaxAttempts <= 1 {
		fmt.Fprintln(s.out, "retry off (single attempt)")
	} else {
		fmt.Fprintf(s.out, "retry: %d attempts, backoff %v..%v, attempt timeout %v, query timeout %v (%d reconnects so far)\n",
			p.MaxAttempts, p.BaseBackoff, p.MaxBackoff, p.AttemptTimeout, p.QueryTimeout, s.remote.Reconnects())
	}
	return false
}

// saveSnapshot writes the session's current view of the database to path —
// one consistent MVCC snapshot, even while other connections commit.
func (s *shell) saveSnapshot(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snapshot.Save(s.sess.Snapshot(), f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openSnapshot replaces the session database with the snapshot at path.
func (s *shell) openSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := snapshot.Load(f)
	if err != nil {
		return err
	}
	s.sess = d.NewSession()
	return nil
}

func (s *shell) execute(sql string) error {
	start := time.Now()
	stmts, err := sqlparse.ParseScript(sql)
	if err != nil {
		return err
	}
	if s.remote != nil {
		// Remote mode: ship each statement's text to the server; retry and
		// reconnect live inside the wire client, so a transient failure here
		// is already the post-retry verdict (the error text carries the
		// classification and attempt count).
		for _, st := range stmts {
			res, err := s.remote.Exec(st.SQL())
			if err != nil {
				return fmt.Errorf("statement %q: %w", st.SQL(), err)
			}
			s.printResult(res)
		}
		if s.timing {
			fmt.Fprintf(s.out, "Time: %.3f ms\n", float64(time.Since(start).Microseconds())/1000)
		}
		return nil
	}
	for _, st := range stmts {
		if sel, ok := st.(*sqlparse.Select); ok && s.trace {
			res, tr, err := s.sess.QueryWithTrace(sel)
			if err != nil {
				return fmt.Errorf("statement %q: %w", st.SQL(), err)
			}
			s.printResult(res)
			if data, jerr := tr.JSON(); jerr == nil {
				fmt.Fprintln(s.out, string(data))
			}
			continue
		}
		res, err := s.sess.ExecStatement(st)
		if err != nil {
			return fmt.Errorf("statement %q: %w", st.SQL(), err)
		}
		s.printResult(res)
	}
	if s.timing {
		fmt.Fprintf(s.out, "Time: %.3f ms\n", float64(time.Since(start).Microseconds())/1000)
	}
	return nil
}

const maxDisplayRows = 50

func (s *shell) printResult(res *db.Result) {
	if len(res.Sets) == 0 {
		if res.Affected > 0 {
			fmt.Fprintf(s.out, "OK, %d rows affected\n", res.Affected)
		} else {
			fmt.Fprintln(s.out, "OK")
		}
		return
	}
	for _, set := range res.Sets {
		if len(res.Sets) > 1 {
			fmt.Fprintf(s.out, "-- relation %s (%d rows, %d bytes)\n", set.Name, set.NumRows(), set.WireSize())
		}
		fmt.Fprintln(s.out, strings.Join(set.Columns, " | "))
		fmt.Fprintln(s.out, strings.Repeat("-", len(strings.Join(set.Columns, " | "))))
		for i, row := range set.Rows {
			if i >= maxDisplayRows {
				fmt.Fprintf(s.out, "... (%d more rows)\n", set.NumRows()-maxDisplayRows)
				break
			}
			fmt.Fprintln(s.out, row.String())
		}
		fmt.Fprintf(s.out, "(%d rows)\n", set.NumRows())
	}
	if res.Stats != nil {
		fmt.Fprintf(s.out, "-- %s\n", res.Stats)
	}
	if s.wireVer != "" {
		v1 := len(wire.EncodeResult(res))
		if s.wireVer == "v1" {
			fmt.Fprintf(s.out, "-- wire v1: %d bytes\n", v1)
		} else {
			v2 := len(wire.EncodeResultV2(res))
			fmt.Fprintf(s.out, "-- wire v2: %d bytes (v1: %d, %.2fx)\n", v2, v1, float64(v1)/float64(v2))
		}
	}
}
