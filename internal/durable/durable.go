// Package durable orchestrates the durability subsystem: it owns a data
// directory holding checkpoints (versioned, CRC-trailered snapshots stamped
// with the last WAL LSN they cover — internal/snapshot) and WAL segments
// (internal/wal), installs itself as the database's commit log, and performs
// recovery:
//
//	state = newest valid checkpoint + replay of WAL records past its LSN
//
// Recovery is byte-exact-deterministic: the checkpoint decodes to the same
// tables every time, WAL records are replayed in dense LSN order, and each
// record is the canonical SQL of a batch the engine executes
// deterministically. Recovery builds a *fresh* db.Database of fresh table
// versions, so semantic-cache entries, colstore frames and statistics from
// the pre-crash process are unreachable by construction — nothing stale can
// be trusted, because nothing survives.
//
// Crash safety contract (the crash gate enforces it at every byte offset):
// an acknowledged batch is never lost, an unacknowledged tail may be dropped
// but is never half-applied, and damage outside the torn tail is a typed
// error rather than silent data loss.
package durable

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/snapshot"
	"resultdb/internal/trace"
	"resultdb/internal/wal"
)

// ErrNoCheckpoint means the directory holds WAL segments but no loadable
// checkpoint: the log has no base to replay onto, which only tampering or
// damage can produce (every directory is born with a checkpoint at LSN 0).
var ErrNoCheckpoint = errors.New("durable: wal segments present but no loadable checkpoint")

const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".snap"
	ckptTmp    = "ckpt.tmp"
)

// ckptName formats the checkpoint file name covering up to lsn.
func ckptName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, lsn, ckptSuffix)
}

// parseCkptName extracts the covered LSN from a checkpoint file name.
func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	var v uint64
	if _, err := fmt.Sscanf(hex, "%016x", &v); err != nil {
		return 0, false
	}
	return v, true
}

// Options configures a Manager.
type Options struct {
	// Dir is the data directory; used (via wal.NewDirFS) when FS is nil.
	Dir string
	// FS overrides the directory with an injected filesystem — the crash
	// gate's entry point.
	FS wal.FS
	// Fsync is the WAL fsync policy (default wal.SyncAlways).
	Fsync wal.SyncPolicy
	// SyncInterval is the flush period under wal.SyncInterval.
	SyncInterval time.Duration
	// SegmentBytes is the WAL rotation budget (0 = wal default).
	SegmentBytes int64
	// CheckpointEvery takes an automatic checkpoint after that many logged
	// batches (0 = manual/drain checkpoints only).
	CheckpointEvery int64
}

// Manager binds a database to its data directory. It implements
// db.CommitLog; Open installs it on the database it returns.
type Manager struct {
	fs   wal.FS
	db   *db.Database
	log  *wal.Log
	opts Options

	// mu serializes checkpoints (and Close against them).
	mu       sync.Mutex
	ckptLSN  uint64
	haveCkpt bool
	closed   bool

	sinceCkpt atomic.Int64
	ckpts     atomic.Int64
	ckptBytes atomic.Int64

	// Recovery facts, fixed at Open.
	recoveredLSN  uint64
	replayed      int64
	replaySkipped int64
	tornTail      bool
}

// Open recovers (or initializes) the data directory and returns the manager
// and its database, with the commit hook installed. On a fresh directory,
// bootstrap (nil = none) seeds the empty database — bulk workload loads that
// bypass SQL go here — and the seeded state is captured by the initial
// checkpoint at LSN 0, so it is never needed again: on every later open the
// state comes from checkpoint + WAL alone.
func Open(opts Options, bootstrap func(*db.Database) error) (*Manager, *db.Database, error) {
	fsys := opts.FS
	if fsys == nil {
		if opts.Dir == "" {
			return nil, nil, errors.New("durable: Options.Dir or Options.FS is required")
		}
		dirFS, err := wal.NewDirFS(opts.Dir)
		if err != nil {
			return nil, nil, err
		}
		fsys = dirFS
	}
	m := &Manager{fs: fsys, opts: opts}

	names, err := fsys.List()
	if err != nil {
		return nil, nil, err
	}
	var ckpts []string
	haveSegments := false
	for _, name := range names {
		if _, ok := parseCkptName(name); ok {
			ckpts = append(ckpts, name)
		}
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") {
			haveSegments = true
		}
		// A stray tmp is a checkpoint that never reached its rename; it is
		// garbage by contract.
		if name == ckptTmp {
			fsys.Remove(name)
		}
	}
	sort.Strings(ckpts) // name order == LSN order

	var d *db.Database
	switch {
	case len(ckpts) > 0:
		d, err = m.loadNewestCheckpoint(ckpts)
		if err != nil {
			return nil, nil, err
		}
	case haveSegments:
		return nil, nil, ErrNoCheckpoint
	default:
		d = db.New()
		if bootstrap != nil {
			if err := bootstrap(d); err != nil {
				return nil, nil, fmt.Errorf("durable: bootstrap: %w", err)
			}
		}
	}
	m.db = d

	// Replay the log past the checkpoint. Statements were logged only after
	// applying cleanly, so a replay failure is real corruption, not a
	// replayed user error.
	stats, err := wal.Replay(fsys, m.ckptLSN, func(lsn uint64, payload []byte) error {
		stmts, err := wal.DecodeStatements(payload)
		if err != nil {
			return fmt.Errorf("%w: record %d: %v", wal.ErrCorrupt, lsn, err)
		}
		for _, sql := range stmts {
			if _, err := d.Exec(sql); err != nil {
				return fmt.Errorf("durable: replaying record %d (%q): %w", lsn, sql, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	m.recoveredLSN = stats.LastLSN
	m.replayed = stats.Records
	m.replaySkipped = stats.Skipped
	m.tornTail = stats.TornTail
	// Stamp the recovered position into the published MVCC state so the first
	// snapshot (and the birth checkpoint taken from it) carries the right LSN.
	d.SetRecoveredLSN(stats.LastLSN)

	m.log, err = wal.Open(wal.Options{
		FS:           fsys,
		SegmentBytes: opts.SegmentBytes,
		Policy:       opts.Fsync,
		Interval:     opts.SyncInterval,
	}, stats.LastLSN)
	if err != nil {
		return nil, nil, err
	}

	// A fresh directory gets its birth checkpoint so the bootstrap state is
	// durable before the first commit is ever acknowledged.
	if !m.haveCkpt {
		if err := m.Checkpoint(); err != nil {
			m.log.Close()
			return nil, nil, err
		}
	}

	d.SetCommitLog(m)
	return m, d, nil
}

// loadNewestCheckpoint loads the newest checkpoint that decodes cleanly,
// removing broken newer ones so they cannot shadow the good one forever. If
// none loads, the last (typed) load error is returned.
func (m *Manager) loadNewestCheckpoint(ckpts []string) (*db.Database, error) {
	var lastErr error
	for i := len(ckpts) - 1; i >= 0; i-- {
		data, err := m.fs.ReadFile(ckpts[i])
		if err != nil {
			lastErr = err
			continue
		}
		d, lsn, err := snapshot.LoadLSN(bytes.NewReader(data))
		if err != nil {
			lastErr = fmt.Errorf("durable: checkpoint %s: %w", ckpts[i], err)
			continue
		}
		m.ckptLSN = lsn
		m.haveCkpt = true
		return d, nil
	}
	return nil, lastErr
}

// Append implements db.CommitLog: called with the database writer lock held,
// it logs the batch and returns its LSN (which the writer publishes in the
// committed state); the returned wait makes it durable (group-committed)
// and is invoked by the database after unlock.
func (m *Manager) Append(stmts []string) (uint64, func() error, error) {
	lsn, err := m.log.Append(wal.EncodeStatements(stmts))
	if err != nil {
		return 0, nil, err
	}
	return lsn, func() error {
		if err := m.log.Sync(lsn); err != nil {
			return err
		}
		if every := m.opts.CheckpointEvery; every > 0 && m.sinceCkpt.Add(1) >= every {
			m.sinceCkpt.Store(0)
			if err := m.Checkpoint(); err != nil {
				// The commit itself is durable in the WAL; a failed
				// checkpoint only delays pruning.
				return nil
			}
		}
		return nil
	}, nil
}

// Checkpoint pins one MVCC snapshot of the database (carrying the WAL
// position its last commit published — no read lock, writers keep
// committing), writes it to a temporary file, fsyncs, renames into place,
// syncs the directory, then removes older checkpoints and prunes
// fully-covered WAL segments. A crash anywhere in the sequence leaves either
// the old checkpoint or the new one intact — never neither.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("durable: closed")
	}
	// The snapshot's LSN and tables were published in one atomic store, so the
	// pair is exactly consistent even while later commits land concurrently.
	snap := m.db.Snapshot()
	lsn := snap.LSN()
	var buf bytes.Buffer
	if err := snapshot.SaveLSN(snap, lsn, &buf); err != nil {
		return fmt.Errorf("durable: checkpoint encode: %w", err)
	}
	if m.haveCkpt && lsn == m.ckptLSN {
		return nil // nothing new to cover
	}
	// Write-tmp, fsync, rename, fsync-dir: the checkpoint appears atomically.
	m.fs.Remove(ckptTmp) // a leftover tmp would be appended to
	f, err := m.fs.OpenAppend(ckptTmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("durable: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	name := ckptName(lsn)
	if err := m.fs.Rename(ckptTmp, name); err != nil {
		return fmt.Errorf("durable: checkpoint rename: %w", err)
	}
	if err := m.fs.SyncDir(); err != nil {
		return fmt.Errorf("durable: checkpoint dir sync: %w", err)
	}
	// Only now is the new checkpoint the recovery base; retire the old
	// world. Failures here cost disk space, not correctness.
	names, err := m.fs.List()
	if err == nil {
		for _, n := range names {
			if l, ok := parseCkptName(n); ok && l < lsn {
				m.fs.Remove(n)
			}
		}
	}
	m.log.Prune(lsn)
	m.ckptLSN = lsn
	m.haveCkpt = true
	m.ckpts.Add(1)
	m.ckptBytes.Add(int64(buf.Len()))
	return nil
}

// DB returns the managed database.
func (m *Manager) DB() *db.Database { return m.db }

// RecoveredLSN returns the LSN the database was recovered to at Open: the
// checkpoint's LSN plus every valid replayed record.
func (m *Manager) RecoveredLSN() uint64 { return m.recoveredLSN }

// Close uninstalls the commit hook and closes the WAL (making it durable
// under fsync policies other than off). It does not checkpoint; callers
// wanting checkpoint-on-drain call Checkpoint first.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	m.db.SetCommitLog(nil)
	return m.log.Close()
}

// Stats snapshots durability counters: the WAL's own, plus checkpoint and
// recovery facts.
type Stats struct {
	Wal wal.Stats `json:"wal"`
	// Replayed is the number of WAL records applied during recovery.
	Replayed int64 `json:"replayed"`
	// ReplaySkipped is the number of valid records already covered by the
	// checkpoint recovery loaded.
	ReplaySkipped int64 `json:"replay_skipped"`
	// TornTail reports that recovery dropped a torn final record.
	TornTail bool `json:"torn_tail"`
	// RecoveredLSN is the LSN state was recovered to at Open.
	RecoveredLSN uint64 `json:"recovered_lsn"`
	// CheckpointLSN is the LSN covered by the newest checkpoint.
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// Checkpoints counts checkpoints taken this process.
	Checkpoints int64 `json:"checkpoints"`
	// CheckpointBytes sums the encoded sizes of those checkpoints.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
}

// Stats returns current counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	ckptLSN := m.ckptLSN
	m.mu.Unlock()
	return Stats{
		Wal:             m.log.Stats(),
		Replayed:        m.replayed,
		ReplaySkipped:   m.replaySkipped,
		TornTail:        m.tornTail,
		RecoveredLSN:    m.recoveredLSN,
		CheckpointLSN:   ckptLSN,
		Checkpoints:     m.ckpts.Load(),
		CheckpointBytes: m.ckptBytes.Load(),
	}
}

// Trace renders the combined durability counters in the repo's one
// observability format (mode "wal-stats", "counter" spans), extending the
// WAL's own spans with checkpoint and recovery counts.
func (s Stats) Trace() *trace.Trace {
	torn := int64(0)
	if s.TornTail {
		torn = 1
	}
	return s.Wal.Trace().AddCounts("wal",
		trace.Count{Name: "recovery_replayed", Value: s.Replayed},
		trace.Count{Name: "recovery_skipped", Value: s.ReplaySkipped},
		trace.Count{Name: "recovery_torn_tail", Value: torn},
		trace.Count{Name: "recovered_lsn", Value: int64(s.RecoveredLSN)},
		trace.Count{Name: "checkpoint_lsn", Value: int64(s.CheckpointLSN)},
		trace.Count{Name: "checkpoints", Value: s.Checkpoints},
		trace.Count{Name: "checkpoint_bytes", Value: s.CheckpointBytes},
	)
}
