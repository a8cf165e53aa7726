// Package wal is the durability subsystem's write-ahead log: an append-only
// sequence of committed DML/DDL batches, segmented, CRC-guarded, and
// replayable to a byte-exact-deterministic state.
//
// Design rules, in the spirit of the repo's other infrastructure layers:
//
//   - Zero dependencies beyond the standard library and the repo's own wire
//     encoding primitives.
//   - Deterministic by construction: records carry dense LSNs, segments are
//     named by their first LSN, replay applies records in LSN order — two
//     recoveries of the same bytes produce identical databases.
//   - Crash-honest: a truncated or bit-flipped final record (what a killed
//     append leaves behind) is cleanly dropped; damage anywhere else in the
//     log is a typed error, never a silent prefix.
//   - Group commit: concurrent committers share fsyncs. A committer that
//     finds the durable watermark already past its LSN returns without
//     touching the disk; one fsync covers every record appended before it.
//
// The log stores opaque payloads; EncodeStatements/DecodeStatements are the
// batch codec internal/durable uses on top.
package wal

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCorrupt marks damage in the body of the log — a record that fails its
// CRC or a hole in the LSN sequence anywhere other than the torn tail a
// crash legitimately leaves. Recovery must stop and surface it rather than
// silently dropping acknowledged batches.
var ErrCorrupt = errors.New("wal: log corrupt")

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs before a commit is acknowledged (group-committed
	// across concurrent writers). Survives OS crashes and power cuts.
	SyncAlways SyncPolicy = iota
	// SyncInterval acknowledges immediately and fsyncs on a timer: commits
	// survive process kills always, and OS crashes up to the interval.
	SyncInterval
	// SyncOff never fsyncs; the OS flushes when it pleases. Commits survive
	// process kills (the bytes are in the page cache) but not OS crashes.
	SyncOff
)

// String names the policy ("always", "interval", "off").
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParseSyncPolicy parses "always", "interval", or "off".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off", "none":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

// DefaultSegmentBytes is the rotation budget when Options leaves it zero.
const DefaultSegmentBytes = 4 << 20

// DefaultSyncInterval is the SyncInterval flush period when unset.
const DefaultSyncInterval = 50 * time.Millisecond

// Options configures a Log.
type Options struct {
	// FS is the directory the log lives in (required).
	FS FS
	// SegmentBytes rotates to a fresh segment once the current one reaches
	// this size (0 = DefaultSegmentBytes). A record always fits: a segment
	// holds at least one record regardless of budget.
	SegmentBytes int64
	// Policy selects the fsync discipline (default SyncAlways).
	Policy SyncPolicy
	// Interval is the SyncInterval flush period (0 = DefaultSyncInterval).
	Interval time.Duration
}

// Log is an append-only write-ahead log over an FS. Append/Sync are safe for
// concurrent use; Prune and Close must not race Append.
type Log struct {
	fs     FS
	segMax int64
	policy SyncPolicy

	mu       sync.Mutex
	seg      File   // current segment, open for append
	segName  string // its file name
	segSize  int64
	nextLSN  uint64 // LSN the next Append will use
	segments []segmentInfo

	// synced is the durable watermark: every record with LSN <= synced has
	// been fsynced (or predates this process). Guarded by syncMu for
	// writers; read via atomic for the group-commit fast path.
	synced atomic.Uint64
	syncMu sync.Mutex

	flushStop chan struct{}
	flushDone chan struct{}

	stats logStats
}

// segmentInfo tracks one on-disk segment.
type segmentInfo struct {
	name  string
	first uint64 // first LSN the segment holds (its name)
}

// logStats is the Log's atomic counter block.
type logStats struct {
	records      atomic.Int64
	bytes        atomic.Int64
	fsyncs       atomic.Int64
	syncRequests atomic.Int64
	groupShared  atomic.Int64 // Sync calls satisfied by someone else's fsync
	rotations    atomic.Int64
	pruned       atomic.Int64
}

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

// segName formats the segment file name holding records from first on.
func segName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

// parseSegName extracts the first-LSN from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	var v uint64
	if _, err := fmt.Sscanf(hex, "%016x", &v); err != nil {
		return 0, false
	}
	return v, true
}

// listSegments returns the FS's segment files sorted by first LSN.
func listSegments(fs FS) ([]segmentInfo, error) {
	names, err := fs.List()
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, name := range names {
		if first, ok := parseSegName(name); ok {
			segs = append(segs, segmentInfo{name: name, first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// Open opens (or creates) the log in opts.FS for appending. base is the LSN
// the log continues from when it holds no records — the newest checkpoint's
// LSN — so the first appended record gets base+1; an existing log overrides
// it with its own last valid LSN. A torn tail left by a crash is physically
// truncated away here, once, so appends land on a clean record boundary.
func Open(opts Options, base uint64) (*Log, error) {
	if opts.FS == nil {
		return nil, errors.New("wal: Options.FS is required")
	}
	l := &Log{
		fs:     opts.FS,
		segMax: opts.SegmentBytes,
		policy: opts.Policy,
	}
	if l.segMax <= 0 {
		l.segMax = DefaultSegmentBytes
	}
	segs, err := listSegments(opts.FS)
	if err != nil {
		return nil, err
	}
	l.segments = segs
	last := base
	if len(segs) > 0 {
		// Scan the final segment for its last valid record and drop a torn
		// tail; earlier segments are validated by Replay, which recovery
		// runs before opening the log for append.
		tail := segs[len(segs)-1]
		data, err := opts.FS.ReadFile(tail.name)
		if err != nil {
			return nil, err
		}
		end := int64(0)
		lastInSeg := tail.first - 1
		for end < int64(len(data)) {
			lsn, _, next, ok := parseRecord(data, end)
			if !ok {
				break
			}
			lastInSeg, end = lsn, next
		}
		if end < int64(len(data)) {
			if cerr := classifyInvalid(data, end); cerr != nil {
				return nil, fmt.Errorf("wal: segment %s: %w", tail.name, cerr)
			}
			if err := opts.FS.Truncate(tail.name, end); err != nil {
				return nil, fmt.Errorf("wal: dropping torn tail of %s: %w", tail.name, err)
			}
		}
		if lastInSeg >= tail.first {
			last = lastInSeg
		} else if tail.first > 0 {
			// Empty (or fully torn) segment: it starts where the previous
			// one ended.
			last = tail.first - 1
		}
		l.seg, err = opts.FS.OpenAppend(tail.name)
		if err != nil {
			return nil, err
		}
		l.segName = tail.name
		l.segSize = end
	} else {
		name := segName(base + 1)
		l.seg, err = opts.FS.OpenAppend(name)
		if err != nil {
			return nil, err
		}
		l.segName = name
		l.segSize = 0
		l.segments = []segmentInfo{{name: name, first: base + 1}}
	}
	l.nextLSN = last + 1
	l.synced.Store(last)
	if l.policy == SyncInterval {
		interval := opts.Interval
		if interval <= 0 {
			interval = DefaultSyncInterval
		}
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop(interval)
	}
	return l, nil
}

// Append writes one record and returns its LSN. The record is in the OS (or
// MemFS) write stream when Append returns but not necessarily durable — call
// Sync(lsn) before acknowledging the commit under SyncAlways.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seg == nil {
		return 0, errors.New("wal: log is closed")
	}
	if int64(len(payload)) > MaxRecordPayload {
		return 0, fmt.Errorf("wal: record payload %d bytes exceeds maximum %d", len(payload), MaxRecordPayload)
	}
	size := recordSize(payload)
	if l.segSize > 0 && l.segSize+size > l.segMax {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	lsn := l.nextLSN
	rec := appendRecord(make([]byte, 0, size), lsn, payload)
	if _, err := l.seg.Write(rec); err != nil {
		// The write may be torn; poison the log so no later append can
		// frame-shift past the damage. Recovery drops the tail.
		l.seg.Close()
		l.seg = nil
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.segSize += size
	l.nextLSN = lsn + 1
	l.stats.records.Add(1)
	l.stats.bytes.Add(size)
	return lsn, nil
}

// rotateLocked seals the current segment and starts a new one named by the
// next LSN. The sealed segment is fsynced (unless SyncOff), so the durable
// watermark can advance past everything it holds.
func (l *Log) rotateLocked() error {
	if l.policy != SyncOff {
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: rotate sync: %w", err)
		}
		l.stats.fsyncs.Add(1)
		if sealed := l.nextLSN - 1; sealed > l.synced.Load() {
			l.synced.Store(sealed)
		}
	}
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	name := segName(l.nextLSN)
	seg, err := l.fs.OpenAppend(name)
	if err != nil {
		return err
	}
	l.seg = seg
	l.segName = name
	l.segSize = 0
	l.segments = append(l.segments, segmentInfo{name: name, first: l.nextLSN})
	l.stats.rotations.Add(1)
	return nil
}

// Sync makes every record up to lsn durable, per the policy:
//
//   - SyncAlways: blocks until an fsync covers lsn. Concurrent callers group
//     commit — one fsync acknowledges every record appended before it.
//   - SyncInterval / SyncOff: returns immediately; durability is the flush
//     timer's (or the OS's) business.
func (l *Log) Sync(lsn uint64) error {
	if l.policy != SyncAlways {
		return nil
	}
	l.stats.syncRequests.Add(1)
	if l.synced.Load() >= lsn {
		l.stats.groupShared.Add(1)
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= lsn {
		l.stats.groupShared.Add(1)
		return nil
	}
	return l.syncCurrent()
}

// syncCurrent fsyncs the live segment and advances the watermark to the last
// record appended before the fsync began. Callers hold syncMu.
func (l *Log) syncCurrent() error {
	l.mu.Lock()
	seg := l.seg
	covered := l.nextLSN - 1
	l.mu.Unlock()
	if seg == nil {
		return errors.New("wal: log is closed")
	}
	if err := seg.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.stats.fsyncs.Add(1)
	if covered > l.synced.Load() {
		l.synced.Store(covered)
	}
	return nil
}

// flushLoop is the SyncInterval timer.
func (l *Log) flushLoop(interval time.Duration) {
	defer close(l.flushDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-t.C:
			l.syncMu.Lock()
			l.syncCurrent() // best-effort; a dead FS surfaces on Append/Close
			l.syncMu.Unlock()
		}
	}
}

// LastLSN returns the LSN of the most recently appended record (or the base
// the log was opened at, when nothing has been appended).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// SyncedLSN returns the durable watermark.
func (l *Log) SyncedLSN() uint64 { return l.synced.Load() }

// Prune removes segments every one of whose records is covered by a
// checkpoint at lsn. The live segment is never removed.
func (l *Log) Prune(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.segments[:0]
	for i, seg := range l.segments {
		// A segment's records end where the next segment starts; the last
		// (live) segment is always kept.
		if i+1 < len(l.segments) && l.segments[i+1].first <= lsn+1 && seg.name != l.segName {
			if err := l.fs.Remove(seg.name); err != nil {
				return fmt.Errorf("wal: prune %s: %w", seg.name, err)
			}
			l.stats.pruned.Add(1)
			continue
		}
		kept = append(kept, seg)
	}
	l.segments = append([]segmentInfo(nil), kept...)
	return nil
}

// Close stops the flush timer, makes the log durable (unless SyncOff), and
// releases the segment handle.
func (l *Log) Close() error {
	if l.flushStop != nil {
		close(l.flushStop)
		<-l.flushDone
		l.flushStop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seg == nil {
		return nil
	}
	var err error
	if l.policy != SyncOff {
		if serr := l.seg.Sync(); serr != nil {
			err = serr
		} else {
			l.stats.fsyncs.Add(1)
			if covered := l.nextLSN - 1; covered > l.synced.Load() {
				l.synced.Store(covered)
			}
		}
	}
	if cerr := l.seg.Close(); err == nil {
		err = cerr
	}
	l.seg = nil
	return err
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	segs := len(l.segments)
	l.mu.Unlock()
	return Stats{
		Records:      l.stats.records.Load(),
		Bytes:        l.stats.bytes.Load(),
		Fsyncs:       l.stats.fsyncs.Load(),
		SyncRequests: l.stats.syncRequests.Load(),
		GroupShared:  l.stats.groupShared.Load(),
		Rotations:    l.stats.rotations.Load(),
		Pruned:       l.stats.pruned.Load(),
		Segments:     int64(segs),
	}
}
