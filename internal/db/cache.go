package db

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"resultdb/internal/cache"
	"resultdb/internal/storage"
)

// DefaultCacheBudget is the result cache's byte budget when enabled without
// an explicit budget (64 MiB of measured result bytes).
const DefaultCacheBudget = 64 << 20

// EnableCache switches the semantic result cache on with the given byte
// budget (0 = DefaultCacheBudget). Entries survive re-enabling but respect
// the new budget immediately. This is the runtime switch behind the shell's
// \cache and resultdbd's -cache; a database that never toggles sets
// Config.CacheEnabled/Config.CacheBudget at Open time. EnableCache
// serializes against writers but not against in-flight reads.
func (d *Database) EnableCache(budget int64) {
	if budget <= 0 {
		budget = DefaultCacheBudget
	}
	d.withWriter(func() {
		d.CoreOptions.ResultCache = true
		d.resultCache.SetBudget(budget)
	})
}

// DisableCache switches the result cache off and drops all entries.
func (d *Database) DisableCache() {
	d.withWriter(func() {
		d.CoreOptions.ResultCache = false
		d.resultCache.Clear()
	})
}

// CacheEnabled reports whether the result cache is on.
func (d *Database) CacheEnabled() bool {
	return d.CoreOptions.ResultCache
}

// CacheStats snapshots the result cache's counters and occupancy.
func (d *Database) CacheStats() cache.Stats {
	return d.resultCache.Stats()
}

// ClearCache drops every cached result.
func (d *Database) ClearCache() {
	d.resultCache.Clear()
}

// ParseByteSize parses "1048576", "64KB", "256MB", "2GB", "16MiB" (decimal
// suffixes are powers of 1000, binary suffixes powers of 1024; case
// insensitive, optional space before the suffix). A negative size, NaN, or
// one beyond math.MaxInt64 bytes is an error.
func ParseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	i := len(s)
	for i > 0 {
		c := s[i-1]
		if c >= '0' && c <= '9' || c == '.' {
			break
		}
		i--
	}
	num := strings.TrimSpace(s[:i])
	suffix := strings.ToUpper(strings.TrimSpace(s[i:]))
	mult := int64(1)
	switch suffix {
	case "", "B":
	case "KB":
		mult = 1000
	case "MB":
		mult = 1000 * 1000
	case "GB":
		mult = 1000 * 1000 * 1000
	case "KIB":
		mult = 1 << 10
	case "MIB":
		mult = 1 << 20
	case "GIB":
		mult = 1 << 30
	default:
		return 0, fmt.Errorf("db: unknown byte-size suffix %q", suffix)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("db: bad byte size %q: %w", s, err)
	}
	// 1<<63 is the first float64 above math.MaxInt64; the comparisons are
	// false for NaN too.
	n := f * float64(mult)
	if !(n >= 0 && n < 1<<63) {
		return 0, fmt.Errorf("db: byte size %q out of range [0, %d]", s, int64(math.MaxInt64))
	}
	return int64(n), nil
}

// cacheKey builds the semantic cache key of a SELECT executed through the
// SQL surface: the canonical statement fingerprint (whitespace-, identifier-
// case- and literal-formatting-insensitive; RESULTDB / PRESERVING flags are
// part of the canonical text) prefixed with the one execution knob that can
// change the *observable* result beyond the row data: the strategy (Stats
// attachment differs between semi-join and Decompose). Parallelism is
// deliberately excluded: results are bit-identical at any degree. So is the
// plan: there is one join orderer, deterministic for a given snapshot.
func cacheKey(ec execCtx, sel *selectStmt) string {
	canon, _ := sel.fingerprint()
	return "s" + strconv.Itoa(int(ec.strategy)) + "|" + canon
}

// cacheAt returns what the result cache needs to place sel in version space:
// tables, the statement's tables in first-appearance order; at, the vector
// of their marks in the pinned snapshot; and live, the same vector read from
// the newest committed state.
func (d *Database) cacheAt(snap *Snapshot, sel *selectStmt) (tables []string, at []storage.Mark, live func() []storage.Mark) {
	_, tables = sel.fingerprint()
	return tables, snap.st.marks(tables), func() []storage.Mark { return d.state.Load().marks(tables) }
}

// queryCached serves sel through the result cache, keyed on the pinned
// snapshot's table marks. A writer can publish a new version at any point
// of the lookup-execute-fill window; the snapshot-versioned cache API
// (cache.DoAt) keeps every outcome correct:
//
//   - A cached entry is served only if it was filled at exactly the marks
//     this snapshot pins — a reader can never see a result newer (or older)
//     than its snapshot — or if it was filled at an earlier version of the
//     same tables and unchanged shows that the rows appended since add no
//     join tuple (the entry is then re-stamped for the snapshot).
//   - Concurrent identical misses collapse into one execution only when
//     they pinned the same marks (the single-flight key includes the
//     vector), so a reader before and a reader after a commit never share a
//     computation.
//   - A computed fill is admitted only if the tables' marks are still
//     current at fill time; a fill that raced a writer is returned to its
//     caller (correct for its snapshot) but not cached.
//
// Cached *Result values are shared snapshots: callers must not mutate them
// (the repo's surfaces — shell printing, wire encoding, PostJoin — only
// read).
//
// hit reports that the result was not computed by this call: it came from a
// resident entry or from a concurrent identical execution.
func (d *Database) queryCached(ec execCtx, sel *selectStmt) (res *Result, hit bool, err error) {
	key := cacheKey(ec, sel)
	tables, at, live := d.cacheAt(ec.snap, sel)
	return d.resultCache.DoAt(key, at, live, func() (*Result, int64, error) {
		r, err := d.queryUncached(ec, sel.Select, nil)
		if err != nil {
			return nil, 0, err
		}
		d.seal(key, r)
		return r, cachedResultBytes(r), nil
	}, func(r *Result, from []storage.Mark) bool {
		return d.unchanged(ec, sel.Select, r, tables, from, at)
	})
}

// cachedResultBytes measures a result's cache cost at admission: the Section
// 6.1 wire size of every set plus a small fixed overhead per set for names,
// columns, and bookkeeping. The encoded payloads a resident result keeps
// later are charged to its entry when they are kept (PayloadMemo.Keep).
func cachedResultBytes(r *Result) int64 {
	const perSetOverhead = 64
	n := int64(r.WireSize())
	n += int64(len(r.Sets)) * perSetOverhead
	return n
}
