// Package cache is the semantic query-result cache of the reproduction: a
// zero-dependency (stdlib-only), generic, byte-budgeted LRU keyed by a
// normalized statement fingerprint and guarded by per-table version counters.
//
// The design mirrors the paper's own argument one level up: SELECT RESULTDB
// avoids recomputing and re-shipping redundant denormalized data *within* a
// query; the cache avoids recomputing the same subdatabase *across* queries.
// A server handling the ROADMAP's north-star traffic sees the same JOB-style
// statements over and over — serving a previously computed multi-relation
// result is the single biggest latency and throughput lever available.
//
// Correctness model:
//
//   - Keys are semantic fingerprints produced by the caller (internal/db uses
//     the canonicalized AST rendering from internal/sqlparse), so whitespace,
//     literal formatting, and identifier case do not fragment the cache.
//   - Every entry records the set of base tables the statement reads and the
//     version counter of each table at fill time. Any DML/DDL that touches a
//     table bumps its counter (O(1)); a lookup compares the recorded versions
//     against the current ones (O(#tables), a handful of integers), so a
//     stale entry is never served — invalidation is lazy and constant-time,
//     with no per-entry bookkeeping on the write path.
//   - Admission and eviction are cost-aware: each entry carries its measured
//     wire-encoded byte size, the cache holds a configurable byte budget, and
//     the least-recently-used entries are evicted until the new entry fits.
//     Entries larger than the whole budget are simply not admitted.
//   - Concurrent identical misses are collapsed by single-flight: the first
//     caller computes, everyone else waits for that one execution and shares
//     the value. A thundering herd of N identical queries costs one execution.
//
// The cache stores opaque values (instantiate Cache[V] with the result type);
// callers must treat returned values as immutable shared snapshots.
package cache

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Stats is a point-in-time snapshot of the cache's counters and occupancy.
type Stats struct {
	// Hits counts lookups served from a live entry.
	Hits uint64
	// Misses counts lookups that found no entry (or a stale one) and led to
	// a computation (single-flight followers count as hits-by-collapse, not
	// misses).
	Misses uint64
	// Invalidations counts lookups that found an entry whose table versions
	// had moved on; the entry is discarded at that moment (lazy eviction).
	Invalidations uint64
	// Evictions counts entries evicted to make room under the byte budget.
	Evictions uint64
	// Collapsed counts callers that joined an in-flight identical
	// computation instead of executing it themselves (single-flight).
	Collapsed uint64

	// Entries is the current number of live entries.
	Entries int
	// Bytes is the summed cost of all live entries.
	Bytes int64
	// Budget is the configured byte budget (0 = unlimited admission is NOT
	// supported; a zero budget admits nothing).
	Budget int64
}

// entry is one cached value with its invalidation guard.
type entry struct {
	key    string
	value  any
	bytes  int64
	tables []string // lowercased, sorted, deduplicated
	vers   []uint64 // table versions at fill time, parallel to tables
	elem   *list.Element
}

// flight is one in-progress computation other callers can wait on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a versioned, byte-budgeted, single-flight LRU. All methods are
// safe for concurrent use. The zero value is not usable; construct with New.
type Cache[V any] struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[string]*entry
	lru     *list.List // front = most recently used
	vers    map[string]uint64
	flights map[string]*flight[V]

	hits          uint64
	misses        uint64
	invalidations uint64
	evictions     uint64
	collapsed     uint64
}

// New returns an empty cache with the given byte budget.
func New[V any](budget int64) *Cache[V] {
	return &Cache[V]{
		budget:  budget,
		entries: make(map[string]*entry),
		lru:     list.New(),
		vers:    make(map[string]uint64),
		flights: make(map[string]*flight[V]),
	}
}

// SetBudget changes the byte budget, evicting LRU entries if the cache now
// overflows.
func (c *Cache[V]) SetBudget(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budget
	c.evictToFitLocked(0)
}

// Budget returns the configured byte budget.
func (c *Cache[V]) Budget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget
}

// normTables lowercases, sorts and deduplicates a table list so version
// checks are order-insensitive and case-insensitive (matching the engine's
// case-insensitive name resolution).
func normTables(tables []string) []string {
	out := make([]string, 0, len(tables))
	for _, t := range tables {
		out = append(out, strings.ToLower(t))
	}
	sort.Strings(out)
	j := 0
	for i, t := range out {
		if i == 0 || out[j-1] != t {
			out[j] = t
			j++
		}
	}
	return out[:j]
}

// Bump advances the version counter of each named table (case-insensitive),
// making every cache entry that reads one of them stale. O(1) per table; the
// entries themselves are discarded lazily on their next lookup or eviction.
func (c *Cache[V]) Bump(tables ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range tables {
		c.vers[strings.ToLower(t)]++
	}
}

// Clear drops every entry (not the version counters, which must keep
// monotonically increasing so pre-clear fills can never be revived).
func (c *Cache[V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*entry)
	c.lru.Init()
	c.bytes = 0
}

// freshLocked reports whether e's recorded table versions still match.
func (c *Cache[V]) freshLocked(e *entry) bool {
	for i, t := range e.tables {
		if c.vers[t] != e.vers[i] {
			return false
		}
	}
	return true
}

// removeLocked drops e from the map, the LRU list, and the byte accounting.
func (c *Cache[V]) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
}

// lookupLocked returns the live entry for key, discarding it (and counting an
// invalidation) if stale. Does not touch hit/miss counters or LRU order.
func (c *Cache[V]) lookupLocked(key string) *entry {
	e, ok := c.entries[key]
	if !ok {
		return nil
	}
	if !c.freshLocked(e) {
		c.invalidations++
		c.removeLocked(e)
		return nil
	}
	return e
}

// Get returns the cached value for key if present and fresh, updating LRU
// order and the hit/miss counters.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.lookupLocked(key); e != nil {
		c.hits++
		c.lru.MoveToFront(e.elem)
		return e.value.(V), true
	}
	c.misses++
	var zero V
	return zero, false
}

// Peek reports whether key is present and fresh without counting a hit or a
// miss and without touching LRU order (used by EXPLAIN ANALYZE to annotate
// the plan without perturbing the cache).
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && c.freshLocked(e) {
		return e.value.(V), true
	}
	var zero V
	return zero, false
}

// Put admits a value computed against the *current* table versions. Oversized
// values (bytes > budget) are not admitted; otherwise LRU entries are evicted
// until the value fits. A racing entry under the same key is replaced.
func (c *Cache[V]) Put(key string, v V, bytes int64, tables []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, v, bytes, tables)
}

func (c *Cache[V]) putLocked(key string, v V, bytes int64, tables []string) {
	if bytes > c.budget {
		return
	}
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old)
	}
	c.evictToFitLocked(bytes)
	norm := normTables(tables)
	e := &entry{key: key, value: v, bytes: bytes, tables: norm, vers: make([]uint64, len(norm))}
	for i, t := range norm {
		e.vers[i] = c.vers[t]
	}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += bytes
}

// evictToFitLocked evicts least-recently-used entries until incoming more
// bytes fit under the budget.
func (c *Cache[V]) evictToFitLocked(incoming int64) {
	for c.bytes+incoming > c.budget {
		back := c.lru.Back()
		if back == nil {
			return
		}
		c.removeLocked(back.Value.(*entry))
		c.evictions++
	}
}

// Retain re-costs the live entry under key by delta bytes, provided the entry
// still holds v (compared by identity, so V must be a comparable type such as
// a pointer). It exists for values that start to pin more memory after
// admission — internal/db's results keep their encoded wire payloads from the
// first response on — so that Stats.Bytes covers everything an entry retains
// without a second budget. Growing counts as a use (the entry moves to the
// LRU front) and evicts least-recently-used entries until the budget holds
// again; an entry that alone outgrows the budget is dropped. Retain reports
// whether the entry is resident afterwards with the delta charged: false
// means the caller must not keep the extra memory alive on the entry's
// behalf. A negative delta refunds an earlier charge.
func (c *Cache[V]) Retain(key string, v V, delta int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.value != any(v) {
		return false
	}
	e.bytes += delta
	c.bytes += delta
	if e.bytes > c.budget {
		c.removeLocked(e)
		c.evictions++
		return false
	}
	c.lru.MoveToFront(e.elem)
	c.evictToFitLocked(0)
	return true
}

// Do is the single-flight read-through: it returns the cached value for key
// if fresh (hit=true); otherwise it either joins an identical in-flight
// computation (hit=true, counted as Collapsed) or runs compute itself,
// admits the result with its reported byte cost, and returns it (hit=false).
// Errors are returned to every waiter and never cached.
//
// compute runs without any cache lock held. The caller must guarantee that
// the tables read by the computation cannot change between the version
// capture at miss time and the completed computation (internal/db holds its
// statement-level read lock across Do, which excludes all DML).
func (c *Cache[V]) Do(key string, tables []string, compute func() (V, int64, error)) (V, bool, error) {
	c.mu.Lock()
	if e := c.lookupLocked(key); e != nil {
		c.hits++
		c.lru.MoveToFront(e.elem)
		v := e.value.(V)
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.collapsed++
		c.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	c.misses++
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	v, bytes, err := compute()
	f.val, f.err = v, err

	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		c.putLocked(key, v, bytes, tables)
	}
	c.mu.Unlock()
	close(f.done)
	return v, false, err
}

// The *At variants below are the MVCC-aware surface used by internal/db's
// lock-free read path. Plain Do/Put/Get assume the caller excludes writers
// for the whole lookup-compute-fill window (the pre-MVCC discipline); the
// *At variants instead key every step on an explicitly captured version
// vector — the versions the caller's snapshot pins — so they stay correct
// with writers bumping versions concurrently at any point.

// versionsAt captures verOf over the normalized table list.
func versionsAt(norm []string, verOf func(string) uint64) []uint64 {
	vers := make([]uint64, len(norm))
	for i, t := range norm {
		vers[i] = verOf(t)
	}
	return vers
}

// flightKeyAt builds the single-flight key for a computation pinned at a
// version vector: two identical statements on different snapshots must NOT
// collapse into one execution (they could legitimately need different
// results), so the fingerprint is part of the key.
func flightKeyAt(key string, vers []uint64) string {
	var b strings.Builder
	b.Grow(len(key) + 12*len(vers))
	b.WriteString(key)
	for _, v := range vers {
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(v, 36))
	}
	return b.String()
}

// matchesAt reports whether entry e was filled at exactly the given
// normalized tables and versions.
func matchesAt(e *entry, norm []string, vers []uint64) bool {
	if len(e.tables) != len(norm) {
		return false
	}
	for i, t := range e.tables {
		if t != norm[i] || e.vers[i] != vers[i] {
			return false
		}
	}
	return true
}

// currentLocked reports whether the captured versions are still the cache's
// current ones — i.e. no writer bumped any of the tables since the capture.
func (c *Cache[V]) currentLocked(norm []string, vers []uint64) bool {
	for i, t := range norm {
		if c.vers[t] != vers[i] {
			return false
		}
	}
	return true
}

// PeekAt reports whether key holds a value filled at exactly the versions
// verOf captures (the caller's snapshot), without counting a hit or a miss
// and without touching LRU order.
func (c *Cache[V]) PeekAt(key string, tables []string, verOf func(string) uint64) (V, bool) {
	norm := normTables(tables)
	vers := versionsAt(norm, verOf)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && matchesAt(e, norm, vers) {
		return e.value.(V), true
	}
	var zero V
	return zero, false
}

// PutAt admits a value computed against the versions verOf captures — but
// only if those versions are still current, i.e. no writer published past
// the caller's snapshot while the value was computed. A stale fill is
// silently dropped: it is correct for its snapshot but must not shadow (or
// be revived as) the newer state.
func (c *Cache[V]) PutAt(key string, v V, bytes int64, tables []string, verOf func(string) uint64) {
	norm := normTables(tables)
	vers := versionsAt(norm, verOf)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.currentLocked(norm, vers) {
		return
	}
	c.putLocked(key, v, bytes, tables)
}

// DoAt is the snapshot-pinned single-flight read-through: the MVCC analogue
// of Do. The caller's computation runs against a pinned snapshot whose
// per-table versions verOf reports; DoAt serves a cached value only when it
// was filled at exactly those versions, collapses concurrent identical
// misses only when they pinned the same versions, and admits the computed
// fill only when the versions are still current at fill time (a fill that
// raced a writer is returned to its caller but not cached). compute runs
// without any cache lock held and needs no external synchronization — the
// snapshot it reads is immutable.
func (c *Cache[V]) DoAt(key string, tables []string, verOf func(string) uint64, compute func() (V, int64, error)) (V, bool, error) {
	norm := normTables(tables)
	vers := versionsAt(norm, verOf)
	fkey := flightKeyAt(key, vers)
	c.mu.Lock()
	if e := c.lookupLocked(key); e != nil && matchesAt(e, norm, vers) {
		c.hits++
		c.lru.MoveToFront(e.elem)
		v := e.value.(V)
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.flights[fkey]; ok {
		c.collapsed++
		c.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	c.misses++
	f := &flight[V]{done: make(chan struct{})}
	c.flights[fkey] = f
	c.mu.Unlock()

	v, bytes, err := compute()
	f.val, f.err = v, err

	c.mu.Lock()
	delete(c.flights, fkey)
	if err == nil && c.currentLocked(norm, vers) {
		c.putLocked(key, v, bytes, tables)
	}
	c.mu.Unlock()
	close(f.done)
	return v, false, err
}

// Stats snapshots the counters and occupancy.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Evictions:     c.evictions,
		Collapsed:     c.collapsed,
		Entries:       len(c.entries),
		Bytes:         c.bytes,
		Budget:        c.budget,
	}
}
