// Package cache is the semantic query-result cache of the reproduction: a
// zero-dependency (stdlib-only), generic, byte-budgeted LRU keyed by a
// normalized statement fingerprint and guarded by the version vector of the
// tables the statement reads.
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
//   - The cache knows no table names and keeps no counters. Every entry
//     records the version vector it was computed at — one number per base
//     table the statement reads, taken by the caller from the database state
//     it pinned (internal/db: storage.Table.Version). A lookup carries the
//     caller's own pinned vector and is served only on an exact match
//     (O(#tables), a handful of integers), so a reader never sees a result
//     newer or older than its snapshot. Writers do nothing here: an entry
//     whose vector is no longer the live one is discarded lazily, by the
//     lookup that finds it.
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
	"slices"
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
	// Invalidations counts lookups that found an entry whose version vector
	// is no longer the live one; the entry is discarded at that moment (lazy
	// eviction).
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

// entry is one cached value with the version vector it was computed at.
type entry struct {
	key   string
	value any
	bytes int64
	at    []uint64
	elem  *list.Element
}

// flight is one in-progress computation other callers can wait on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a versioned, byte-budgeted, single-flight LRU. All methods are
// safe for concurrent use. The zero value is not usable; construct with New.
//
// Every lookup and fill names a version vector: at is the vector the caller's
// snapshot pins, in an order the key determines (internal/db lists the
// statement's tables in first-appearance order), and live reports the same
// vector read from the newest committed state. live is called with the cache
// locked and must not block.
type Cache[V any] struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[string]*entry
	lru     *list.List // front = most recently used
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

// Clear drops every entry.
func (c *Cache[V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*entry)
	c.lru.Init()
	c.bytes = 0
}

// removeLocked drops e from the map, the LRU list, and the byte accounting.
func (c *Cache[V]) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
}

// putLocked admits v under key at vector at. Oversized values (bytes >
// budget) are not admitted; otherwise LRU entries are evicted until the value
// fits. An entry already under the key is replaced.
func (c *Cache[V]) putLocked(key string, v V, bytes int64, at []uint64) {
	if bytes > c.budget {
		return
	}
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old)
	}
	c.evictToFitLocked(bytes)
	e := &entry{key: key, value: v, bytes: bytes, at: at}
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

// flightKey builds the single-flight key for a computation pinned at a
// version vector: two identical statements on different snapshots must NOT
// collapse into one execution (they could legitimately need different
// results), so the vector is part of the key.
func flightKey(key string, at []uint64) string {
	var b strings.Builder
	b.Grow(len(key) + 12*len(at))
	b.WriteString(key)
	for _, v := range at {
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(v, 36))
	}
	return b.String()
}

// PeekAt reports whether key holds a value computed at exactly the vector at,
// without counting a hit or a miss and without touching LRU order (used by
// EXPLAIN ANALYZE to annotate the plan without perturbing the cache).
func (c *Cache[V]) PeekAt(key string, at []uint64) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && slices.Equal(e.at, at) {
		return e.value.(V), true
	}
	var zero V
	return zero, false
}

// PutAt admits a value computed at the vector at — but only if that is still
// the live vector, i.e. no writer published past the caller's snapshot while
// the value was computed. A stale fill is silently dropped: it is correct for
// its snapshot but must not shadow (or evict) an entry of the newer state.
func (c *Cache[V]) PutAt(key string, v V, bytes int64, at []uint64, live func() []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if slices.Equal(at, live()) {
		c.putLocked(key, v, bytes, at)
	}
}

// DoAt is the snapshot-pinned single-flight read-through. It serves a cached
// value only when it was computed at exactly the caller's vector (hit=true);
// otherwise it either joins an in-flight identical computation pinned at the
// same vector (hit=true, counted as Collapsed) or runs compute itself and
// returns its value (hit=false), admitting it with its reported byte cost
// only when the vector is still live at fill time — a fill that raced a
// writer is returned to its caller but not cached. An entry found under the
// key at another vector is discarded if that vector is no longer live
// (counted as an invalidation) and left alone if it is: a reader pinned to an
// older snapshot is not served it and does not evict it. Errors are returned
// to every waiter and never cached. compute runs without any cache lock held
// and needs no external synchronization — the snapshot it reads is immutable.
func (c *Cache[V]) DoAt(key string, at []uint64, live func() []uint64, compute func() (V, int64, error)) (V, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if slices.Equal(e.at, at) {
			c.hits++
			c.lru.MoveToFront(e.elem)
			v := e.value.(V)
			c.mu.Unlock()
			return v, true, nil
		}
		if !slices.Equal(e.at, live()) {
			c.invalidations++
			c.removeLocked(e)
		}
	}
	fkey := flightKey(key, at)
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
	if err == nil && slices.Equal(at, live()) {
		c.putLocked(key, v, bytes, at)
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
