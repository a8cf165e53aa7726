// Package cache is the semantic query-result cache of the reproduction: a
// generic, byte-budgeted LRU keyed by a normalized statement fingerprint and
// guarded by the version marks (internal/storage.Mark, its one dependency) of
// the tables the statement reads.
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
//     records the vector of table-version marks it was computed at — one
//     storage.Mark (lineage, row count) per base table the statement reads,
//     taken by the caller from the database state it pinned. A lookup carries
//     the caller's own pinned vector and is served on an exact match
//     (O(#tables), a handful of integers), so a reader never sees a result
//     older or newer than its snapshot.
//   - Writers do nothing here. A lookup that finds its entry at an earlier
//     version of the same tables — every mark of the entry a prefix of the
//     reader's: only rows were appended since — asks the caller whether the
//     appended rows change the value (DoAt's extend). If they do not, the
//     entry is re-stamped with the reader's vector, kept bytes and all; if
//     they might, or the tables were re-created, an entry whose vector is no
//     longer the live one is discarded by the lookup that finds it.
//   - Admission and eviction are cost-aware: each entry carries its measured
//     wire-encoded byte size, the cache holds a configurable byte budget, and
//     the least-recently-used entries are evicted until the new entry fits.
//     Entries larger than the whole budget are simply not admitted.
//   - Concurrent identical misses are collapsed by single-flight: the first
//     caller computes (or extends), everyone else pinned at the same vector
//     waits for that one execution and shares the value. A thundering herd of
//     N identical queries costs one execution. A computation that panics
//     releases its waiters with an error and re-panics to its own caller.
//
// The cache stores opaque values (instantiate Cache[V] with the result type);
// callers must treat returned values as immutable shared snapshots.
package cache

import (
	"container/list"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"resultdb/internal/storage"
)

// Stats is a point-in-time snapshot of the cache's counters and occupancy.
type Stats struct {
	// Hits counts lookups served from a resident entry, extended ones
	// included.
	Hits uint64
	// Misses counts lookups that found no entry (or one they could not
	// extend) and led to a computation (single-flight followers count as
	// hits-by-collapse, not misses).
	Misses uint64
	// Invalidations counts entries discarded by the lookup that found them:
	// computed at a vector that is no longer the live one, and not extended to
	// the lookup's (lazy eviction).
	Invalidations uint64
	// Extended counts lookups served by an entry computed at an earlier
	// version of the same tables, after extend showed that the rows appended
	// since change nothing; each is counted as a hit too.
	Extended uint64
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

// entry is one cached value with the vector of marks it is valid at.
type entry struct {
	key   string
	value any
	bytes int64
	at    []storage.Mark
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
// Every lookup and fill names a vector of marks: at is the vector the
// caller's snapshot pins, in an order the key determines (internal/db lists
// the statement's tables in first-appearance order), and live reports the
// same vector read from the newest committed state. live is called with the
// cache locked and must not block.
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
	extended      uint64
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
func (c *Cache[V]) putLocked(key string, v V, bytes int64, at []storage.Mark) {
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
// vector: two identical statements on different snapshots must NOT collapse
// into one execution (they could legitimately need different results), so
// the vector is part of the key.
func flightKey(key string, at []storage.Mark) string {
	var b strings.Builder
	b.Grow(len(key) + 16*len(at))
	b.WriteString(key)
	for _, m := range at {
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(m.Origin, 36))
		b.WriteByte('.')
		b.WriteString(strconv.FormatInt(int64(m.Rows), 36))
	}
	return b.String()
}

// prefixOf reports whether every mark of from is a prefix of the mark at
// the same place in at: the tables are the same incarnations, with at most
// rows appended since.
func prefixOf(from, at []storage.Mark) bool {
	if len(from) != len(at) {
		return false
	}
	for i, m := range from {
		if !m.PrefixOf(at[i]) {
			return false
		}
	}
	return true
}

// behind is how many rows the tables at have that the prefix vector from
// lacks.
func behind(from, at []storage.Mark) int {
	n := 0
	for i, m := range from {
		n += at[i].Rows - m.Rows
	}
	return n
}

// PeekAt reports whether key holds a value that a lookup at the vector at
// would find: one computed at exactly at (behind = 0), or at an earlier
// version of the same tables that DoAt would offer to extend (behind = the
// rows appended since). It counts neither a hit nor a miss and does not
// touch LRU order (EXPLAIN ANALYZE uses it to annotate the plan without
// perturbing the cache).
func (c *Cache[V]) PeekAt(key string, at []storage.Mark) (v V, behindRows int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && prefixOf(e.at, at) {
		return e.value.(V), behind(e.at, at), true
	}
	return v, 0, false
}

// PutAt admits a value computed at the vector at — but only if that is still
// the live vector, i.e. no writer published past the caller's snapshot while
// the value was computed. A stale fill is silently dropped: it is correct for
// its snapshot but must not shadow (or evict) an entry of the newer state.
func (c *Cache[V]) PutAt(key string, v V, bytes int64, at []storage.Mark, live func() []storage.Mark) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if slices.Equal(at, live()) {
		c.putLocked(key, v, bytes, at)
	}
}

// invalidateLocked discards e if its vector is no longer the live one.
func (c *Cache[V]) invalidateLocked(e *entry, live func() []storage.Mark) {
	if !slices.Equal(e.at, live()) {
		c.invalidations++
		c.removeLocked(e)
	}
}

// DoAt is the snapshot-pinned single-flight read-through. It serves a cached
// value computed at exactly the caller's vector (hit=true). Otherwise it
// either joins an in-flight identical lookup pinned at the same vector
// (hit=true, counted as Collapsed) or does the work itself:
//
//   - An entry computed at an earlier version of the same tables (every mark
//     a prefix of the caller's) is offered to extend, with the vector it was
//     computed at. If extend reports that the rows appended since leave the
//     value unchanged, the value is served (hit=true, counted as Extended),
//     and the entry, if it is still the one under the key and at's vector is
//     live, is re-stamped in place: it keeps its value, its charged bytes and
//     its LRU element (moved to the front, as any hit moves it).
//   - Failing that, compute runs and its value is returned (hit=false),
//     admitted with its reported byte cost only when the vector is still live
//     at fill time — a fill that raced a writer is returned to its caller but
//     not cached.
//
// An entry found under the key and not extended is discarded if its vector
// is no longer live (counted as an invalidation) and left alone if it is: a
// reader pinned to an older snapshot is not served it and does not evict it.
// Errors are returned to every waiter and never cached. A panic in extend or
// compute reaches the caller unchanged, after the flight is released: its
// waiters get an error, and the next identical lookup runs afresh. Both run
// without any cache lock held and need no external synchronization — the
// snapshot they read is immutable.
func (c *Cache[V]) DoAt(key string, at []storage.Mark, live func() []storage.Mark,
	compute func() (V, int64, error), extend func(v V, from []storage.Mark) bool) (V, bool, error) {
	c.mu.Lock()
	var base *entry // a resident entry at a prefix of at, offered to extend
	if e, ok := c.entries[key]; ok {
		switch {
		case slices.Equal(e.at, at):
			c.hits++
			c.lru.MoveToFront(e.elem)
			v := e.value.(V)
			c.mu.Unlock()
			return v, true, nil
		case prefixOf(e.at, at):
			base = e
		default:
			c.invalidateLocked(e, live)
		}
	}
	fkey := flightKey(key, at)
	if f, ok := c.flights[fkey]; ok {
		c.collapsed++
		c.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[fkey] = f
	var from []storage.Mark
	var old V
	if base != nil {
		from, old = base.at, base.value.(V)
	} else {
		c.misses++
	}
	c.mu.Unlock()
	defer c.releaseOnPanic(fkey, f)

	if base != nil {
		extended := extend(old, from)
		c.mu.Lock()
		resident := c.entries[key] == base && slices.Equal(base.at, from)
		switch {
		case extended:
			c.hits++
			c.extended++
			if resident && slices.Equal(at, live()) {
				base.at = at
				c.lru.MoveToFront(base.elem)
			}
			delete(c.flights, fkey)
			c.mu.Unlock()
			f.val = old
			close(f.done)
			return old, true, nil
		case resident:
			c.invalidateLocked(base, live)
		}
		c.misses++
		c.mu.Unlock()
	}

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

// releaseOnPanic, deferred by the flight's owner, lets a panic in extend or
// compute go on to the owner's caller only after the flight is deleted and
// its waiters are released with an error. Without it the flight stays
// registered with done open, and every later identical lookup at the same
// vector blocks for good.
func (c *Cache[V]) releaseOnPanic(fkey string, f *flight[V]) {
	p := recover()
	if p == nil {
		return
	}
	c.mu.Lock()
	delete(c.flights, fkey)
	c.mu.Unlock()
	var zero V
	f.val, f.err = zero, fmt.Errorf("cache: the shared computation panicked: %v", p)
	close(f.done)
	panic(p)
}

// Stats snapshots the counters and occupancy.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Extended:      c.extended,
		Evictions:     c.evictions,
		Collapsed:     c.collapsed,
		Entries:       len(c.entries),
		Bytes:         c.bytes,
		Budget:        c.budget,
	}
}
