package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"resultdb/internal/storage"
)

// world stands in for the database's newest committed state: the live mark
// of the one table every test statement reads. A writer's commit is bump: one
// more row in the same lineage.
type world struct{ v atomic.Int64 }

func (w *world) live() []storage.Mark { return []storage.Mark{{Origin: 1, Rows: int(w.v.Load())}} }
func (w *world) bump()                { w.v.Add(1) }

// put fills key at the live vector, as a reader that raced no writer would.
func put[V any](c *Cache[V], w *world, key string, v V, bytes int64) {
	c.PutAt(key, v, bytes, w.live(), w.live)
}

// get is a counted lookup at the live vector that never fills.
func get[V any](c *Cache[V], w *world, key string) (V, bool) {
	v, hit, _ := c.DoAt(key, w.live(), w.live, func() (V, int64, error) {
		var zero V
		return zero, 0, errNoFill
	}, never)
	return v, hit
}

var errNoFill = errors.New("lookup only")

// never is an extend that finds every appended tail relevant: an entry not
// at the lookup's exact vector is never served.
func never[V any](V, []storage.Mark) bool { return false }

// peek is an uncounted lookup at the live vector.
func peek[V any](c *Cache[V], w *world, key string) bool {
	_, behind, ok := c.PeekAt(key, w.live())
	return ok && behind == 0
}

func TestGetPutHitMiss(t *testing.T) {
	c, w := New[string](1<<20), new(world)
	if _, ok := get(c, w, "k"); ok {
		t.Fatal("empty cache should miss")
	}
	put(c, w, "k", "v", 10)
	v, ok := get(c, w, "k")
	if !ok || v != "v" {
		t.Fatalf("want hit with v, got %q ok=%v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 10 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestVersionInvalidation(t *testing.T) {
	c := New[int](1 << 20)
	// Two tables; the cache sees only their marks, in the statement's order.
	cur := []storage.Mark{{Origin: 4, Rows: 2}, {Origin: 9, Rows: 5}}
	live := func() []storage.Mark { return cur }
	lookup := func() bool {
		_, hit, _ := c.DoAt("q", live(), live, func() (int, int64, error) { return 0, 0, errNoFill }, never)
		return hit
	}
	c.PutAt("q", 7, 1, cur, live)
	if !lookup() {
		t.Fatal("entry not served at the vector it was filled at")
	}

	// A new version of either table makes the entry stale: the lookup that
	// finds it discards it (this lookup offers nothing to extend it with).
	cur = []storage.Mark{{Origin: 4, Rows: 2}, {Origin: 9, Rows: 6}}
	if lookup() {
		t.Fatal("stale entry served after a table moved on")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("want 1 invalidation, got %+v", st)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stale entry not discarded: %+v", st)
	}
}

func TestBumpBetweenPutAndGet(t *testing.T) {
	// A fill computed after a commit carries the new vector and is fresh.
	c, w := New[int](1<<20), new(world)
	w.bump()
	put(c, w, "q", 1, 1)
	if _, ok := get(c, w, "q"); !ok {
		t.Fatal("entry filled after bump should be fresh")
	}
}

// A reader pinned to an older snapshot is not served the newer entry, does
// not evict it, and its own fill is not admitted over it.
func TestDoAtOlderPinLeavesNewerEntry(t *testing.T) {
	c, w := New[string](1<<20), new(world)
	pinned := w.live()
	w.bump()
	put(c, w, "q", "new", 8)

	v, hit, err := c.DoAt("q", pinned, w.live, func() (string, int64, error) { return "old", 8, nil }, extendAll)
	if err != nil || hit || v != "old" {
		t.Fatalf("pinned reader got (%q, hit=%v, err=%v), want its own computation", v, hit, err)
	}
	if got, behind, ok := c.PeekAt("q", w.live()); !ok || behind != 0 || got != "new" {
		t.Fatal("older pin evicted or replaced the newer entry")
	}
	if _, _, ok := c.PeekAt("q", pinned); ok {
		t.Fatal("older pin's fill was admitted")
	}
	if st := c.Stats(); st.Invalidations != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want the one newer entry and no invalidation", st)
	}
}

func TestCostAwareLRUEviction(t *testing.T) {
	c, w := New[int](100), new(world)
	put(c, w, "a", 1, 40)
	put(c, w, "b", 2, 40)
	// Touch "a" so "b" is the LRU victim.
	if _, ok := get(c, w, "a"); !ok {
		t.Fatal("a should be present")
	}
	put(c, w, "c", 3, 40)
	if peek(c, w, "b") {
		t.Fatal("LRU entry b should have been evicted")
	}
	if !peek(c, w, "a") {
		t.Fatal("recently used entry a should survive")
	}
	if !peek(c, w, "c") {
		t.Fatal("new entry c should be admitted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 80 || st.Entries != 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestOversizedNotAdmitted(t *testing.T) {
	c, w := New[int](100), new(world)
	put(c, w, "small", 1, 10)
	put(c, w, "huge", 2, 101)
	if peek(c, w, "huge") {
		t.Fatal("oversized entry admitted")
	}
	if !peek(c, w, "small") {
		t.Fatal("oversized put evicted unrelated entries")
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("oversized put should not evict, got %+v", st)
	}
}

func TestRetainRecostsWithinBudget(t *testing.T) {
	c, w := New[*int](100), new(world)
	a, b, other := new(int), new(int), new(int)
	put(c, w, "a", a, 40)
	put(c, w, "b", b, 40)

	// Only the value the entry holds may re-cost it.
	if c.Retain("a", other, 10) || c.Retain("missing", a, 10) {
		t.Fatal("Retain charged an entry it does not describe")
	}
	if st := c.Stats(); st.Bytes != 80 {
		t.Fatalf("refused Retain moved the accounting: %+v", st)
	}

	// Growth that fits is charged, and refunded by a negative delta.
	if !c.Retain("a", a, 15) {
		t.Fatal("Retain refused growth that fits the budget")
	}
	if st := c.Stats(); st.Bytes != 95 || st.Entries != 2 {
		t.Fatalf("after +15: %+v", st)
	}
	if !c.Retain("a", a, -15) {
		t.Fatal("refund refused")
	}

	// Growth past the budget evicts the least recently used *other* entry:
	// growing counts as a use of the grown one.
	if !c.Retain("a", a, 30) {
		t.Fatal("Retain refused growth that fits after evicting b")
	}
	if peek(c, w, "b") {
		t.Fatal("b should have been evicted to make room for a's growth")
	}
	if st := c.Stats(); st.Bytes != 70 || st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("after growing a past b: %+v", st)
	}

	// An entry that alone outgrows the budget is dropped and says so.
	if c.Retain("a", a, 31) {
		t.Fatal("Retain kept an entry larger than the whole budget")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 || st.Evictions != 2 {
		t.Fatalf("after outgrowing the budget: %+v", st)
	}
}

func TestSetBudgetShrinkEvicts(t *testing.T) {
	c, w := New[int](100), new(world)
	put(c, w, "a", 1, 40)
	put(c, w, "b", 2, 40)
	c.SetBudget(50)
	st := c.Stats()
	if st.Bytes > 50 || st.Entries != 1 {
		t.Fatalf("shrink did not evict: %+v", st)
	}
}

func TestClear(t *testing.T) {
	c, w := New[int](100), new(world)
	put(c, w, "a", 1, 10)
	c.Clear()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("clear left entries: %+v", st)
	}
	if peek(c, w, "a") {
		t.Fatal("cleared entry still visible")
	}
	put(c, w, "a", 1, 10)
	if _, ok := get(c, w, "a"); !ok {
		t.Fatal("post-clear put should be fresh")
	}
}

func TestDoComputesOnceAndCaches(t *testing.T) {
	c, w := New[string](1<<20), new(world)
	calls := 0
	compute := func() (string, int64, error) {
		calls++
		return "r", 5, nil
	}
	v, hit, err := c.DoAt("k", w.live(), w.live, compute, never)
	if err != nil || hit || v != "r" {
		t.Fatalf("first DoAt: v=%q hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.DoAt("k", w.live(), w.live, compute, never)
	if err != nil || !hit || v != "r" {
		t.Fatalf("second DoAt: v=%q hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c, w := New[string](1<<20), new(world)
	boom := errors.New("boom")
	_, _, err := c.DoAt("k", w.live(), w.live, func() (string, int64, error) { return "", 0, boom }, never)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error result cached: %+v", st)
	}
	// The next lookup recomputes.
	v, hit, err := c.DoAt("k", w.live(), w.live, func() (string, int64, error) { return "ok", 1, nil }, never)
	if err != nil || hit || v != "ok" {
		t.Fatalf("recompute after error: v=%q hit=%v err=%v", v, hit, err)
	}
}

func TestSingleFlightCollapsesThunderingHerd(t *testing.T) {
	c, w := New[int](1<<20), new(world)
	const n = 32
	var calls atomic.Int64
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.DoAt("k", w.live(), w.live, func() (int, int64, error) {
				calls.Add(1)
				// Hold the flight open until all other callers have joined
				// it, so every one of them is provably collapsed (followers
				// bump Collapsed before blocking on the flight).
				for c.Stats().Collapsed < n-1 {
					runtime.Gosched()
				}
				return 42, 1, nil
			}, never)
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("thundering herd executed %d times, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Collapsed != n-1 {
		t.Fatalf("want 1 miss / %d collapsed, got %+v", n-1, st)
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	// Hammer the cache from many goroutines mixing DoAt (extending or not),
	// PeekAt, PutAt, commits, Stats and SetBudget; the race detector
	// (verify.sh runs this package under -race) is the assertion.
	c, w := New[int](1<<12), new(world)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("q%d", i%7)
				switch i % 6 {
				case 0:
					w.bump()
				case 1:
					c.PeekAt(key, w.live())
				case 2:
					c.Stats()
				case 3:
					c.SetBudget(int64(1<<12 - i))
				case 4:
					put(c, w, key, i, 64)
				default:
					c.DoAt(key, w.live(), w.live, func() (int, int64, error) {
						return g*1000 + i, 64, nil
					}, func(int, []storage.Mark) bool { return i%4 == 1 })
				}
			}
		}(g)
	}
	wg.Wait()
}
