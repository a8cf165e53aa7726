package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetPutHitMiss(t *testing.T) {
	c := New[string](1 << 20)
	if _, ok := c.Get("k"); ok {
		t.Fatal("empty cache should miss")
	}
	c.Put("k", "v", 10, []string{"T1", "t2"})
	v, ok := c.Get("k")
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
	c.Put("q", 7, 1, []string{"movies", "cast"})

	// Bumping an unrelated table must not invalidate.
	c.Bump("other")
	if _, ok := c.Get("q"); !ok {
		t.Fatal("bump of unrelated table invalidated entry")
	}

	// Case-insensitive bump of a referenced table invalidates.
	c.Bump("MOVIES")
	if _, ok := c.Get("q"); ok {
		t.Fatal("stale entry served after bump")
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
	// A Put that races behind a Bump must come back fresh: Put records the
	// *current* versions.
	c := New[int](1 << 20)
	c.Bump("t")
	c.Put("q", 1, 1, []string{"t"})
	if _, ok := c.Get("q"); !ok {
		t.Fatal("entry filled after bump should be fresh")
	}
}

func TestCostAwareLRUEviction(t *testing.T) {
	c := New[int](100)
	c.Put("a", 1, 40, []string{"t"})
	c.Put("b", 2, 40, []string{"t"})
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be present")
	}
	c.Put("c", 3, 40, []string{"t"})
	if _, ok := c.Peek("b"); ok {
		t.Fatal("LRU entry b should have been evicted")
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("recently used entry a should survive")
	}
	if _, ok := c.Peek("c"); !ok {
		t.Fatal("new entry c should be admitted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 80 || st.Entries != 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestOversizedNotAdmitted(t *testing.T) {
	c := New[int](100)
	c.Put("small", 1, 10, []string{"t"})
	c.Put("huge", 2, 101, []string{"t"})
	if _, ok := c.Peek("huge"); ok {
		t.Fatal("oversized entry admitted")
	}
	if _, ok := c.Peek("small"); !ok {
		t.Fatal("oversized put evicted unrelated entries")
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("oversized put should not evict, got %+v", st)
	}
}

func TestRetainRecostsWithinBudget(t *testing.T) {
	c := New[*int](100)
	a, b, other := new(int), new(int), new(int)
	c.Put("a", a, 40, []string{"t"})
	c.Put("b", b, 40, []string{"t"})

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
	if _, ok := c.Peek("b"); ok {
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
	c := New[int](100)
	c.Put("a", 1, 40, []string{"t"})
	c.Put("b", 2, 40, []string{"t"})
	c.SetBudget(50)
	st := c.Stats()
	if st.Bytes > 50 || st.Entries != 1 {
		t.Fatalf("shrink did not evict: %+v", st)
	}
}

func TestClear(t *testing.T) {
	c := New[int](100)
	c.Put("a", 1, 10, []string{"t"})
	c.Clear()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("clear left entries: %+v", st)
	}
	// Version counters survive a clear.
	c.Bump("t")
	c.Put("a", 1, 10, []string{"t"})
	if _, ok := c.Get("a"); !ok {
		t.Fatal("post-clear put should be fresh")
	}
}

func TestDoComputesOnceAndCaches(t *testing.T) {
	c := New[string](1 << 20)
	calls := 0
	compute := func() (string, int64, error) {
		calls++
		return "r", 5, nil
	}
	v, hit, err := c.Do("k", []string{"t"}, compute)
	if err != nil || hit || v != "r" {
		t.Fatalf("first Do: v=%q hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.Do("k", []string{"t"}, compute)
	if err != nil || !hit || v != "r" {
		t.Fatalf("second Do: v=%q hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New[string](1 << 20)
	boom := errors.New("boom")
	_, _, err := c.Do("k", []string{"t"}, func() (string, int64, error) { return "", 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error result cached: %+v", st)
	}
	// Next Do recomputes.
	v, hit, err := c.Do("k", []string{"t"}, func() (string, int64, error) { return "ok", 1, nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("recompute after error: v=%q hit=%v err=%v", v, hit, err)
	}
}

func TestSingleFlightCollapsesThunderingHerd(t *testing.T) {
	c := New[int](1 << 20)
	const n = 32
	var calls atomic.Int64
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("k", []string{"t"}, func() (int, int64, error) {
				calls.Add(1)
				// Hold the flight open until all other callers have joined
				// it, so every one of them is provably collapsed (followers
				// bump Collapsed before blocking on the flight).
				for c.Stats().Collapsed < n-1 {
					runtime.Gosched()
				}
				return 42, 1, nil
			})
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
	// Hammer the cache from many goroutines mixing Do, Get, Bump, Stats and
	// SetBudget; the race detector (verify.sh runs this package under -race)
	// is the assertion.
	c := New[int](1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("q%d", i%7)
				switch i % 5 {
				case 0:
					c.Bump(fmt.Sprintf("t%d", i%3))
				case 1:
					c.Get(key)
				case 2:
					c.Stats()
				default:
					c.Do(key, []string{"t0", "t1"}, func() (int, int64, error) {
						return g*1000 + i, 64, nil
					})
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNormTables(t *testing.T) {
	got := normTables([]string{"B", "a", "b", "A", "c"})
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}
