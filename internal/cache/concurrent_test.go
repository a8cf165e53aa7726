package cache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The MVCC regression the *At surface exists for: a reader pins a snapshot,
// misses, and starts computing; a writer publishes (a new table version)
// before the fill lands. The fill is correct for the reader and must
// be returned to it — but it must NOT be admitted, or a later reader on the
// new version would be served the stale result.
func TestDoAtStaleFillReturnedNotAdmitted(t *testing.T) {
	c, w := New[string](1<<20), new(world)
	pinned := w.live() // the reader's pinned versions

	started := make(chan struct{})
	release := make(chan struct{})
	type out struct {
		v   string
		hit bool
		err error
	}
	done := make(chan out, 1)
	go func() {
		v, hit, err := c.DoAt("q", pinned, w.live, func() (string, int64, error) {
			close(started)
			<-release
			return "old", 8, nil
		}, never)
		done <- out{v, hit, err}
	}()

	<-started
	w.bump() // the writer publishes mid-compute
	close(release)

	got := <-done
	if got.err != nil || got.hit || got.v != "old" {
		t.Fatalf("racing reader got (%q, hit=%v, err=%v), want its own fill", got.v, got.hit, got.err)
	}
	// The stale fill must not be visible to any version of the world.
	if _, ok := get(c, w, "q"); ok {
		t.Fatal("stale fill was admitted")
	}
	if _, _, ok := c.PeekAt("q", pinned); ok {
		t.Fatal("stale fill visible at the old snapshot")
	}
	if peek(c, w, "q") {
		t.Fatal("stale fill visible at the new version")
	}
	// A reader on the new version recomputes — and that fill IS admitted.
	v, hit, err := c.DoAt("q", w.live(), w.live, func() (string, int64, error) {
		return "new", 8, nil
	}, never)
	if err != nil || hit || v != "new" {
		t.Fatalf("post-bump DoAt = (%q, %v, %v)", v, hit, err)
	}
	if v, _, ok := c.PeekAt("q", w.live()); !ok || v != "new" {
		t.Fatal("current-version fill not admitted")
	}
	// Two real computations (the stale one and the recompute) plus the get
	// probe above; exactly one entry survives.
	st := c.Stats()
	if st.Entries != 1 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 1 entry and 3 misses", st)
	}
}

// Identical statements pinned at the same snapshot single-flight: one
// computation, everyone shares it.
func TestDoAtCollapsesSameSnapshot(t *testing.T) {
	c, w := New[string](1<<20), new(world)
	var computes atomic.Int64
	gate := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	results := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.DoAt("q", w.live(), w.live, func() (string, int64, error) {
				computes.Add(1)
				<-gate
				return "shared", 8, nil
			}, never)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Let callers pile onto the flight, then release the one computation.
	for c.Stats().Collapsed < callers-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computations, want 1 (single-flight)", n)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("caller %d got %q", i, v)
		}
	}
}

// Identical statements pinned at DIFFERENT snapshots must not collapse: they
// can legitimately require different results.
func TestDoAtDistinctSnapshotsDoNotCollapse(t *testing.T) {
	c, w := New[string](1<<20), new(world)
	pinned := w.live()

	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.DoAt("q", pinned, w.live, func() (string, int64, error) {
			close(started)
			<-release
			return "old-world", 8, nil
		}, never)
		if err != nil || v != "old-world" {
			t.Errorf("old-snapshot caller: (%q, %v)", v, err)
		}
	}()

	<-started
	w.bump()
	// With the old-snapshot flight still in progress, a new-snapshot caller
	// must run its own computation rather than wait and share stale bytes.
	v, hit, err := c.DoAt("q", w.live(), w.live, func() (string, int64, error) {
		return "new-world", 8, nil
	}, never)
	if err != nil || hit || v != "new-world" {
		t.Fatalf("new-snapshot caller joined the old flight: (%q, hit=%v, err=%v)", v, hit, err)
	}
	close(release)
	wg.Wait()
	if got := c.Stats().Collapsed; got != 0 {
		t.Fatalf("Collapsed = %d, want 0", got)
	}
}
