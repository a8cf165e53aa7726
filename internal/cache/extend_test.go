package cache

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resultdb/internal/storage"
)

// extendAll is an extend that finds every appended tail harmless.
func extendAll[V any](V, []storage.Mark) bool { return true }

// noCompute fails the test if a lookup computes.
func noCompute[V any](t *testing.T) func() (V, int64, error) {
	return func() (V, int64, error) {
		t.Error("computed a value an extension should have served")
		var zero V
		return zero, 0, errNoFill
	}
}

// An entry filled at an earlier version of the same tables is offered to
// extend with the marks it was computed at; when the tail changes nothing it
// is served and re-stamped in place — same value, same charged bytes (kept
// payloads included), so it stays the entry a later exact lookup hits.
func TestDoAtExtendsPrefixEntry(t *testing.T) {
	c, w := New[*string](1<<20), new(world)
	val := new(string)
	*val = "r"
	filled := w.live()
	put(c, w, "q", val, 40)
	if !c.Retain("q", val, 24) { // a payload kept on the entry
		t.Fatal("Retain refused")
	}
	w.bump()
	w.bump()
	if _, behind, ok := c.PeekAt("q", w.live()); !ok || behind != 2 {
		t.Fatalf("PeekAt after two appended rows: behind %d ok %v, want 2 true", behind, ok)
	}

	var offered []storage.Mark
	v, hit, err := c.DoAt("q", w.live(), w.live, noCompute[*string](t), func(v *string, from []storage.Mark) bool {
		offered = from
		return v == val
	})
	if err != nil || !hit || v != val {
		t.Fatalf("extension served (%v, hit=%v, err=%v), want the entry's value as a hit", v, hit, err)
	}
	if !slices.Equal(offered, filled) {
		t.Fatalf("extend was offered %v, want the fill's marks %v", offered, filled)
	}
	st := c.Stats()
	if st.Extended != 1 || st.Hits != 1 || st.Misses != 0 || st.Invalidations != 0 || st.Entries != 1 || st.Bytes != 64 {
		t.Fatalf("after the extension: %+v, want 1 extended hit and the entry's 64 bytes", st)
	}
	if got, behind, ok := c.PeekAt("q", w.live()); !ok || behind != 0 || got != val {
		t.Fatal("the extended entry was not re-stamped at the reader's marks")
	}
	if !c.Retain("q", val, -24) {
		t.Fatal("the re-stamped entry lost its identity: its kept payload cannot be refunded")
	}
	if v, hit := get(c, w, "q"); !hit || v != val {
		t.Fatal("exact lookup after the re-stamp missed")
	}
}

// extend answering false, and marks of another lineage, fall back to the
// invalidation: the entry is discarded and the value computed.
func TestDoAtExtendRefusedInvalidates(t *testing.T) {
	c, w := New[string](1<<20), new(world)
	put(c, w, "q", "old", 8)
	w.bump()
	v, hit, err := c.DoAt("q", w.live(), w.live, func() (string, int64, error) { return "new", 8, nil },
		func(string, []storage.Mark) bool { return false })
	if err != nil || hit || v != "new" {
		t.Fatalf("refused extension: (%q, hit=%v, err=%v), want a computation", v, hit, err)
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Misses != 1 || st.Extended != 0 || st.Entries != 1 {
		t.Fatalf("after a refused extension: %+v", st)
	}

	// A re-created table: a new origin, never a prefix — extend is not asked.
	recreated := []storage.Mark{{Origin: 2, Rows: 100}}
	v, hit, err = c.DoAt("q", recreated, func() []storage.Mark { return recreated },
		func() (string, int64, error) { return "other", 8, nil },
		func(string, []storage.Mark) bool { t.Error("extend asked across lineages"); return true })
	if err != nil || hit || v != "other" {
		t.Fatalf("re-created table: (%q, hit=%v, err=%v)", v, hit, err)
	}
	if st := c.Stats(); st.Invalidations != 2 {
		t.Fatalf("re-created table did not invalidate: %+v", st)
	}
}

// A writer publishing past the reader while extend runs: the value is still
// the reader's answer, but the entry is not re-stamped at a vector that is no
// longer live — the next reader extends it from where it was.
func TestDoAtExtendRacingWriterNotRestamped(t *testing.T) {
	c, w := New[string](1<<20), new(world)
	filled := w.live()
	put(c, w, "q", "r", 8)
	w.bump()
	reader := w.live()
	v, hit, err := c.DoAt("q", reader, w.live, noCompute[string](t), func(string, []storage.Mark) bool {
		w.bump() // the writer publishes mid-check
		return true
	})
	if err != nil || !hit || v != "r" {
		t.Fatalf("(%q, hit=%v, err=%v)", v, hit, err)
	}
	if _, behind, ok := c.PeekAt("q", reader); !ok || behind != 1 {
		t.Fatal("entry re-stamped at a vector that was no longer live")
	}
	var offered []storage.Mark
	if _, hit, _ := c.DoAt("q", w.live(), w.live, noCompute[string](t), func(_ string, from []storage.Mark) bool {
		offered = from
		return true
	}); !hit || !slices.Equal(offered, filled) {
		t.Fatalf("next reader extended from %v (hit %v), want the fill's %v", offered, hit, filled)
	}
	if st := c.Stats(); st.Extended != 2 || st.Invalidations != 0 {
		t.Fatalf("%+v", st)
	}
}

// Readers pinned at the same vector share one extension (single-flight).
func TestDoAtExtensionCollapses(t *testing.T) {
	c, w := New[string](1<<20), new(world)
	put(c, w, "q", "r", 8)
	w.bump()
	gate := make(chan struct{})
	var checks atomic.Int64
	const callers = 6
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.DoAt("q", w.live(), w.live, noCompute[string](t), func(string, []storage.Mark) bool {
				checks.Add(1)
				<-gate
				return true
			})
			if err != nil || !hit || v != "r" {
				t.Errorf("(%q, hit=%v, err=%v)", v, hit, err)
			}
		}()
	}
	for c.Stats().Collapsed < callers-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := checks.Load(); n != 1 {
		t.Fatalf("%d extensions ran, want 1", n)
	}
}

// The regression: a computation (or extension) that panics must not leave its
// single-flight key poisoned. The panic reaches the caller unchanged, a
// waiter on the flight gets an error instead of blocking, and the next
// identical lookup at the same vector runs afresh.
func TestDoAtPanicReleasesFlight(t *testing.T) {
	for _, stage := range []string{"compute", "extend"} {
		t.Run(stage, func(t *testing.T) {
			c, w := New[string](1<<20), new(world)
			if stage == "extend" {
				put(c, w, "q", "old", 8)
				w.bump()
			}
			entered, release := make(chan struct{}), make(chan struct{})
			boom := func() {
				close(entered)
				<-release
				panic("boom")
			}
			compute := func() (string, int64, error) { boom(); return "", 0, nil }
			extend := func(string, []storage.Mark) bool { boom(); return true }
			if stage == "extend" {
				compute = noCompute[string](t)
			} else {
				extend = never
			}

			owner := make(chan any, 1)
			go func() {
				defer func() { owner <- recover() }()
				c.DoAt("q", w.live(), w.live, compute, extend)
			}()
			<-entered
			waiter := make(chan error, 1)
			go func() {
				_, _, err := c.DoAt("q", w.live(), w.live, noCompute[string](t), never)
				waiter <- err
			}()
			for c.Stats().Collapsed < 1 {
				runtime.Gosched()
			}
			close(release)
			if p := <-owner; p != "boom" {
				t.Fatalf("owner recovered %v, want the computation's own panic", p)
			}
			select {
			case err := <-waiter:
				if err == nil || !strings.Contains(err.Error(), "panicked") {
					t.Fatalf("waiter got %v, want the panic as an error", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("waiter still blocked on the panicked flight")
			}

			done := make(chan struct{})
			go func() {
				defer close(done)
				v, hit, err := c.DoAt("q", w.live(), w.live, func() (string, int64, error) { return "ok", 1, nil }, never)
				if err != nil || hit || v != "ok" {
					t.Errorf("lookup after the panic: (%q, hit=%v, err=%v), want a fresh computation", v, hit, err)
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("the next identical lookup blocks on the poisoned flight key")
			}
		})
	}
}
