package db

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"resultdb/internal/stats"
	"resultdb/internal/storage"
)

// Version retention (part of the MVCC gate): a superseded table version — and
// with it its frame's column headers and its statistics — must be reachable
// from pinned snapshots only. A version shares its vectors' and dictionaries'
// backing arrays with its successors, and the TEXT leg (tag.label) checks that
// sharing them pins nothing: the live version references the arrays, never the
// older version or its headers. The result cache and the statistics both
// remember a statement executed once against version 1 of a table — the
// statistics are carried from version to version as the base each successor
// extends — and neither may keep that *storage.Table alive after K later
// commits, while a Session.Pin() taken at version 1 must, until Unpin.
//
// (A stale result-cache entry may keep its own result's column vectors until
// it is looked up or evicted; that is the entry's budgeted cost, not a pinned
// table version.) An entry that the cache extends across later versions,
// because the rows they append join nothing, is re-stamped with marks —
// values, not versions — so it keeps none of the versions it passed either.

const retentionCommits = 8

// retentionDB builds a two-table database with the cache on and every piece
// of per-version derived state in use.
func retentionDB(t *testing.T) *Database {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CacheEnabled = true
	cfg.Parallelism = 1
	d := Open(cfg)
	if _, err := d.ExecScript(`
CREATE TABLE item (id INT PRIMARY KEY, val INT);
CREATE TABLE tag (id INT PRIMARY KEY, item_id INT, label TEXT);
INSERT INTO item VALUES (1, 10), (2, 20), (3, 30), (4, 40);
INSERT INTO tag VALUES (1, 1, 'a'), (2, 1, 'b'), (3, 3, 'c'), (4, 4, 'd');`); err != nil {
		t.Fatal(err)
	}
	return d
}

// trackVersion arms a finalizer on the newest committed version of a table
// and returns the flag it sets. It does not hand the pointer back, so the
// caller's frame cannot be what keeps the version alive.
//
//go:noinline
func trackVersion(t *testing.T, d *Database, name string) *atomic.Bool {
	t.Helper()
	tab, err := d.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	collected := new(atomic.Bool)
	runtime.SetFinalizer(tab, func(*storage.Table) { collected.Store(true) })
	return collected
}

// runOnceAtCurrentVersion executes a statement that is never executed again,
// leaving behind everything a statement leaves: a result-cache entry, and the
// version's frame and statistics.
func runOnceAtCurrentVersion(t *testing.T, d *Database, tag string) {
	t.Helper()
	entries := d.CacheStats().Entries
	q := fmt.Sprintf("SELECT RESULTDB i.val, g.label FROM item i, tag g WHERE i.id = g.item_id AND i.val > %s", tag)
	if _, err := d.Exec(q); err != nil {
		t.Fatal(err)
	}
	if got := d.CacheStats().Entries; got != entries+1 {
		t.Fatalf("statement left %d cache entries, want %d", got, entries+1)
	}
	if d.TableStats("item") == nil {
		t.Fatal("no statistics for item")
	}
}

// carriesStats reports whether the newest version of name was handed an
// ancestor's statistics to extend: it derives the version's own from them.
func carriesStats(t *testing.T, d *Database, name string) bool {
	t.Helper()
	tab, err := d.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	carried := false
	tab.Stats(func(tab *storage.Table, base any) any {
		b, _ := base.(*stats.Table)
		carried = b != nil
		return stats.Fold(tab, b)
	})
	return carried
}

// commitItems publishes K successor versions of item and of tag; the tag rows
// alternate between a label the dictionary already holds and a fresh one.
func commitItems(t *testing.T, d *Database, from int) {
	t.Helper()
	for k := 0; k < retentionCommits; k++ {
		if _, err := d.Exec(fmt.Sprintf("INSERT INTO item VALUES (%d, %d)", from+k, from+k)); err != nil {
			t.Fatal(err)
		}
		label := "a"
		if k%2 == 1 {
			label = fmt.Sprintf("l%d", from+k)
		}
		if _, err := d.Exec(fmt.Sprintf("INSERT INTO tag VALUES (%d, 1, '%s')", from+k, label)); err != nil {
			t.Fatal(err)
		}
	}
}

// collectedAfterGC runs up to tries collections, yielding to the finalizer
// goroutine after each, and reports whether the tracked version was freed.
func collectedAfterGC(collected *atomic.Bool, tries int) bool {
	for i := 0; i < tries && !collected.Load(); i++ {
		runtime.GC()
		runtime.Gosched()
	}
	return collected.Load()
}

func TestMVCCVersionRetention(t *testing.T) {
	d := retentionDB(t)

	// No pin: K commits later nothing may still reach version 1 — not even
	// its statistics, which every successor carried as its base.
	runOnceAtCurrentVersion(t, d, "5")
	v1, text1 := trackVersion(t, d, "item"), trackVersion(t, d, "tag")
	commitItems(t, d, 100)
	if !collectedAfterGC(v1, 200) {
		t.Fatal("superseded table version still reachable with no session pinning it")
	}
	if !collectedAfterGC(text1, 200) {
		t.Fatal("superseded version of a table with a TEXT column still reachable: the shared dictionary pins it")
	}
	if !carriesStats(t, d, "item") || !carriesStats(t, d, "tag") {
		t.Fatal("the newest versions were not handed the statistics built at version 1")
	}

	// Pinned: the session's snapshot is the one legitimate holder.
	pinned := d.NewSession()
	pinned.Pin()
	runOnceAtCurrentVersion(t, d, "6")
	held, heldText := trackVersion(t, d, "item"), trackVersion(t, d, "tag")
	commitItems(t, d, 200)
	if collectedAfterGC(held, 10) || heldText.Load() {
		t.Fatal("table version collected while a pinned session holds it")
	}
	res, err := pinned.Exec("SELECT i.id FROM item i")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.First().NumRows(); got != 4+retentionCommits {
		t.Fatalf("pinned session sees %d rows, want %d", got, 4+retentionCommits)
	}
	labels, err := pinned.Exec("SELECT g.label FROM tag g")
	if err != nil {
		t.Fatal(err)
	}
	if got := labels.First().NumRows(); got != 4+retentionCommits {
		t.Fatalf("pinned session sees %d tag rows, want %d", got, 4+retentionCommits)
	}
	pinned.Unpin()
	if !collectedAfterGC(held, 200) || !collectedAfterGC(heldText, 200) {
		t.Fatal("table version still reachable after Unpin")
	}

	// Extended: one statement read after each of ten dangling commits (tags of
	// an item that does not exist) is served by extending its one entry every
	// time, and that entry pins no version it was filled or extended at.
	const extended = "SELECT RESULTDB i.val, g.label FROM item i, tag g WHERE i.id = g.item_id AND i.val > 7"
	if _, err := d.Exec(extended); err != nil {
		t.Fatal(err)
	}
	filled := trackVersion(t, d, "tag")
	before := d.CacheStats()
	var passed []*atomic.Bool
	for k := 0; k < 10; k++ {
		if _, err := d.Exec(fmt.Sprintf("INSERT INTO tag VALUES (%d, 999999, 'dangling%d')", 5000+k, k)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Exec(extended); err != nil {
			t.Fatal(err)
		}
		if k < 9 {
			passed = append(passed, trackVersion(t, d, "tag"))
		}
	}
	if st := d.CacheStats(); st.Extended != before.Extended+10 || st.Misses != before.Misses {
		t.Fatalf("ten dangling commits: want ten extensions and no recomputation, got %+v -> %+v", before, st)
	}
	if !collectedAfterGC(filled, 200) {
		t.Fatal("the version an extended entry was filled at is still reachable")
	}
	for k, v := range passed {
		if !collectedAfterGC(v, 200) {
			t.Fatalf("version %d an entry was extended across is still reachable", k+1)
		}
	}
}
