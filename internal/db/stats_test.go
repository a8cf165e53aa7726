package db

import (
	"sync"
	"testing"

	"resultdb/internal/stats"
)

// TestStatsOneBuildPerVersion: a table version's statistics are derived once,
// under the version's own lock — N concurrent askers (the planner's path,
// under -race in verify.sh) get the same *stats.Table — and ANALYZE,
// TableStats (the shell's \stats) and the planner all read that one build. A
// commit makes a new version with its own, extended from the old ones by the
// rows it added: one tail fold per version.
func TestStatsOneBuildPerVersion(t *testing.T) {
	d := retentionDB(t)
	const n = 16
	got := make([]*stats.Table, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				got[i] = d.TableStats("item")
				return
			}
			// The planner's route: the executor's AliasStats over a
			// pinned snapshot.
			if _, err := d.Exec("SELECT RESULTDB i.val, g.label FROM item i, tag g WHERE i.id = g.item_id"); err != nil {
				t.Error(err)
			}
			got[i] = d.TableStats("item")
		}(i)
	}
	wg.Wait()
	for i, st := range got {
		if st == nil || st != got[0] {
			t.Fatalf("asker %d got %p, asker 0 got %p: more than one build for one version", i, st, got[0])
		}
	}
	if got[0].Rows != 4 || got[0].Col("val").NDV != 4 {
		t.Fatalf("statistics wrong: %+v", got[0])
	}

	res, err := d.Exec("ANALYZE item")
	if err != nil || res.Affected != 1 {
		t.Fatalf("ANALYZE item = (%+v, %v)", res, err)
	}
	if d.TableStats("item") != got[0] {
		t.Fatal("ANALYZE rebuilt the statistics of an unchanged version")
	}
	if d.TableStats("nosuch") != nil {
		t.Fatal("statistics for a table that does not exist")
	}

	if _, err := d.Exec("INSERT INTO item VALUES (5, 50)"); err != nil {
		t.Fatal(err)
	}
	if !carriesStats(t, d, "item") {
		t.Fatal("the new version derived its statistics from row 0, not from the old version's")
	}
	if res, err := d.Exec("ANALYZE"); err != nil || res.Affected != 2 {
		t.Fatalf("ANALYZE = (%+v, %v)", res, err)
	}
	after := d.TableStats("item")
	if after == got[0] || after.Rows != 5 {
		t.Fatalf("new version shares the old one's statistics: %+v", after)
	}
}
