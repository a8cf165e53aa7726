package stats_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/stats"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// extDef is the schema the extension tests grow: an INTEGER key, a TEXT
// label, a DOUBLE, and an INTEGER that is mostly NULL.
func extDef() *catalog.TableDef {
	return catalog.MustTableDef("ext", []catalog.Column{
		{Name: "k", Type: types.KindInt},
		{Name: "s", Type: types.KindText},
		{Name: "x", Type: types.KindFloat},
		{Name: "n", Type: types.KindInt},
	})
}

// extRow is a row of extDef drawn from rng: keys below keys, labels below
// labels (the dictionary grows as new ones turn up), NULLs here and there.
func extRow(rng *rand.Rand, keys, labels int) types.Row {
	row := types.Row{
		types.NewInt(int64(rng.Intn(keys))),
		types.NewText(fmt.Sprintf("l%d", rng.Intn(labels))),
		types.NewFloat(float64(rng.Intn(1000)) / 8),
		types.Null(),
	}
	if rng.Intn(8) == 0 {
		row[rng.Intn(3)] = types.Null()
	}
	if rng.Intn(5) == 0 {
		row[3] = types.NewInt(int64(rng.Intn(40)))
	}
	return row
}

// insertRows appends rows to v one Insert at a time, as an INSERT statement
// fills its draft (each Insert re-stamps the version).
func insertRows(t *testing.T, v *storage.Table, rows ...types.Row) {
	t.Helper()
	for _, r := range rows {
		if err := v.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
}

// check asks for v's statistics the way the planner does and compares them
// with the row-wise definition over v's rows.
func check(t *testing.T, v *storage.Table) *stats.Table {
	t.Helper()
	st := stats.Of(v)
	matchesRowwise(t, v, st)
	return st
}

// derive asks for v's statistics like stats.Of, also reporting the base the
// version handed the fold.
func derive(v *storage.Table) (st *stats.Table, handed any) {
	st = v.Stats(func(t *storage.Table, base any) any {
		handed = base
		b, _ := base.(*stats.Table)
		return stats.Fold(t, b)
	}).(*stats.Table)
	return st, handed
}

// TestStatsExtendMatchesFreshBuild: statistics extend with their version —
// each version folds only its own new rows into a copy of the newest
// statistics built along its lineage — and whatever history led to a
// version, its statistics equal a fresh build over its rows, sketch state
// included. A seeded random history (drafts published or discarded, direct
// inserts, statistics asked for at random points, mid-draft, or only long
// after) and named legs for the corners.
func TestStatsExtendMatchesFreshBuild(t *testing.T) {
	t.Run("random-history", func(t *testing.T) {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			keys, labels := 1+rng.Intn(3000), 1+rng.Intn(200)
			cur := storage.NewTable(extDef())
			var late []*storage.Table // versions first asked at the end
			for step := 0; step < 30; step++ {
				switch rng.Intn(4) {
				case 0: // direct insert batch: re-stamps in place
					rows := make([]types.Row, 1+rng.Intn(60))
					for i := range rows {
						rows[i] = extRow(rng, keys, labels)
					}
					if err := cur.InsertAll(rows); err != nil {
						t.Fatal(err)
					}
				default: // a draft, published or discarded
					d := cur.BeginVersion()
					for n := 1 + rng.Intn(60); n > 0; n-- {
						insertRows(t, d, extRow(rng, keys, labels))
						if rng.Intn(40) == 0 {
							check(t, d) // mid-draft: the next Insert demotes them to base
						}
					}
					if rng.Intn(4) == 0 {
						if rng.Intn(2) == 0 {
							check(t, d)
						}
						continue // discarded; the next draft overwrites its rows
					}
					cur = d
				}
				switch rng.Intn(3) {
				case 0:
					check(t, cur)
				case 1:
					late = append(late, cur)
				}
			}
			for _, v := range late {
				check(t, v)
			}
		}
	})

	t.Run("hll-switch-in-tail", func(t *testing.T) {
		// 8 188 distinct keys in the base, 8 more in the tail: the sketch's
		// exact phase (8 192) overflows inside the extension.
		v := storage.NewTable(extDef())
		for i := 0; i < 8188; i++ {
			insertRows(t, v, types.Row{types.NewInt(int64(i)), types.NewText("a"), types.NewFloat(1), types.Null()})
		}
		base := check(t, v)
		d := v.BeginVersion()
		for i := 0; i < 8; i++ {
			insertRows(t, d, types.Row{types.NewInt(int64(100000 + i)), types.NewText("a"), types.NewFloat(2), types.Null()})
		}
		st, handed := derive(d)
		if handed != base {
			t.Fatal("the draft was not handed its parent's statistics")
		}
		matchesRowwise(t, d, st)
		if k := st.Col("k"); k.NDV < 8000 || k.NDV > 8400 {
			t.Fatalf("key NDV %d after the switch, want about 8196", k.NDV)
		}
		// And on past it, already in the HyperLogLog phase.
		d2 := d.BeginVersion()
		for i := 0; i < 100; i++ {
			insertRows(t, d2, types.Row{types.NewInt(int64(200000 + i)), types.NewText("b"), types.NewFloat(3), types.Null()})
		}
		check(t, d2)
	})

	t.Run("null-only-tail", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		v := storage.NewTable(extDef())
		for i := 0; i < 500; i++ {
			insertRows(t, v, extRow(rng, 100, 10))
		}
		check(t, v)
		d := v.BeginVersion()
		for i := 0; i < 8; i++ {
			insertRows(t, d, types.Row{types.Null(), types.Null(), types.Null(), types.Null()})
		}
		check(t, d)
	})

	t.Run("text-dictionary-grows", func(t *testing.T) {
		v := storage.NewTable(extDef())
		insertRows(t, v, types.Row{types.NewInt(1), types.NewText("old"), types.NewFloat(1), types.Null()})
		check(t, v)
		d := v.BeginVersion()
		for i := 0; i < 50; i++ {
			insertRows(t, d, types.Row{types.NewInt(1), types.NewText(fmt.Sprintf("new%d", i)), types.NewFloat(1), types.Null()})
		}
		if s := check(t, d).Col("s"); s.NDV != 51 {
			t.Fatalf("label NDV %d, want 51", s.NDV)
		}
	})

	t.Run("discarded-draft-then-new-draft", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		v := storage.NewTable(extDef())
		for i := 0; i < 300; i++ {
			insertRows(t, v, extRow(rng, 50, 5))
		}
		parent := check(t, v)
		d1 := v.BeginVersion()
		for i := 0; i < 20; i++ {
			insertRows(t, d1, types.Row{types.NewInt(int64(1000 + i)), types.NewText(fmt.Sprintf("gone%d", i)), types.NewFloat(-1), types.NewInt(7)})
		}
		check(t, d1) // derived, then the draft is thrown away
		d2 := v.BeginVersion()
		for i := 0; i < 12; i++ {
			insertRows(t, d2, types.Row{types.NewInt(int64(i)), types.NewText("kept"), types.NewFloat(2), types.Null()})
		}
		st, handed := derive(d2)
		if handed != parent {
			t.Fatal("the second draft was not handed the parent's statistics")
		}
		matchesRowwise(t, d2, st)
		if stats.Of(v) != parent {
			t.Fatal("the parent's statistics changed")
		}
		matchesRowwise(t, v, parent)
	})

	t.Run("pinned-version-asked-late", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		v1 := storage.NewTable(extDef())
		for i := 0; i < 200; i++ {
			insertRows(t, v1, extRow(rng, 80, 8))
		}
		v2 := v1.BeginVersion()
		for i := 0; i < 30; i++ {
			insertRows(t, v2, extRow(rng, 80, 8))
		}
		check(t, v2)
		v3 := v2.BeginVersion()
		for i := 0; i < 30; i++ {
			insertRows(t, v3, extRow(rng, 80, 8))
		}
		check(t, v3)
		if st := check(t, v1); st.Rows != 200 {
			t.Fatalf("the pinned version's statistics see %d rows, want its own 200", st.Rows)
		}
	})

	t.Run("direct-insert-restamp", func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		v := storage.NewTable(extDef())
		for i := 0; i < 100; i++ {
			insertRows(t, v, extRow(rng, 40, 4))
		}
		before := check(t, v)
		insertRows(t, v, extRow(rng, 40, 4), extRow(rng, 40, 4))
		st, handed := derive(v)
		if handed != before || st == before {
			t.Fatal("a direct insert must derive new statistics from the old ones")
		}
		matchesRowwise(t, v, st)
		matchesRowwise(t, v, stats.Fold(v, nil))
	})
}

// TestStatsExtensionCostsItsOwnRows: extending statistics by a tail costs the
// tail and a copy of the accumulators, not the table — an 8-row extension
// allocates the same (within 10 %) on a 10 000-row and a 100 000-row table
// with equal distinct counts.
func TestStatsExtensionCostsItsOwnRows(t *testing.T) {
	perFold := func(rows int) float64 {
		v := storage.NewTable(extDef())
		batch := make([]types.Row, rows)
		for i := range batch {
			batch[i] = types.Row{types.NewInt(int64(i % 1000)), types.NewText(fmt.Sprintf("l%d", i%300)),
				types.NewFloat(float64(i % 700)), types.NewInt(int64(i % 50))}
		}
		if err := v.InsertAll(batch); err != nil {
			t.Fatal(err)
		}
		base := stats.Of(v)
		d := v.BeginVersion()
		for i := 0; i < 8; i++ {
			insertRows(t, d, types.Row{types.NewInt(int64(i)), types.NewText("l1"), types.NewFloat(1), types.Null()})
		}
		const runs = 20
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < runs; i++ {
			stats.Fold(d, base)
		}
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc-before) / runs
	}
	small, large := perFold(10_000), perFold(100_000)
	if ratio := large / small; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("8-row extension allocates %.0f B on 100 000 rows vs %.0f B on 10 000 (ratio %.2f); want equal within 10 %%",
			large, small, ratio)
	}
}

// FuzzStatsExtend grows a table in two versions from arbitrary bytes — three
// bytes a row, split where the fuzzer says — and checks that the second
// version's statistics, extended from the first's, equal a fresh build and
// the row-wise definition, and that the first's did not change.
func FuzzStatsExtend(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint16(1))
	f.Add([]byte{0, 0, 0, 255, 255, 255, 7, 7, 7, 0, 9, 0}, uint16(2))
	f.Add(make([]byte, 600), uint16(150))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		var rows []types.Row
		for ; len(data) >= 3; data = data[3:] {
			row := types.Row{types.NewInt(int64(data[0])), types.NewText(fmt.Sprintf("s%d", data[1]%64)),
				types.NewFloat(float64(int8(data[2])) / 4), types.Null()}
			if data[0]%7 == 0 {
				row[0] = types.Null()
			}
			if data[1] >= 192 {
				row[1], row[3] = types.Null(), types.NewInt(int64(data[1]))
			}
			rows = append(rows, row)
		}
		at := min(int(split), len(rows))
		v := storage.NewTable(extDef())
		if err := v.InsertAll(rows[:at]); err != nil {
			t.Fatal(err)
		}
		base := stats.Of(v)
		d := v.BeginVersion()
		insertRows(t, d, rows[at:]...)
		matchesRowwise(t, d, stats.Of(d))
		matchesRowwise(t, d, stats.Fold(d, nil))
		if stats.Of(v) != base {
			t.Fatal("the base version's statistics changed")
		}
		matchesRowwise(t, v, base)
	})
}
