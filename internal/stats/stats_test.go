package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

func intTable(t *testing.T, name string, vals []int64) *storage.Table {
	t.Helper()
	def := catalog.MustTableDef(name, []catalog.Column{{Name: "v", Type: types.KindInt}})
	tab := storage.NewTable(def)
	rows := make([]types.Row, len(vals))
	for i, v := range vals {
		rows[i] = types.Row{types.NewInt(v)}
	}
	if err := tab.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestFromTableBasics(t *testing.T) {
	def := catalog.MustTableDef("t", []catalog.Column{
		{Name: "id", Type: types.KindInt},
		{Name: "grp", Type: types.KindInt},
		{Name: "name", Type: types.KindText},
		{Name: "score", Type: types.KindFloat},
	})
	tab := storage.NewTable(def)
	var rows []types.Row
	for i := 0; i < 100; i++ {
		score := types.NewFloat(float64(i) / 2)
		if i%10 == 0 {
			score = types.Null()
		}
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 7)),
			types.NewText(fmt.Sprintf("n%03d", i%5)),
			score,
		})
	}
	if err := tab.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	st := Fold(tab, nil)
	if st.Rows != 100 {
		t.Fatalf("rows = %d, want 100", st.Rows)
	}
	id := st.Col("ID") // case-insensitive lookup
	if id == nil || id.NDV != 100 || id.Nulls != 0 || !id.HasRange || id.MinF != 0 || id.MaxF != 99 {
		t.Fatalf("id stats wrong: %+v", id)
	}
	grp := st.Col("grp")
	if grp.NDV != 7 {
		t.Fatalf("grp ndv = %d, want 7", grp.NDV)
	}
	name := st.Col("name")
	if name.NDV != 5 || name.Numeric || name.HasRange {
		t.Fatalf("name stats wrong: %+v", name)
	}
	score := st.Col("score")
	if score.Nulls != 10 || score.NDV > 90 {
		t.Fatalf("score stats wrong: %+v", score)
	}
	if got := float64(score.Nulls) / float64(score.Rows); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("score null frac = %g, want 0.1", got)
	}
}

// TestPropertySweep is the seeded property sweep: across many random tables,
// NDV never exceeds the non-null row count, is exact in the exact phase, and
// min/max match a brute-force scan.
func TestPropertySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(2000)
		domain := 1 + rng.Intn(500)
		vals := make([]int64, n)
		truth := map[int64]bool{}
		var min, max int64
		for i := range vals {
			v := int64(rng.Intn(domain)) - int64(domain/2)
			vals[i] = v
			if len(truth) == 0 || v < min {
				min = v
			}
			if len(truth) == 0 || v > max {
				max = v
			}
			truth[v] = true
		}
		st := Fold(intTable(t, "p", vals), nil)
		c := st.Col("v")
		if c.NDV > c.Rows-c.Nulls {
			t.Fatalf("trial %d: NDV %d > non-null %d", trial, c.NDV, c.Rows-c.Nulls)
		}
		if n > 0 {
			if c.NDV != len(truth) {
				// Exact phase covers these sizes; the sketch must be exact.
				t.Fatalf("trial %d: NDV %d, want exact %d", trial, c.NDV, len(truth))
			}
			if !c.HasRange || c.MinF != float64(min) || c.MaxF != float64(max) {
				t.Fatalf("trial %d: range [%g,%g], want [%d,%d]", trial, c.MinF, c.MaxF, min, max)
			}
		}
	}
}

// TestSketchLargeNDV checks the HyperLogLog phase stays within a few percent
// once the exact phase overflows.
func TestSketchLargeNDV(t *testing.T) {
	var s sketch
	const n = 200000
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		// Distinct values hashed through the same path FromTable uses.
		s.add(types.NewInt(int64(i)*1000003 + rng.Int63n(3)).HashFNV(types.FNVOffset64))
	}
	est := s.estimate()
	if math.Abs(float64(est)-n)/n > 0.05 {
		t.Fatalf("sketch estimate %d for ~%d distinct (err %.1f%%)", est, n, 100*math.Abs(float64(est)-n)/n)
	}
}

// TestSketchSequentialKeys regresses the FNV-clustering failure: sequential
// integer keys (the common primary-key shape) hash into a narrow band of HLL
// registers without the finalizer, collapsing the estimate ~3x.
func TestSketchSequentialKeys(t *testing.T) {
	var s sketch
	const n = 50000
	for i := 0; i < n; i++ {
		s.add(types.NewInt(int64(i)).HashFNV(types.FNVOffset64))
	}
	est := s.estimate()
	if math.Abs(float64(est)-n)/n > 0.05 {
		t.Fatalf("sketch estimate %d for %d sequential keys (err %.1f%%)", est, n, 100*math.Abs(float64(est)-n)/n)
	}
}

// TestCacheInvalidation: statistics live in the table version — shared while
// it stands, derived anew after a direct Insert, and derived anew by a
// BeginVersion draft (whose extension leaves the parent's alone).
func TestCacheInvalidation(t *testing.T) {
	tab := intTable(t, "c", []int64{1, 2, 3})
	s1 := Of(tab)
	if s1.Rows != 3 || s1.Col("v").NDV != 3 {
		t.Fatalf("initial stats wrong: %+v", s1)
	}
	if s2 := Of(tab); s2 != s1 {
		t.Fatal("unchanged version must share its statistics (same pointer)")
	}

	draft := tab.BeginVersion()
	if err := draft.Insert(types.Row{types.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if sd := Of(draft); sd == s1 || sd.Rows != 4 {
		t.Fatalf("draft statistics inherited or wrong: %+v", sd)
	}
	if Of(tab) != s1 {
		t.Fatal("a draft's build replaced its parent's statistics")
	}

	if err := tab.Insert(types.Row{types.NewInt(4)}); err != nil {
		t.Fatal(err)
	}
	s3 := Of(tab)
	if s3 == s1 {
		t.Fatal("stats not rebuilt after insert")
	}
	if s3.Rows != 4 || s3.Col("v").NDV != 4 {
		t.Fatalf("post-DML stats wrong: %+v", s3)
	}
}

// TestDeterministicBuild: two builds over identical data agree exactly.
func TestDeterministicBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(400)
	}
	a := Fold(intTable(t, "d", vals), nil)
	b := Fold(intTable(t, "d", vals), nil)
	ca, cb := a.Col("v"), b.Col("v")
	if ca.NDV != cb.NDV || ca.MinF != cb.MinF || ca.MaxF != cb.MaxF || ca.Nulls != cb.Nulls || !SameSketch(ca, cb) {
		t.Fatalf("non-deterministic build: %+v vs %+v", ca, cb)
	}
}

// TestMixedKindColumn: a column whose non-null values are not all numeric
// must not claim a numeric range, but still counts NDV.
func TestMixedKindColumn(t *testing.T) {
	def := catalog.MustTableDef("m", []catalog.Column{{Name: "v", Type: types.KindText}})
	tab := storage.NewTable(def)
	rows := []types.Row{
		{types.NewText("a")},
		{types.NewText("b")},
		{types.Null()},
		{types.NewText("a")},
	}
	if err := tab.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	c := Fold(tab, nil).Col("v")
	if c.Numeric || c.HasRange {
		t.Fatalf("text column claims numeric stats: %+v", c)
	}
	if c.NDV != 2 || c.Nulls != 1 {
		t.Fatalf("text column counts wrong: %+v", c)
	}
}
