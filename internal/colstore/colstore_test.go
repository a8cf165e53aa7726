package colstore

import (
	"math/rand"
	"testing"

	"resultdb/internal/types"
)

// randomTypedRows builds rows whose column j values match kinds[j] (or NULL
// with probability nullP).
func randomTypedRows(rng *rand.Rand, kinds []types.Kind, n int, nullP float64, dictSize int) []types.Row {
	words := make([]string, dictSize)
	for i := range words {
		words[i] = "w" + string(rune('a'+i%26)) + string(rune('0'+i%10))
	}
	rows := make([]types.Row, n)
	for i := range rows {
		r := make(types.Row, len(kinds))
		for j, k := range kinds {
			if rng.Float64() < nullP {
				r[j] = types.Null()
				continue
			}
			switch k {
			case types.KindInt:
				r[j] = types.NewInt(rng.Int63n(1000) - 500)
			case types.KindFloat:
				r[j] = types.NewFloat(rng.NormFloat64() * 100)
			case types.KindBool:
				r[j] = types.NewBool(rng.Intn(2) == 0)
			default:
				r[j] = types.NewText(words[rng.Intn(len(words))])
			}
		}
		rows[i] = r
	}
	return rows
}

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindText, types.KindBool}
	rows := randomTypedRows(rng, kinds, 777, 0.15, 7)
	for _, par := range []int{1, 4} {
		f := NewFrameDegree(kinds, rows, par)
		if f.Rows() != len(rows) || f.NumCols() != len(kinds) {
			t.Fatalf("par=%d: frame shape %dx%d, want %dx%d", par, f.Rows(), f.NumCols(), len(rows), len(kinds))
		}
		// Typed columns must have been chosen (no fallback for conforming data).
		if _, ok := f.Col(0).(*Int64Column); !ok {
			t.Fatalf("col 0 is %T, want *Int64Column", f.Col(0))
		}
		if _, ok := f.Col(1).(*Float64Column); !ok {
			t.Fatalf("col 1 is %T, want *Float64Column", f.Col(1))
		}
		if _, ok := f.Col(2).(*TextColumn); !ok {
			t.Fatalf("col 2 is %T, want *TextColumn", f.Col(2))
		}
		if _, ok := f.Col(3).(*BoolColumn); !ok {
			t.Fatalf("col 3 is %T, want *BoolColumn", f.Col(3))
		}
		for i, r := range rows {
			for j := range kinds {
				got := f.Col(j).Value(i)
				if got.Kind() != r[j].Kind() || !types.Equal(got, r[j]) && !(got.IsNull() && r[j].IsNull()) {
					t.Fatalf("par=%d: Value(%d,%d) = %v (%s), want %v (%s)",
						par, i, j, got, got.Kind(), r[j], r[j].Kind())
				}
				if f.Col(j).Null(i) != r[j].IsNull() {
					t.Fatalf("Null(%d,%d) mismatch", i, j)
				}
			}
		}
	}
}

func TestFrameAnyFallback(t *testing.T) {
	// An INTEGER column holding a float value must fall back to AnyColumn and
	// reconstruct the float exactly (no widening/narrowing).
	rows := []types.Row{
		{types.NewInt(1)},
		{types.NewFloat(2.5)},
		{types.Null()},
	}
	f := NewFrame([]types.Kind{types.KindInt}, rows)
	if _, ok := f.Col(0).(*AnyColumn); !ok {
		t.Fatalf("col is %T, want *AnyColumn", f.Col(0))
	}
	for i, r := range rows {
		got := f.Col(0).Value(i)
		if got.Kind() != r[0].Kind() {
			t.Fatalf("row %d: kind %s, want %s", i, got.Kind(), r[0].Kind())
		}
	}
}

func TestFrameHashMatchesRowHash(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	kinds := []types.Kind{types.KindText, types.KindInt, types.KindText, types.KindFloat, types.KindBool}
	rows := randomTypedRows(rng, kinds, 500, 0.2, 3) // small dict: heavy fast-path reuse
	f := NewFrame(kinds, rows)
	keySets := [][]int{
		{0},          // single text key: dictionary fast path
		{2, 0},       // text chained after text: byte-walk path
		{1, 2},       // text in chained (non-offset) state
		{3, 1},       // numerics
		{4, 0, 1, 2}, // everything
	}
	for _, cols := range keySets {
		for i, r := range rows {
			if got, want := f.HashKey(i, cols), r.HashKey(cols); got != want {
				t.Fatalf("HashKey(%d, %v) = %#x, want %#x (row %v)", i, cols, got, want, r)
			}
			wantNull := false
			for _, c := range cols {
				wantNull = wantNull || r[c].IsNull()
			}
			if got := f.KeyHasNull(i, cols); got != wantNull {
				t.Fatalf("KeyHasNull(%d, %v) = %v, want %v", i, cols, got, wantNull)
			}
		}
	}
	// Degenerate dictionaries: all-equal and all-distinct TEXT.
	for name, gen := range map[string]func(i int) string{
		"all-equal": func(int) string { return "same" },
		"all-distinct": func(i int) string {
			return "v" + string(rune('0'+i%10)) + string(rune('a'+i/10%26)) + string(rune('a'+i/260))
		},
	} {
		rows := make([]types.Row, 300)
		for i := range rows {
			rows[i] = types.Row{types.NewText(gen(i))}
		}
		f := NewFrame([]types.Kind{types.KindText}, rows)
		for i, r := range rows {
			if got, want := f.HashKey(i, []int{0}), r.HashKey([]int{0}); got != want {
				t.Fatalf("%s: HashKey(%d) mismatch", name, i)
			}
		}
	}
}

func TestBitmap(t *testing.T) {
	var nilB *Bitmap
	if nilB.Get(5) || nilB.Count() != 0 {
		t.Fatal("nil bitmap must be all-clear")
	}
	b := newBitmap(130)
	for _, i := range []int{0, 63, 64, 129, 64} { // 64 set twice
		b.set(i)
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	for i := 0; i < 130; i++ {
		want := i == 0 || i == 63 || i == 64 || i == 129
		if b.Get(i) != want {
			t.Fatalf("Get(%d) = %v, want %v", i, b.Get(i), want)
		}
	}
}

// rowwiseSelect evaluates pass over every row index — the oracle kernels must
// reproduce.
func rowwiseSelect(n int, pass func(i int) bool) []int32 {
	out := []int32{}
	for i := 0; i < n; i++ {
		if pass(i) {
			out = append(out, int32(i))
		}
	}
	return out
}

func sameSel(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKernelsMatchRowwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindText, types.KindBool}
	rows := randomTypedRows(rng, kinds, 2000, 0.25, 5)
	f := NewFrame(kinds, rows)
	ic := f.Col(0).(*Int64Column)
	fc := f.Col(1).(*Float64Column)
	tc := f.Col(2).(*TextColumn)
	bc := f.Col(3).(*BoolColumn)

	cases := []struct {
		name   string
		kernel Kernel
		ok     bool
		pass   func(r types.Row) bool
	}{}
	add := func(name string, k Kernel, ok bool, pass func(r types.Row) bool) {
		cases = append(cases, struct {
			name   string
			kernel Kernel
			ok     bool
			pass   func(r types.Row) bool
		}{name, k, ok, pass})
	}

	k1, ok1 := NewNumCmpKernel(ic, CmpGt, 100)
	add("int>100", k1, ok1, func(r types.Row) bool {
		return !r[0].IsNull() && r[0].Float() > 100
	})
	k2, ok2 := NewNumCmpKernel(fc, CmpLe, -5.5)
	add("float<=-5.5", k2, ok2, func(r types.Row) bool {
		return !r[1].IsNull() && r[1].Float() <= -5.5
	})
	k3, ok3 := NewNumBetweenKernel(ic, -100, 200, false)
	add("int between", k3, ok3, func(r types.Row) bool {
		return !r[0].IsNull() && r[0].Float() >= -100 && r[0].Float() <= 200
	})
	k4, ok4 := NewNumBetweenKernel(fc, -50, 50, true)
	add("float not between", k4, ok4, func(r types.Row) bool {
		return !r[1].IsNull() && !(r[1].Float() >= -50 && r[1].Float() <= 50)
	})
	k5, ok5 := NewNumInKernel(ic, []float64{1, 2, 3, 400}, false, false)
	add("int in", k5, ok5, func(r types.Row) bool {
		if r[0].IsNull() {
			return false
		}
		v := r[0].Float()
		return v == 1 || v == 2 || v == 3 || v == 400
	})
	k6, ok6 := NewNumInKernel(ic, []float64{1, 2}, true, false)
	add("int not in", k6, ok6, func(r types.Row) bool {
		if r[0].IsNull() {
			return false
		}
		v := r[0].Float()
		return v != 1 && v != 2
	})
	k7, ok7 := NewNumInKernel(ic, []float64{1, 2}, true, true)
	add("int not in (with NULL item)", k7, ok7, func(r types.Row) bool {
		return false // every non-match is UNKNOWN; matches fail NOT IN
	})
	add("text=", NewDictKernel(tc, tc.Keep(func(s string) bool { return s == tc.Dict[0] })), true, func(r types.Row) bool {
		return !r[2].IsNull() && r[2].Text() == tc.Dict[0]
	})
	add("text prefix", NewDictKernel(tc, tc.Keep(func(s string) bool { return len(s) > 0 && s[0] == 'w' })), true, func(r types.Row) bool {
		return !r[2].IsNull() && len(r[2].Text()) > 0 && r[2].Text()[0] == 'w'
	})
	add("bool true", NewBoolKernel(bc, true, false), true, func(r types.Row) bool {
		return !r[3].IsNull() && r[3].Bool()
	})
	add("is null", NewIsNullKernel(ic, false), true, func(r types.Row) bool {
		return r[0].IsNull()
	})
	add("is not null", NewIsNullKernel(tc, true), true, func(r types.Row) bool {
		return !r[2].IsNull()
	})
	add("const false", NewConstKernel(false), true, func(types.Row) bool { return false })
	add("non-null", NewNonNullKernel(fc), true, func(r types.Row) bool { return !r[1].IsNull() })

	for _, c := range cases {
		if !c.ok {
			t.Fatalf("%s: constructor rejected typed column", c.name)
		}
		want := rowwiseSelect(len(rows), func(i int) bool { return c.pass(rows[i]) })
		for _, par := range []int{1, 4} {
			got := RunKernels(len(rows), []Kernel{c.kernel}, par)
			if !sameSel(got, want) {
				t.Fatalf("%s par=%d: %d rows selected, want %d", c.name, par, len(got), len(want))
			}
		}
	}

	// Conjunction chain, all pars, must equal rowwise AND in the same order.
	chain := []Kernel{k3, cases[8].kernel, NewIsNullKernel(fc, true)}
	want := rowwiseSelect(len(rows), func(i int) bool {
		r := rows[i]
		return cases[2].pass(r) && cases[8].pass(r) && !r[1].IsNull()
	})
	for _, par := range []int{1, 2, 8} {
		got := RunKernels(len(rows), chain, par)
		if !sameSel(got, want) {
			t.Fatalf("chain par=%d: %d rows, want %d", par, len(got), len(want))
		}
	}

	// NewNumCmpKernel must reject non-numeric columns.
	if _, ok := NewNumCmpKernel(tc, CmpEq, 0); ok {
		t.Fatal("NumCmpKernel accepted a text column")
	}
	if _, ok := NewNumInKernel(bc, nil, false, false); ok {
		t.Fatal("NumInKernel accepted a bool column")
	}
}

func TestViewNarrow(t *testing.T) {
	kinds := []types.Kind{types.KindInt}
	rows := make([]types.Row, 10)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	f := NewFrame(kinds, rows)
	all := &View{Frame: f}
	if all.Len() != 10 || all.Index(7) != 7 {
		t.Fatal("nil-Sel view must cover all rows")
	}
	v := all.Narrow([]int32{1, 3, 5, 9})
	if v.Len() != 4 || v.Index(2) != 5 {
		t.Fatalf("narrowed view wrong: len %d index(2)=%d", v.Len(), v.Index(2))
	}
	w := v.Narrow([]int32{0, 3})
	if w.Len() != 2 || w.Index(0) != 1 || w.Index(1) != 9 {
		t.Fatalf("double narrow wrong: %v", w.Sel)
	}
}

// TestKeySetMatchesNaive checks the key set against a linear scan: NULL keys
// are skipped on build and never match on probe, duplicate keys collapse,
// composite keys compare column by column, and none of it depends on whether
// either side is columnar or row-major.
func TestKeySetMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	kinds := []types.Kind{types.KindText, types.KindInt}
	build := randomTypedRows(rng, kinds, 600, 0.2, 4)
	probe := randomTypedRows(rng, kinds, 600, 0.2, 4)
	cols := []int{0, 1}

	keyOf := func(r types.Row, cols []int) (types.Row, bool) {
		k := r.Project(cols)
		for _, v := range k {
			if v.IsNull() {
				return nil, false
			}
		}
		return k, true
	}
	var distinct []types.Row
	contains := func(k types.Row) bool {
		for _, d := range distinct {
			if d.Equal(k) {
				return true
			}
		}
		return false
	}
	for _, r := range build {
		if k, ok := keyOf(r, cols); ok && !contains(k) {
			distinct = append(distinct, k)
		}
	}

	// The probe also runs with its columns stored in the opposite order,
	// addressed through a reordered column list.
	swapped := make([]types.Row, len(probe))
	for i, r := range probe {
		swapped[i] = types.Row{r[1], r[0]}
	}
	swappedKinds := []types.Kind{kinds[1], kinds[0]}
	for bname, bk := range map[string]Key{
		"columnar": ViewKey(&View{Frame: NewFrame(kinds, build)}, cols),
		"rowmajor": RowsKey(build, cols),
	} {
		s := NewKeySet(bk)
		for j := range build {
			s.Add(j)
		}
		if s.Len() != len(distinct) {
			t.Fatalf("%s build: KeySet.Len = %d, want %d", bname, s.Len(), len(distinct))
		}
		for pname, pk := range map[string]Key{
			"columnar":         ViewKey(&View{Frame: NewFrame(kinds, probe)}, cols),
			"rowmajor":         RowsKey(probe, cols),
			"columnar-swapped": ViewKey(&View{Frame: NewFrame(swappedKinds, swapped)}, []int{1, 0}),
			"rowmajor-swapped": RowsKey(swapped, []int{1, 0}),
		} {
			for j, r := range probe {
				k, ok := keyOf(r, cols)
				if got, want := s.Contains(pk, j), ok && contains(k); got != want {
					t.Fatalf("%s build, %s probe: Contains(row %d %v) = %v, want %v", bname, pname, j, r, got, want)
				}
			}
		}
	}
}

func TestHashTableMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	kinds := []types.Kind{types.KindInt, types.KindText}
	build := randomTypedRows(rng, kinds, 2500, 0.15, 3)
	probe := randomTypedRows(rng, kinds, 400, 0.15, 3)
	cols := []int{1, 0}

	bf := NewFrame(kinds, build)
	bk := ViewKey(&View{Frame: bf}, cols)
	pk := RowsKey(probe, cols)

	for _, par := range []int{1, 4} {
		ht := BuildHashTable(bk, par)
		for j, pr := range probe {
			var got []int32
			ht.Each(pk, j, func(pos int32) { got = append(got, pos) })
			// Naive oracle: scan build side with row-by-row key equality.
			var want []int32
			prNull := false
			for _, c := range cols {
				prNull = prNull || pr[c].IsNull()
			}
			if !prNull {
				for i, br := range build {
					match, bNull := true, false
					for _, c := range cols {
						bNull = bNull || br[c].IsNull()
						if !types.Equal(br[c], pr[c]) {
							match = false
						}
					}
					if match && !bNull {
						want = append(want, int32(i))
					}
				}
			}
			if !sameSel(got, want) {
				t.Fatalf("par=%d probe %d: positions %v, want %v", par, j, got, want)
			}
		}
	}
}

// TestKeyMixedSides locks in the interop rule: a columnar build probed by a
// row-major key (and vice versa) behaves identically, because both hash with
// the same inlined FNV-1a.
func TestKeyMixedSides(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	kinds := []types.Kind{types.KindText, types.KindFloat}
	rows := randomTypedRows(rng, kinds, 300, 0.3, 2)
	f := NewFrame(kinds, rows)
	ck := ViewKey(&View{Frame: f}, []int{0, 1})
	rk := RowsKey(rows, []int{0, 1})
	for j := range rows {
		if ck.Hash(j) != rk.Hash(j) {
			t.Fatalf("row %d: columnar hash %#x != row hash %#x", j, ck.Hash(j), rk.Hash(j))
		}
		if ck.HasNull(j) != rk.HasNull(j) {
			t.Fatalf("row %d: HasNull disagrees", j)
		}
		if !KeysEqual(ck, j, rk, j) && !ck.HasNull(j) {
			t.Fatalf("row %d: KeysEqual(self) false", j)
		}
	}
}
