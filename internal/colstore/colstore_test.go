package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"resultdb/internal/parallel"
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
	f := NewFrame(kinds, rows)
	if f.Rows() != len(rows) || f.NumCols() != len(kinds) {
		t.Fatalf("frame shape %dx%d, want %dx%d", f.Rows(), f.NumCols(), len(rows), len(kinds))
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
				t.Fatalf("Value(%d,%d) = %v (%s), want %v (%s)",
					i, j, got, got.Kind(), r[j], r[j].Kind())
			}
			if f.Col(j).Null(i) != r[j].IsNull() {
				t.Fatalf("Null(%d,%d) mismatch", i, j)
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
		hs, null := hashAll(ViewKey(&View{Frame: f}, cols), parallel.NewRun(1))
		for i, r := range rows {
			if got, want := hs[i], r.HashKey(cols); got != want {
				t.Fatalf("hash(%d, %v) = %#x, want %#x (row %v)", i, cols, got, want, r)
			}
			wantNull := false
			for _, c := range cols {
				wantNull = wantNull || r[c].IsNull()
			}
			if null[i] != wantNull {
				t.Fatalf("null(%d, %v) = %v, want %v", i, cols, null[i], wantNull)
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
		hs, _ := hashAll(ViewKey(&View{Frame: NewFrame([]types.Kind{types.KindText}, rows)}, []int{0}), parallel.NewRun(1))
		for i, r := range rows {
			if got, want := hs[i], r.HashKey([]int{0}); got != want {
				t.Fatalf("%s: hash(%d) mismatch", name, i)
			}
		}
	}
}

func TestBitmap(t *testing.T) {
	var nilB *Bitmap
	if nilB.Get(5) || nilB.Count() != 0 {
		t.Fatal("nil bitmap must be all-clear")
	}
	var b *Bitmap
	for _, i := range []int{0, 63, 64, 64, 129} { // 64 set twice
		b = b.with(i)
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

// TestKernelsMatchRowwise: every kernel, alone and chained, over the whole
// frame and over a selection, keeps exactly the rows a row-at-a-time oracle
// keeps — at frame lengths around a mask word (0, 1, 63, 64, 65) and past
// the parallel threshold (1 537, 2 000), at degrees 1-4, so chunk bounds fall
// mid-word; with a chain whose first kernel drops every row; and over
// selections that start after row 0 and cross chunk bounds.
func TestKernelsMatchRowwise(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1537, 2000} {
		kernelsMatchRowwise(t, n)
	}
	// The constructors must reject columns of another kind.
	f := NewFrame([]types.Kind{types.KindText, types.KindBool}, nil)
	if _, ok := NewNumCmpKernel(f.Col(0), CmpEq, 0); ok {
		t.Fatal("NumCmpKernel accepted a text column")
	}
	if _, ok := NewNumInKernel(f.Col(1), nil, false, false); ok {
		t.Fatal("NumInKernel accepted a bool column")
	}
}

func kernelsMatchRowwise(t *testing.T, n int) {
	rng := rand.New(rand.NewSource(13 + int64(n)))
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindText, types.KindBool}
	rows := randomTypedRows(rng, kinds, n, 0.25, 5)
	f := NewFrame(kinds, rows)
	ic := f.Col(0).(*Int64Column)
	fc := f.Col(1).(*Float64Column)
	tc := f.Col(2).(*TextColumn)
	bc := f.Col(3).(*BoolColumn)

	type kernelCase struct {
		name    string
		kernels []Kernel
		pass    func(r types.Row) bool
	}
	var cases []kernelCase
	add := func(name string, k Kernel, ok bool, pass func(r types.Row) bool) {
		if !ok {
			t.Fatalf("n=%d %s: constructor rejected typed column", n, name)
		}
		cases = append(cases, kernelCase{name, []Kernel{k}, pass})
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
	k8, ok8 := NewNumCmpKernel(fc, CmpNe, 0)
	add("float<>0", k8, ok8, func(r types.Row) bool {
		return !r[1].IsNull() && r[1].Float() != 0
	})
	add("text=", NewDictKernel(tc, tc.Keep(func(s string) bool { return s == "wa0" })), true, func(r types.Row) bool {
		return !r[2].IsNull() && r[2].Text() == "wa0"
	})
	textPrefix := NewDictKernel(tc, tc.Keep(func(s string) bool { return len(s) > 0 && s[0] == 'w' }))
	add("text prefix", textPrefix, true, func(r types.Row) bool {
		return !r[2].IsNull() && len(r[2].Text()) > 0 && r[2].Text()[0] == 'w'
	})
	add("bool true", NewBoolKernel(bc, true, false), true, func(r types.Row) bool {
		return !r[3].IsNull() && r[3].Bool()
	})
	add("bool false", NewBoolKernel(bc, false, true), true, func(r types.Row) bool {
		return !r[3].IsNull() && !r[3].Bool()
	})
	add("is null", NewIsNullKernel(ic, false), true, func(r types.Row) bool {
		return r[0].IsNull()
	})
	add("is not null", NewIsNullKernel(tc, true), true, func(r types.Row) bool {
		return !r[2].IsNull()
	})
	add("const false", NewConstKernel(false), true, func(types.Row) bool { return false })
	add("const true", NewConstKernel(true), true, func(types.Row) bool { return true })
	add("non-null", NewNonNullKernel(fc), true, func(r types.Row) bool { return !r[1].IsNull() })
	add("bool is null", NewIsNullKernel(bc, false), true, func(r types.Row) bool { return r[3].IsNull() })

	// IS [NOT] NULL over a typed column whose NULLs sit at word edges — the
	// first and last row of every 64 and the last row — and over the
	// exact-value column, which keeps no bitmap: rows gain them as r[4] and
	// r[5].
	edgeRows := make([]types.Row, n)
	anyVals := make([]types.Value, n)
	for i := range rows {
		v := types.NewInt(int64(i))
		if i%64 == 0 || i%64 == 63 || i == n-1 {
			v = types.Null()
		}
		edgeRows[i] = types.Row{v}
		anyVals[i] = rows[i][i%2*2] // an int or a text value, or NULL
		rows[i] = append(rows[i], v, anyVals[i])
	}
	ec := NewFrame([]types.Kind{types.KindInt}, edgeRows).Col(0)
	ac := &AnyColumn{Vals: anyVals}
	for _, c := range []struct {
		name string
		col  Column
		at   int
	}{{"edge", ec, 4}, {"any", ac, 5}} {
		at := c.at
		add(c.name+" is null", NewIsNullKernel(c.col, false), true, func(r types.Row) bool { return r[at].IsNull() })
		add(c.name+" is not null", NewIsNullKernel(c.col, true), true, func(r types.Row) bool { return !r[at].IsNull() })
		add(c.name+" non-null", NewNonNullKernel(c.col), true, func(r types.Row) bool { return !r[at].IsNull() })
	}

	// Chains, which must equal the rowwise AND of their kernels: one that
	// keeps some rows, and one whose first kernel drops every row.
	between, prefix := cases[2].pass, cases[9].pass
	cases = append(cases,
		kernelCase{"chain", []Kernel{k3, textPrefix, NewIsNullKernel(fc, true)}, func(r types.Row) bool {
			return between(r) && prefix(r) && !r[1].IsNull()
		}},
		kernelCase{"chain after dropping everything", []Kernel{NewConstKernel(false), k1, textPrefix}, func(types.Row) bool {
			return false
		}},
	)

	// Selections, which the result must stay within and leave as they were:
	// every third row from row 5, the rows from a third of the frame on
	// every other, one row past the first, and none.
	var third, tail []int32
	for i := 5; i < n; i += 3 {
		third = append(third, int32(i))
	}
	for i := n / 3; i < n; i += 2 {
		tail = append(tail, int32(i))
	}
	sels := [][]int32{nil, third, tail, {}}
	if n > 1 {
		sels = append(sels, []int32{1})
	}

	for _, c := range cases {
		for _, sel := range sels {
			in := func(i int) bool { return sel == nil || slices.Contains(sel, int32(i)) }
			want := rowwiseSelect(n, func(i int) bool { return in(i) && c.pass(rows[i]) })
			orig := slices.Clone(sel)
			for _, par := range []int{1, 2, 3, 4} {
				got := RunKernels(n, sel, c.kernels, parallel.NewRun(par))
				if got == nil || !sameSel(got, want) || !slices.Equal(sel, orig) {
					over := "every row"
					if sel != nil {
						over = fmt.Sprintf("%d selected rows", len(sel))
					}
					t.Fatalf("n=%d %s over %s, par=%d: %d rows, want %d (nil: %v, selection modified: %v)",
						n, c.name, over, par, len(got), len(want), got == nil, !slices.Equal(sel, orig))
				}
			}
		}
	}
}

// TestScanAllocatesForItsSurvivors: a kernel chain keeping a few of n
// candidate rows allocates for those few and for masks of a bit a row, not
// for a vector of the candidates' 4n bytes — over every row and over a
// selection of n rows, at every degree. The bytes are process-wide
// runtime.MemStats.TotalAlloc; the cheapest of a few runs counts, in case
// another goroutine allocates during one.
func TestScanAllocatesForItsSurvivors(t *testing.T) {
	const n = 100_000
	vals := make([]int64, 2*n)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	k, _ := NewNumCmpKernel(&Int64Column{Vals: vals}, CmpLt, 1) // one row in 1000
	var even []int32
	for i := 0; i < 2*n; i += 2 {
		even = append(even, int32(i))
	}
	for _, c := range []struct {
		name string
		rows int
		sel  []int32
	}{
		{"every row", n, nil},
		{"a selection", 2 * n, even},
	} {
		for _, par := range []int{1, 2, 4} {
			bytes, kept := uint64(math.MaxUint64), 0
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				kept = len(RunKernels(c.rows, c.sel, []Kernel{k}, parallel.NewRun(par)))
				runtime.ReadMemStats(&after)
				bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			}
			if bytes >= n {
				t.Errorf("%s, par=%d: a scan keeping %d of %d candidates allocates %d bytes, want < %d (the candidates' vector is %d)",
					c.name, par, kept, n, bytes, n, 4*n)
			}
		}
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

// TestViewNarrowTakesItsArgument: Narrow makes the positions it is handed the
// new view's selection — rewritten in place to frame rows when the view has a
// selection, never copied — and a nil argument selects no rows, not all.
func TestViewNarrowTakesItsArgument(t *testing.T) {
	rows := make([]types.Row, 10)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	f := NewFrame([]types.Kind{types.KindInt}, rows)
	keep := []int32{1, 3, 5, 9}
	v := (&View{Frame: f}).Narrow(keep)
	if &v.Sel[0] != &keep[0] {
		t.Fatal("narrowing a view without a selection copied the positions")
	}
	keep = []int32{0, 3}
	w := v.Narrow(keep)
	if &w.Sel[0] != &keep[0] || w.Sel[0] != 1 || w.Sel[1] != 9 {
		t.Fatalf("narrowing a selection gave %v, want [1 9] in the positions handed over", w.Sel)
	}
	if v.Sel[0] != 1 || v.Sel[3] != 9 {
		t.Fatal("narrowing a view rewrote the selection it narrowed")
	}
	for _, from := range []*View{{Frame: f}, v} {
		if e := from.Narrow(nil); e.Sel == nil || e.Len() != 0 {
			t.Fatalf("Narrow(nil) selects %d rows, want none", e.Len())
		}
	}
	if a := testing.AllocsPerRun(10, func() { v.Narrow([]int32{0, 1}) }); a > 2 {
		t.Errorf("Narrow allocates %v times, want the view alone (and the literal)", a)
	}
}

// TestViewRows: boxing a view gives the selected tuples, in order, with their
// kinds — fresh ones however the frame was made: built from rows (it keeps
// nothing of them), gathered, projected or zipped.
func TestViewRows(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindText, types.KindBool}
	rows := randomTypedRows(rng, kinds, 300, 0.2, 5)
	rows[7][1] = types.NewInt(4) // an INTEGER in the DOUBLE column: AnyColumn, kind kept
	f := NewFrame(kinds, rows)
	sel := []int32{0, 7, 8, 150, 299}
	same := func(what string, got, want []types.Row) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s row %d: width %d, want %d", what, i, len(got[i]), len(want[i]))
			}
			for c := range want[i] {
				if got[i][c] != want[i][c] {
					t.Fatalf("%s cell (%d,%d) = %v (%s), want %v (%s)", what, i, c, got[i][c], got[i][c].Kind(), want[i][c], want[i][c].Kind())
				}
			}
		}
	}
	var picked []types.Row
	for _, j := range sel {
		picked = append(picked, rows[j])
	}
	dense := (&View{Frame: f}).Rows()
	same("dense", dense, rows)
	narrowed := (&View{Frame: f, Sel: sel}).Rows()
	same("selected", narrowed, picked)
	if &dense[7][0] == &rows[7][0] || &narrowed[1][0] == &rows[7][0] {
		t.Error("Rows() of a NewFrame view handed back the builder's tuples instead of boxing")
	}
	all := []int{0, 1, 2, 3}
	same("gathered", (&View{Frame: GatherView(&View{Frame: f, Sel: sel}, all, []int32{0, 1, 2, 3, 4}, parallel.NewRun(2))}).Rows(), picked)
	same("gathered, selected", (&View{Frame: GatherView(&View{Frame: f}, all, []int32{299, 0, 7, 8, 150, 1}, parallel.NewRun(1)), Sel: []int32{1, 2, 3, 4}}).Rows(), picked[:4])

	// Project reorders shared column vectors; Zip sets two frames side by side.
	var swapped, doubled []types.Row
	for _, r := range picked {
		swapped = append(swapped, types.Row{r[2], r[0]})
		doubled = append(doubled, types.Row{r[2], r[0], r[0], r[1], r[2], r[3]})
	}
	proj := f.Project([]int{2, 0})
	if proj.Col(0) != f.Col(2) || proj.Rows() != f.Rows() {
		t.Error("Project copied a column vector or changed the row count")
	}
	same("projected", (&View{Frame: proj, Sel: sel}).Rows(), swapped)
	same("zipped", (&View{Frame: Zip(proj, f), Sel: sel}).Rows(), doubled)
	if empty := (&View{Frame: GatherView(&View{Frame: f}, all, nil, parallel.NewRun(1))}).Rows(); len(empty) != 0 {
		t.Errorf("empty gather boxed %d rows", len(empty))
	}

	// The boxing kernel against Column.Value, cell by cell: every column type
	// x {no NULLs, some, all NULL} x {dense, selected among decoys} at lengths
	// on both sides of a tile boundary.
	mixedKinds := append(append([]types.Kind(nil), kinds...), types.KindInt)
	for _, n := range []int{0, 1, boxTile - 1, boxTile, boxTile + 1, 1000} {
		for _, nullP := range []float64{0, 0.3, 1} {
			src := randomTypedRows(rng, mixedKinds, 2*n+1, nullP, 9)
			for i := range src {
				if i%3 == 0 && nullP < 1 {
					src[i][4] = types.NewText("not an int") // column 4 degrades to AnyColumn
				}
			}
			built := NewFrame(mixedKinds, src)
			cols := make([]Column, built.NumCols())
			for c := range cols {
				cols[c] = built.Col(c)
			}
			if _, ok := cols[4].(*AnyColumn); !ok && nullP < 1 {
				t.Fatalf("column 4 is %T, want *AnyColumn", cols[4])
			}
			odd := make([]int32, n)
			for i := range odd {
				odd[i] = int32(2*i + 1)
			}
			for what, v := range map[string]*View{
				"dense":    {Frame: GatherView(&View{Frame: built}, []int{0, 1, 2, 3, 4}, odd, parallel.NewRun(1))},
				"selected": {Frame: FrameOf(len(src), cols), Sel: odd},
			} {
				got := v.Rows()
				if len(got) != n {
					t.Fatalf("n=%d nullP=%v %s: boxed %d rows", n, nullP, what, len(got))
				}
				for i, row := range got {
					if len(row) != v.Frame.NumCols() {
						t.Fatalf("n=%d nullP=%v %s row %d: width %d", n, nullP, what, i, len(row))
					}
					for c := range row {
						if want := v.Frame.Col(c).Value(v.Index(i)); row[c] != want {
							t.Fatalf("n=%d nullP=%v %s cell (%d,%d) = %v (%s), want %v (%s)",
								n, nullP, what, i, c, row[c], row[c].Kind(), want, want.Kind())
						}
					}
				}
			}
		}
	}
}

// TestColumnConstructors: the three ways a producer other than NewFrame makes
// columns give what NewFrame would.
func TestColumnConstructors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lsb := make([]byte, 37)
	for i := range lsb {
		lsb[i] = byte(rng.Intn(256))
	}
	lsb[5], lsb[6] = 0, 0xff
	bm, set := BitmapFromBytes(lsb), 0
	for i := 0; i < 8*len(lsb); i++ {
		want := lsb[i>>3]&(1<<(i&7)) != 0
		if want {
			set++
		}
		if bm.Get(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, bm.Get(i), want)
		}
	}
	if bm.Count() != set {
		t.Errorf("Count() = %d, want %d", bm.Count(), set)
	}
	if BitmapFromBytes(nil) != nil || BitmapFromBytes(make([]byte, 9)) != nil {
		t.Error("a bitmap with no bit set must be nil (the no-NULLs form)")
	}

	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindText, types.KindBool, types.KindText}
	rows := randomTypedRows(rng, kinds, 300, 0.2, 6)
	rows[4][4] = types.NewInt(1) // a stray INTEGER: stays exact
	f := NewFrame(kinds, rows)
	for c, kind := range kinds {
		vals := make([]types.Value, len(rows))
		for i, r := range rows {
			vals[i] = r[c]
		}
		got, want := (&AnyColumn{Vals: vals}).Typed(kind), f.Col(c)
		if reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Fatalf("column %d: Typed gave %T, NewFrame %T", c, got, want)
		}
		for i := range rows {
			if got.Value(i) != want.Value(i) || got.HashFNV(i, types.FNVOffset64) != want.HashFNV(i, types.FNVOffset64) {
				t.Fatalf("column %d row %d: %v, want %v", c, i, got.Value(i), want.Value(i))
			}
		}
	}
	tc := f.Col(2).(*TextColumn)
	again := NewTextColumn(tc.Codes, tc.Dict, tc.Nulls)
	for k := range tc.Dict {
		if again.DictHash[k] != tc.DictHash[k] {
			t.Fatalf("NewTextColumn hashed entry %d to %#x, NewFrame to %#x", k, again.DictHash[k], tc.DictHash[k])
		}
	}
}

// BenchmarkIsNotNullScan scans 40 000 INTEGER rows for `IS NOT NULL` at
// degrees 1 and 2, with no NULL (every row kept) and with every 16th row
// NULL.
func BenchmarkIsNotNullScan(b *testing.B) {
	const n = 40_000
	for _, nulls := range []bool{false, true} {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i))}
			if nulls && i%16 == 0 {
				rows[i] = types.Row{types.Null()}
			}
		}
		k := NewNonNullKernel(NewFrame([]types.Kind{types.KindInt}, rows).Col(0))
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("nulls=%v/par=%d", nulls, par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					RunKernels(n, nil, []Kernel{k}, parallel.NewRun(par))
				}
			})
		}
	}
}
