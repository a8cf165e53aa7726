package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// TestGatherView checks the projection gather the wire encoder and the
// columnar project+distinct rely on: values land in output order, null
// bitmaps are rebuilt (and dropped when the gathered rows have no NULL), and
// TEXT dictionaries are shared with the source frame, not copied.
func TestGatherView(t *testing.T) {
	kinds := []types.Kind{types.KindInt, types.KindText, types.KindFloat, types.KindBool}
	rows := make([]types.Row, 20)
	for i := range rows {
		var s, f types.Value
		if i%4 == 0 {
			s = types.Null()
		} else {
			s = types.NewText([]string{"red", "green", "blue"}[i%3])
		}
		if i%5 == 0 {
			f = types.Null()
		} else {
			f = types.NewFloat(float64(i) / 2)
		}
		rows[i] = types.Row{types.NewInt(int64(i * 100)), s, f, types.NewBool(i%2 == 0)}
	}
	frame := NewFrame(kinds, rows)
	view := &View{Frame: frame, Sel: []int32{1, 3, 5, 7, 9, 11, 13, 15}}

	// Project columns {text, int} in that order, gathering view positions
	// out of order and with a repeat.
	order := []int32{5, 0, 3, 0, 7}
	got := GatherView(view, []int{1, 0}, order, parallel.NewRun(2))
	if got.Rows() != len(order) || got.NumCols() != 2 {
		t.Fatalf("gathered %dx%d, want %dx2", got.Rows(), got.NumCols(), len(order))
	}
	for i, j := range order {
		src := rows[view.Index(int(j))]
		if want, have := src[1], got.Col(0).Value(i); want != have {
			t.Errorf("row %d text: got %v want %v", i, have, want)
		}
		if want, have := src[0], got.Col(1).Value(i); want != have {
			t.Errorf("row %d int: got %v want %v", i, have, want)
		}
	}

	// The gathered TEXT column must share the source dictionary storage.
	src, ok := frame.Col(1).(*TextColumn)
	if !ok {
		t.Fatal("source text column has unexpected representation")
	}
	out, ok := got.Col(0).(*TextColumn)
	if !ok {
		t.Fatal("gathered text column has unexpected representation")
	}
	if len(src.Dict) > 0 && &src.Dict[0] != &out.Dict[0] {
		t.Error("gathered text column copied the dictionary instead of sharing it")
	}

	// Gathering only non-NULL positions must drop the bitmap entirely.
	noNulls := GatherView(view, []int{2}, []int32{0, 1, 3}, parallel.NewRun(1))
	fc, ok := noNulls.Col(0).(*Float64Column)
	if !ok {
		t.Fatal("gathered float column has unexpected representation")
	}
	if fc.Nulls != nil {
		t.Error("bitmap kept for a gather with no NULLs")
	}

	// Gathering a NULL position must rebuild the bitmap at the new index:
	// view position 7 is frame row 15, whose float is NULL; position 1 is
	// frame row 3, non-NULL.
	withNull := GatherView(view, []int{2}, []int32{1, 7}, parallel.NewRun(1))
	fc, ok = withNull.Col(0).(*Float64Column)
	if !ok {
		t.Fatal("gathered float column has unexpected representation")
	}
	if fc.Null(0) || !fc.Null(1) {
		t.Errorf("rebuilt bitmap wrong: Null(0)=%v Null(1)=%v, want false/true", fc.Null(0), fc.Null(1))
	}
}

// TestGatherViewNullExtends: a gather whose positions include -1 — the
// unmatched side of an outer join — equals the row-wise NULL-padded
// expectation for every column kind (an exact-value column among them), with
// and without a selection, with and without NULLs already in the data, at par
// 1 and 4; the null bitmap is there exactly when the result has a NULL, and
// TEXT columns still share the source dictionary.
func TestGatherViewNullExtends(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindBool, types.KindText, types.KindInt}
	cols := []int{0, 1, 2, 3, 4}
	for _, nullP := range []float64{0, 0.3} {
		rows := randomTypedRows(rng, kinds, 400, nullP, 7)
		rows[3][4] = types.NewText("stray") // column 4 degrades to AnyColumn
		frame := NewFrame(kinds, rows)
		var odd []int32
		for i := 1; i < len(rows); i += 2 {
			odd = append(odd, int32(i))
		}
		for what, view := range map[string]*View{"dense": {Frame: frame}, "selected": {Frame: frame, Sel: odd}} {
			for _, padP := range []float64{0, 0.4, 1} {
				order := make([]int32, 300)
				pads := 0
				for i := range order {
					if order[i] = int32(rng.Intn(view.Len())); rng.Float64() < padP {
						order[i], pads = -1, pads+1
					}
				}
				for _, par := range []int{1, 4} {
					got := GatherView(view, cols, order, parallel.NewRun(par))
					name := fmt.Sprintf("nullP=%v %s padP=%v par=%d", nullP, what, padP, par)
					for c := range cols {
						nulls := 0
						for i, j := range order {
							want := types.Null()
							if j >= 0 {
								want = rows[view.Index(int(j))][c]
							}
							if have := got.Col(c).Value(i); have != want || got.Col(c).Null(i) != want.IsNull() {
								t.Fatalf("%s: cell (%d,%d) = %v, want %v", name, i, c, have, want)
							}
							if want.IsNull() {
								nulls++
							}
						}
						switch col := got.Col(c).(type) {
						case *Int64Column:
							if (col.Nulls != nil) != (nulls > 0) || col.Nulls.Count() != nulls {
								t.Fatalf("%s: column %d has a bitmap of %d for %d NULLs", name, c, col.Nulls.Count(), nulls)
							}
						case *TextColumn:
							if src := frame.Col(c).(*TextColumn); &col.Dict[0] != &src.Dict[0] || col.Nulls.Count() != nulls {
								t.Fatalf("%s: TEXT column %d copied its dictionary or miscounts NULLs", name, c)
							}
						}
					}
					if pads == len(order) && got.Rows() != len(order) {
						t.Fatalf("%s: an all-padded gather has %d rows", name, got.Rows())
					}
				}
			}
		}
	}
}
