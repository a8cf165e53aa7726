// Package colstore is the columnar execution layer of the reproduction:
// per-table typed column vectors with null bitmaps and a dictionary-encoded
// TEXT representation, plus the selection-vector kernels (typed predicate
// evaluation, allocation-free FNV key hashing, and the one open-addressing
// position table behind key sets, join hash tables and dedup) the engine's
// operators run on.
//
// Design rules:
//
//   - Bit-identical to the row-major values. Every primitive reproduces the
//     exact semantics of its row-major counterpart: Column.Value reconstructs
//     the stored types.Value (kind included), Column.HashFNV advances the
//     FNV-1a state by exactly the byte stream types.Value.HashInto defines,
//     and kernels implement the bound expression's three-valued predicate
//     semantics (NULL never passes). A frame therefore gives the keys, the
//     hashes and the order its rows would; internal/engine's kernel property
//     test and the differential gates in internal/wire lock this in.
//   - Late materialization. A relation is a View — an immutable frame plus
//     an ascending selection vector — and operators pass positions: filters
//     and semi-joins narrow the selection, joins gather a new frame from
//     position pairs (dictionaries shared). Tuples are boxed into types.Row
//     by View.Rows only, for the consumers that need them.
//   - Zero dependencies beyond internal/types and internal/parallel. Columns
//     are plain slices; the dictionary is a first-occurrence-ordered string
//     table with per-entry precomputed hashes.
//
// Frames are built lazily from storage.Table rows and cached on the table
// version they image (see storage.Table.Columns). Hash structures are not
// cached: every join, semi-join and dedup builds its own position table
// (hash.go) over the rows that survived the scan.
//
// Under the MVCC regime a frame belongs to exactly one published table
// version: versions are immutable once visible, so a frame, once built, is
// itself immutable and may be shared freely by every snapshot that pins its
// version — concurrent readers of the same version race only on the build
// (serialized inside storage.Table.Columns), never on the contents. A
// writer's draft starts with no frame; the frame for the successor version
// is built lazily by whichever reader first needs it.
package colstore

import (
	"math"
	"math/bits"

	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// Bitmap is a null bitmap: bit i set means row i is NULL. The nil *Bitmap is
// the common no-nulls case; Get on it is false.
type Bitmap struct {
	words []uint64
	n     int // number of set bits
}

func newBitmap(rows int) *Bitmap {
	return &Bitmap{words: make([]uint64, (rows+63)/64)}
}

// BitmapFromBytes returns the bitmap whose bit i is bit i&7 of lsb[i>>3] —
// the wire format's LSB-first byte order — or nil when no bit is set.
func BitmapFromBytes(lsb []byte) *Bitmap {
	b := &Bitmap{words: make([]uint64, (len(lsb)+7)/8)}
	for i, x := range lsb {
		b.words[i>>3] |= uint64(x) << (8 * (i & 7))
		b.n += bits.OnesCount8(x)
	}
	if b.n == 0 {
		return nil
	}
	return b
}

func (b *Bitmap) set(i int) {
	w := &b.words[i>>6]
	mask := uint64(1) << (i & 63)
	if *w&mask == 0 {
		*w |= mask
		b.n++
	}
}

// Get reports whether row i is NULL. Safe on a nil receiver (no nulls).
func (b *Bitmap) Get(i int) bool {
	if b == nil {
		return false
	}
	return b.words[i>>6]&(1<<(i&63)) != 0
}

// Count returns the number of NULL rows. Safe on a nil receiver.
func (b *Bitmap) Count() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Column is one typed vector of a Frame. Implementations reconstruct the
// exact stored value (Value), test NULL without materializing (Null), and
// advance a running FNV-1a hash state by the value's canonical hash encoding
// (HashFNV) — byte-identical to types.Value.HashFNV on the stored value.
type Column interface {
	Len() int
	Null(i int) bool
	Value(i int) types.Value
	HashFNV(i int, h uint64) uint64
}

// Int64Column stores an INTEGER column as raw int64s plus a null bitmap.
type Int64Column struct {
	Vals  []int64
	Nulls *Bitmap
}

func (c *Int64Column) Len() int        { return len(c.Vals) }
func (c *Int64Column) Null(i int) bool { return c.Nulls.Get(i) }

func (c *Int64Column) Value(i int) types.Value {
	if c.Nulls.Get(i) {
		return types.Null()
	}
	return types.NewInt(c.Vals[i])
}

func (c *Int64Column) HashFNV(i int, h uint64) uint64 {
	if c.Nulls.Get(i) {
		return types.FNVByte(h, 0)
	}
	// Numeric values hash by the float bit pattern (see types.Value.HashInto)
	// so INTEGER 1 and DOUBLE 1.0 hash identically.
	return types.FNVUint64LE(types.FNVByte(h, 1), math.Float64bits(float64(c.Vals[i])))
}

// Float64Column stores a DOUBLE column as raw float64s plus a null bitmap.
type Float64Column struct {
	Vals  []float64
	Nulls *Bitmap
}

func (c *Float64Column) Len() int        { return len(c.Vals) }
func (c *Float64Column) Null(i int) bool { return c.Nulls.Get(i) }

func (c *Float64Column) Value(i int) types.Value {
	if c.Nulls.Get(i) {
		return types.Null()
	}
	return types.NewFloat(c.Vals[i])
}

func (c *Float64Column) HashFNV(i int, h uint64) uint64 {
	if c.Nulls.Get(i) {
		return types.FNVByte(h, 0)
	}
	return types.FNVUint64LE(types.FNVByte(h, 1), math.Float64bits(c.Vals[i]))
}

// BoolColumn stores a BOOLEAN column plus a null bitmap.
type BoolColumn struct {
	Vals  []bool
	Nulls *Bitmap
}

func (c *BoolColumn) Len() int        { return len(c.Vals) }
func (c *BoolColumn) Null(i int) bool { return c.Nulls.Get(i) }

func (c *BoolColumn) Value(i int) types.Value {
	if c.Nulls.Get(i) {
		return types.Null()
	}
	return types.NewBool(c.Vals[i])
}

func (c *BoolColumn) HashFNV(i int, h uint64) uint64 {
	if c.Nulls.Get(i) {
		return types.FNVByte(h, 0)
	}
	h = types.FNVByte(h, 3)
	if c.Vals[i] {
		return types.FNVByte(h, 1)
	}
	return types.FNVByte(h, 0)
}

// TextColumn stores a TEXT column dictionary-encoded: per-row uint32 codes
// into a first-occurrence-ordered string dictionary. Equal codes ⇔ equal
// strings, so predicate evaluation and dedup compare codes; hashing of a
// fresh key (FNV state at the offset basis) is a precomputed per-entry
// lookup instead of a per-byte string walk.
type TextColumn struct {
	Codes []uint32
	Dict  []string
	// DictHash[c] is the full FNV-1a hash of Dict[c]'s value encoding from
	// the offset basis — valid only as the first (or only) key column of a
	// composite hash; chained states fall back to the byte walk.
	DictHash []uint64
	Nulls    *Bitmap
}

// NewTextColumn wraps per-row codes into dict (whose entries must be
// distinct) and computes the per-entry hashes.
func NewTextColumn(codes []uint32, dict []string, nulls *Bitmap) *TextColumn {
	hashes := make([]uint64, len(dict))
	for k, s := range dict {
		hashes[k] = types.NewText(s).HashFNV(types.FNVOffset64)
	}
	return &TextColumn{Codes: codes, Dict: dict, DictHash: hashes, Nulls: nulls}
}

func (c *TextColumn) Len() int        { return len(c.Codes) }
func (c *TextColumn) Null(i int) bool { return c.Nulls.Get(i) }

func (c *TextColumn) Value(i int) types.Value {
	if c.Nulls.Get(i) {
		return types.Null()
	}
	return types.NewText(c.Dict[c.Codes[i]])
}

func (c *TextColumn) HashFNV(i int, h uint64) uint64 {
	if c.Nulls.Get(i) {
		return types.FNVByte(h, 0)
	}
	code := c.Codes[i]
	if h == types.FNVOffset64 {
		return c.DictHash[code] // dictionary fast path
	}
	h = types.FNVByte(h, 2)
	h = types.FNVString(h, c.Dict[code])
	return types.FNVByte(h, 0xff)
}

// Keep evaluates pass over every dictionary entry once, returning the
// per-code keep mask text predicate kernels run on: O(|dict|) predicate
// evaluations instead of O(rows).
func (c *TextColumn) Keep(pass func(s string) bool) []bool {
	keep := make([]bool, len(c.Dict))
	for k, s := range c.Dict {
		keep[k] = pass(s)
	}
	return keep
}

// AnyColumn is the fallback representation for columns whose values do not
// all match the declared kind (intermediate relations after folds, NULL-typed
// schema columns): it stores the original values, so reconstruction is exact
// by construction.
type AnyColumn struct {
	Vals []types.Value
}

// Typed returns the vector NewFrame builds for c's values under kind: typed
// when every value is of that kind or NULL, an exact-value column otherwise.
// It is how a column that arrived as values (a decoded inline-text or `any`
// block) gets codes and a dictionary before it is joined on or gathered.
func (c *AnyColumn) Typed(kind types.Kind) Column {
	rows := make([]types.Row, len(c.Vals))
	for i := range rows {
		rows[i] = c.Vals[i : i+1]
	}
	return buildColumn(kind, rows, 0)
}

func (c *AnyColumn) Len() int                       { return len(c.Vals) }
func (c *AnyColumn) Null(i int) bool                { return c.Vals[i].IsNull() }
func (c *AnyColumn) Value(i int) types.Value        { return c.Vals[i] }
func (c *AnyColumn) HashFNV(i int, h uint64) uint64 { return c.Vals[i].HashFNV(h) }

// Frame is the columnar image of a relation: one typed Column per schema
// column, all of equal length. Frames are immutable once built.
type Frame struct {
	cols []Column
	n    int
	// src is the row slice the frame was built from (NewFrame), nil for a
	// gathered frame; View.Rows hands these rows back instead of boxing.
	src []types.Row
}

// Rows returns the row count.
func (f *Frame) Rows() int { return f.n }

// NumCols returns the column count.
func (f *Frame) NumCols() int { return len(f.cols) }

// Col returns column i.
func (f *Frame) Col(i int) Column { return f.cols[i] }

// DictEntries returns the total number of dictionary entries across the
// frame's TEXT columns (surfaced in trace spans).
func (f *Frame) DictEntries() int {
	n := 0
	for _, c := range f.cols {
		if tc, ok := c.(*TextColumn); ok {
			n += len(tc.Dict)
		}
	}
	return n
}

// FrameOf wraps already-built columns, each of length n, in a frame: how a
// producer that has typed vectors in hand (the wire decoder) makes one without
// going through rows.
func FrameOf(n int, cols []Column) *Frame {
	return &Frame{cols: cols, n: n}
}

// NewFrame builds the columnar image of rows under the declared column
// kinds. Columns whose values all match their declared kind (or are NULL)
// get a typed vector; mismatching columns fall back to AnyColumn so value
// reconstruction stays exact. The frame keeps rows (which must not change
// afterwards) so View.Rows can return them.
func NewFrame(kinds []types.Kind, rows []types.Row) *Frame {
	f := &Frame{cols: make([]Column, len(kinds)), n: len(rows), src: rows[:len(rows):len(rows)]}
	for j, kind := range kinds {
		f.cols[j] = buildColumn(kind, rows, j)
	}
	return f
}

// buildColumn builds one typed column, falling back to AnyColumn on the
// first value whose kind does not match the declaration.
func buildColumn(kind types.Kind, rows []types.Row, j int) Column {
	n := len(rows)
	switch kind {
	case types.KindInt:
		vals := make([]int64, n)
		var nulls *Bitmap
		for i, r := range rows {
			v := r[j]
			switch {
			case v.IsNull():
				if nulls == nil {
					nulls = newBitmap(n)
				}
				nulls.set(i)
			case v.Kind() == types.KindInt:
				vals[i] = v.Int()
			default:
				return anyColumn(rows, j)
			}
		}
		return &Int64Column{Vals: vals, Nulls: nulls}
	case types.KindFloat:
		vals := make([]float64, n)
		var nulls *Bitmap
		for i, r := range rows {
			v := r[j]
			switch {
			case v.IsNull():
				if nulls == nil {
					nulls = newBitmap(n)
				}
				nulls.set(i)
			case v.Kind() == types.KindFloat:
				vals[i] = v.Float()
			default:
				return anyColumn(rows, j)
			}
		}
		return &Float64Column{Vals: vals, Nulls: nulls}
	case types.KindBool:
		vals := make([]bool, n)
		var nulls *Bitmap
		for i, r := range rows {
			v := r[j]
			switch {
			case v.IsNull():
				if nulls == nil {
					nulls = newBitmap(n)
				}
				nulls.set(i)
			case v.Kind() == types.KindBool:
				vals[i] = v.Bool()
			default:
				return anyColumn(rows, j)
			}
		}
		return &BoolColumn{Vals: vals, Nulls: nulls}
	case types.KindText:
		codes := make([]uint32, n)
		var nulls *Bitmap
		var dict []string
		index := make(map[string]uint32)
		for i, r := range rows {
			v := r[j]
			switch {
			case v.IsNull():
				if nulls == nil {
					nulls = newBitmap(n)
				}
				nulls.set(i)
			case v.Kind() == types.KindText:
				s := v.Text()
				code, ok := index[s]
				if !ok {
					code = uint32(len(dict))
					index[s] = code
					dict = append(dict, s)
				}
				codes[i] = code
			default:
				return anyColumn(rows, j)
			}
		}
		return NewTextColumn(codes, dict, nulls)
	default:
		return anyColumn(rows, j)
	}
}

func anyColumn(rows []types.Row, j int) Column {
	vals := make([]types.Value, len(rows))
	for i, r := range rows {
		vals[i] = r[j]
	}
	return &AnyColumn{Vals: vals}
}

// GatherView materializes a new Frame from a subset of v's columns and
// logical positions: column j of the result is v's frame column cols[j]
// restricted to the rows order[i] (logical view positions, in output order,
// repeats allowed). Dictionaries and their precomputed hashes are shared with
// the source — gathering a TEXT column copies uint32 codes, never strings —
// which is what lets a join output semi-join a base relation by dictionary
// code and the columnar wire encoder reuse scan-time dictionaries with zero
// string re-encoding. Column gathers run at degree par; the result is
// identical at any degree.
func GatherView(v *View, cols []int, order []int32, par int) *Frame {
	f := &Frame{cols: make([]Column, len(cols)), n: len(order)}
	idx := make([]int, len(order))
	for i, j := range order {
		idx[i] = v.Index(int(j))
	}
	parallel.Each(len(cols), par, func(j int) {
		f.cols[j] = gatherColumn(v.Frame.cols[cols[j]], idx)
	})
	return f
}

// Project returns the frame of f's columns cols, in that order. Column
// vectors are shared, not copied.
func (f *Frame) Project(cols []int) *Frame {
	out := &Frame{cols: make([]Column, len(cols)), n: f.n}
	for j, c := range cols {
		out.cols[j] = f.cols[c]
	}
	return out
}

// Zip returns the frame of a's columns followed by b's (a join output: the
// two sides gathered to the same row count). Column vectors are shared.
func Zip(a, b *Frame) *Frame {
	return &Frame{cols: append(append([]Column(nil), a.cols...), b.cols...), n: a.n}
}

// gatherNulls rebuilds the null bitmap of a gathered column (nil when the
// gathered rows contain no NULL).
func gatherNulls(src *Bitmap, idx []int) *Bitmap {
	if src == nil {
		return nil
	}
	var out *Bitmap
	for i, j := range idx {
		if src.Get(j) {
			if out == nil {
				out = newBitmap(len(idx))
			}
			out.set(i)
		}
	}
	return out
}

// gatherColumn restricts one column to the frame row indices in idx.
func gatherColumn(c Column, idx []int) Column {
	switch c := c.(type) {
	case *Int64Column:
		vals := make([]int64, len(idx))
		for i, j := range idx {
			vals[i] = c.Vals[j]
		}
		return &Int64Column{Vals: vals, Nulls: gatherNulls(c.Nulls, idx)}
	case *Float64Column:
		vals := make([]float64, len(idx))
		for i, j := range idx {
			vals[i] = c.Vals[j]
		}
		return &Float64Column{Vals: vals, Nulls: gatherNulls(c.Nulls, idx)}
	case *BoolColumn:
		vals := make([]bool, len(idx))
		for i, j := range idx {
			vals[i] = c.Vals[j]
		}
		return &BoolColumn{Vals: vals, Nulls: gatherNulls(c.Nulls, idx)}
	case *TextColumn:
		codes := make([]uint32, len(idx))
		for i, j := range idx {
			codes[i] = c.Codes[j]
		}
		return &TextColumn{Codes: codes, Dict: c.Dict, DictHash: c.DictHash, Nulls: gatherNulls(c.Nulls, idx)}
	default:
		vals := make([]types.Value, len(idx))
		for i, j := range idx {
			vals[i] = c.Value(j)
		}
		return &AnyColumn{Vals: vals}
	}
}

// View is a Frame restricted to a selection vector: Sel lists the surviving
// frame row indices in ascending order; nil Sel means all rows. It is what an
// engine relation is made of.
type View struct {
	Frame *Frame
	Sel   []int32
}

// Len returns the number of selected rows.
func (v *View) Len() int {
	if v.Sel == nil {
		return v.Frame.Rows()
	}
	return len(v.Sel)
}

// Index maps a logical (selection) position to its frame row index.
func (v *View) Index(j int) int {
	if v.Sel == nil {
		return j
	}
	return int(v.Sel[j])
}

// Narrow returns the view restricted to the logical positions in keep
// (ascending): the composed selection vector over the same frame.
func (v *View) Narrow(keep []int32) *View {
	sel := make([]int32, len(keep))
	if v.Sel == nil {
		copy(sel, keep)
	} else {
		for i, j := range keep {
			sel[i] = v.Sel[j]
		}
	}
	return &View{Frame: v.Frame, Sel: sel}
}

// boxTile is how many rows View.Rows boxes at a time: a tile of cells
// (boxTile rows x every column, 32 bytes a cell) stays cache-resident while
// the columns are written into it one after the other, so the column-major
// source is read sequentially and the row-major block is written once.
const boxTile = 128

// Rows boxes the selected rows into tuples, in order: the rows the frame was
// built from when it has them (pointer copies; the result may alias the
// builder's slice and must not be modified), otherwise fresh rows over one
// value block. This is the system's one boxing loop — the engine's output,
// the post-join's and a decoded payload's rows all come from here.
func (v *View) Rows() []types.Row {
	f := v.Frame
	if f.src != nil {
		if v.Sel == nil {
			return f.src
		}
		out := make([]types.Row, len(v.Sel))
		for i, j := range v.Sel {
			out[i] = f.src[j]
		}
		return out
	}
	n := v.Len()
	out := types.MakeRows(n, len(f.cols))
	for lo := 0; lo < n; lo += boxTile {
		hi := min(lo+boxTile, n)
		var sel []int32
		if v.Sel != nil {
			sel = v.Sel[lo:hi]
		}
		for c, col := range f.cols {
			boxColumn(out[lo:hi], c, col, lo, sel)
		}
	}
	return out
}

// boxColumn writes column c of one tile: rows[i][c] becomes col's value at
// frame row sel[i] (lo+i when sel is nil). One type switch per call; an
// unselected column without NULLs is a straight copy loop. NULL cells are
// left alone — rows come zeroed from MakeRows and the zero Value is NULL.
func boxColumn(rows []types.Row, c int, col Column, lo int, sel []int32) {
	at := func(i int) int {
		if sel != nil {
			return int(sel[i])
		}
		return lo + i
	}
	switch col := col.(type) {
	case *Int64Column:
		if sel == nil && col.Nulls == nil {
			for i, x := range col.Vals[lo : lo+len(rows)] {
				rows[i][c] = types.NewInt(x)
			}
			return
		}
		for i := range rows {
			if f := at(i); !col.Nulls.Get(f) {
				rows[i][c] = types.NewInt(col.Vals[f])
			}
		}
	case *Float64Column:
		if sel == nil && col.Nulls == nil {
			for i, x := range col.Vals[lo : lo+len(rows)] {
				rows[i][c] = types.NewFloat(x)
			}
			return
		}
		for i := range rows {
			if f := at(i); !col.Nulls.Get(f) {
				rows[i][c] = types.NewFloat(col.Vals[f])
			}
		}
	case *BoolColumn:
		if sel == nil && col.Nulls == nil {
			for i, x := range col.Vals[lo : lo+len(rows)] {
				rows[i][c] = types.NewBool(x)
			}
			return
		}
		for i := range rows {
			if f := at(i); !col.Nulls.Get(f) {
				rows[i][c] = types.NewBool(col.Vals[f])
			}
		}
	case *TextColumn:
		if sel == nil && col.Nulls == nil {
			for i, code := range col.Codes[lo : lo+len(rows)] {
				rows[i][c] = types.NewText(col.Dict[code])
			}
			return
		}
		for i := range rows {
			if f := at(i); !col.Nulls.Get(f) {
				rows[i][c] = types.NewText(col.Dict[col.Codes[f]])
			}
		}
	case *AnyColumn:
		for i := range rows {
			rows[i][c] = col.Vals[at(i)]
		}
	default:
		for i := range rows {
			rows[i][c] = col.Value(at(i))
		}
	}
}
