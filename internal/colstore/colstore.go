// Package colstore is the columnar execution layer of the reproduction:
// per-table typed column vectors with null bitmaps and a dictionary-encoded
// TEXT representation, plus the selection-vector kernels (typed predicate
// evaluation, allocation-free FNV key hashing, and the one open-addressing
// position table behind key sets, join hash tables, dedup and grouping) the
// engine's operators run on.
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
//     position pairs (dictionaries shared; a negative position gathers
//     NULL). Tuples are boxed into types.Row by View.Rows only, for the
//     consumers outside the engine that need them.
//   - Zero dependencies beyond internal/types and internal/parallel. Columns
//     are plain slices; the dictionary is a first-occurrence-ordered string
//     table with per-entry precomputed hashes.
//
// A base table is a frame (storage.Table holds one and nothing else): inserts
// append each value to its column's vector through Column.Append, the method
// NewFrame drives too, so one place knows how a value lands in a vector.
// Hash structures are not cached: every join, semi-join and dedup builds its
// own position table (hash.go) over the rows that survived the scan.
//
// Under the MVCC regime a published version's frame is immutable and shared by
// every snapshot that pins it. A writer's draft extends its parent's frame
// (Frame.Extend): headers of its own over the same backing arrays, so what it
// appends lies past the length the parent's headers carry and no reader of the
// parent sees it. Two things need more than that slice rule — a null bitmap's
// last, partial word (Bitmap) and a TEXT column's string-to-code index
// (TextColumn). Dictionaries grow in first-occurrence order, so codes are
// those of a frame built from row 0.
package colstore

import (
	"math"
	"math/bits"
	"slices"

	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// Bitmap is a null bitmap: bit i set means row i is NULL. The nil *Bitmap is
// the common no-nulls case; Get on it is false. Bits are set in ascending row
// order and rows past the last set bit read as not NULL. A successor version
// appending a NULL must not write a word its parent's readers read, so only
// the complete words are shared (words, append-only); the word still filling,
// word len(words), is held by value in the header (tail), private to it.
type Bitmap struct {
	words []uint64
	tail  uint64
	n     int // number of set bits
}

// BitmapFromBytes returns the bitmap whose bit i is bit i&7 of lsb[i>>3] —
// the wire format's LSB-first byte order — or nil when no bit is set.
func BitmapFromBytes(lsb []byte) *Bitmap {
	words := make([]uint64, (len(lsb)+7)/8)
	n := 0
	for i, x := range lsb {
		words[i>>3] |= uint64(x) << (8 * (i & 7))
		n += bits.OnesCount8(x)
	}
	if n == 0 {
		return nil
	}
	last := len(words) - 1
	for words[last] == 0 {
		last--
	}
	return &Bitmap{words: words[:last], tail: words[last], n: n}
}

// with returns b — a fresh bitmap when b is nil — with bit i set; i must not
// precede a bit already set.
func (b *Bitmap) with(i int) *Bitmap {
	if b == nil {
		b = &Bitmap{}
	}
	for w := i >> 6; len(b.words) < w; {
		b.words = append(b.words, b.tail)
		b.tail = 0
	}
	if mask := uint64(1) << (i & 63); b.tail&mask == 0 {
		b.tail |= mask
		b.n++
	}
	return b
}

// fork returns a header of its own over the same complete words.
func (b *Bitmap) fork() *Bitmap {
	if b == nil {
		return nil
	}
	c := *b
	return &c
}

// Get reports whether row i is NULL. Safe on a nil receiver (no nulls).
func (b *Bitmap) Get(i int) bool {
	if b == nil {
		return false
	}
	w := i >> 6
	if w < len(b.words) {
		return b.words[w]&(1<<(i&63)) != 0
	}
	return w == len(b.words) && b.tail&(1<<(i&63)) != 0
}

// word returns the bits of rows at..at+63 as one word, row at+i in bit i;
// rows past the bitmap read 0. Safe on a nil receiver (no nulls).
func (b *Bitmap) word(at int) uint64 {
	if b == nil {
		return 0
	}
	w, s := at>>6, at&63
	return b.wordAt(w)>>s | b.wordAt(w+1)<<(64-s) // a shift by 64 is 0
}

// wordAt returns word w of the bitmap: a complete word, the tail, or 0.
func (b *Bitmap) wordAt(w int) uint64 {
	switch {
	case w < len(b.words):
		return b.words[w]
	case w == len(b.words):
		return b.tail
	}
	return 0
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
//
// Append adds v as row Len(), or refuses (false, nothing appended) a value
// neither NULL nor of the column's kind. It is how every builder — a table's
// inserts, NewFrame — fills a vector no reader has been handed yet.
type Column interface {
	Len() int
	Null(i int) bool
	Value(i int) types.Value
	HashFNV(i int, h uint64) uint64
	Append(v types.Value) bool
}

// newColumn returns an empty vector for kind with room for n rows; kinds
// without a typed vector get the exact-value column.
func newColumn(kind types.Kind, n int) Column {
	switch kind {
	case types.KindInt:
		return &Int64Column{Vals: make([]int64, 0, n)}
	case types.KindFloat:
		return &Float64Column{Vals: make([]float64, 0, n)}
	case types.KindBool:
		return &BoolColumn{Vals: make([]bool, 0, n)}
	case types.KindText:
		return &TextColumn{Codes: make([]uint32, 0, n)}
	default:
		return &AnyColumn{Vals: make([]types.Value, 0, n)}
	}
}

// appendCell appends v to vals — its payload when it is of kind, a zero with
// its null bit set when it is NULL — or reports false.
func appendCell[T any](vals []T, nulls *Bitmap, v types.Value, kind types.Kind, payload func(types.Value) T) ([]T, *Bitmap, bool) {
	var cell T
	switch v.Kind() {
	case kind:
		cell = payload(v)
	case types.KindNull:
		nulls = nulls.with(len(vals))
	default:
		return vals, nulls, false
	}
	return append(vals, cell), nulls, true
}

// fork returns a header of its own over c's vectors (see Frame.Extend).
func fork(c Column) Column {
	switch c := c.(type) {
	case *Int64Column:
		return &Int64Column{Vals: c.Vals, Nulls: c.Nulls.fork()}
	case *Float64Column:
		return &Float64Column{Vals: c.Vals, Nulls: c.Nulls.fork()}
	case *BoolColumn:
		return &BoolColumn{Vals: c.Vals, Nulls: c.Nulls.fork()}
	case *TextColumn:
		d := *c
		d.Nulls = c.Nulls.fork()
		return &d
	default:
		return &AnyColumn{Vals: c.(*AnyColumn).Vals}
	}
}

// Int64Column stores an INTEGER column as raw int64s plus a null bitmap.
type Int64Column struct {
	Vals  []int64
	Nulls *Bitmap
}

func (c *Int64Column) Len() int        { return len(c.Vals) }
func (c *Int64Column) Null(i int) bool { return c.Nulls.Get(i) }

func (c *Int64Column) Append(v types.Value) (ok bool) {
	c.Vals, c.Nulls, ok = appendCell(c.Vals, c.Nulls, v, types.KindInt, types.Value.Int)
	return ok
}

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

func (c *Float64Column) Append(v types.Value) (ok bool) {
	c.Vals, c.Nulls, ok = appendCell(c.Vals, c.Nulls, v, types.KindFloat, types.Value.Float)
	return ok
}

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

func (c *BoolColumn) Append(v types.Value) (ok bool) {
	c.Vals, c.Nulls, ok = appendCell(c.Vals, c.Nulls, v, types.KindBool, types.Value.Bool)
	return ok
}

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
// lookup instead of a per-byte string walk. The dictionary is append-only — a
// string keeps its code for good — so table versions share Dict and DictHash
// like any other vector and differ only in length.
type TextColumn struct {
	Codes []uint32
	Dict  []string
	// DictHash[c] is the full FNV-1a hash of Dict[c]'s value encoding from
	// the offset basis — valid only as the first (or only) key column of a
	// composite hash; chained states fall back to the byte walk.
	DictHash []uint64
	Nulls    *Bitmap
	// index maps string to code for Append: the writer's alone, built on first
	// use, handed from version to successor. A discarded draft's entries stay
	// behind, so one counts only if Dict[code] reads back the same string.
	index map[string]uint32
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

func (c *TextColumn) Append(v types.Value) (ok bool) {
	c.Codes, c.Nulls, ok = appendCell(c.Codes, c.Nulls, v, types.KindText, c.code)
	return ok
}

// code returns the dictionary code of TEXT value v, the next one if its string
// is new.
func (c *TextColumn) code(v types.Value) uint32 {
	s := v.Text()
	if c.index == nil {
		c.index = make(map[string]uint32, len(c.Dict))
		for k, d := range c.Dict {
			c.index[d] = uint32(k)
		}
	}
	code, ok := c.index[s]
	if !ok || int(code) >= len(c.Dict) || c.Dict[code] != s {
		code = uint32(len(c.Dict))
		c.index[s] = code
		c.Dict = append(c.Dict, s)
		c.DictHash = append(c.DictHash, v.HashFNV(types.FNVOffset64))
	}
	return code
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
	col := newColumn(kind, len(c.Vals))
	for _, v := range c.Vals {
		if !col.Append(v) {
			return c
		}
	}
	return col
}

func (c *AnyColumn) Append(v types.Value) bool {
	c.Vals = append(c.Vals, v)
	return true
}

func (c *AnyColumn) Len() int                       { return len(c.Vals) }
func (c *AnyColumn) Null(i int) bool                { return c.Vals[i].IsNull() }
func (c *AnyColumn) Value(i int) types.Value        { return c.Vals[i] }
func (c *AnyColumn) HashFNV(i int, h uint64) uint64 { return c.Vals[i].HashFNV(h) }

// Frame is a relation in columns: one typed Column per schema column, all of
// equal length. A frame that has been handed out is immutable; the one frame
// that grows is a base table's while it is the writer's draft (Empty, Extend,
// AppendRow), every other is built whole.
type Frame struct {
	cols []Column
	n    int
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

// Empty returns a frame of no rows over vectors of kinds: a new base table.
func Empty(kinds []types.Kind) *Frame { return NewFrame(kinds, nil) }

// Extend returns a frame with headers of its own over f's vectors and
// dictionaries, in O(columns): the draft of f's successor version. Appends to
// it land in the shared backing arrays past what f's headers can see, so f
// never changes. Only one extension of the newest frame may grow at a time.
func (f *Frame) Extend() *Frame {
	out := &Frame{cols: make([]Column, len(f.cols)), n: f.n}
	for j, c := range f.cols {
		out.cols[j] = fork(c)
	}
	return out
}

// AppendRow appends one row, already coerced to the columns' kinds
// (storage.Table does that): a refused value is a bug and panics rather than
// leave the columns at unequal length.
func (f *Frame) AppendRow(vals []types.Value) {
	for j, v := range vals {
		if !f.cols[j].Append(v) {
			panic("colstore: " + v.Kind().String() + " value appended to a column of another kind")
		}
	}
	f.n++
}

// NewFrame builds the columnar image of rows under the declared column
// kinds. Columns whose values all match their declared kind (or are NULL)
// get a typed vector; mismatching columns fall back to AnyColumn so value
// reconstruction stays exact. The frame keeps nothing of rows.
func NewFrame(kinds []types.Kind, rows []types.Row) *Frame {
	f := &Frame{cols: make([]Column, len(kinds)), n: len(rows)}
	for j, kind := range kinds {
		f.cols[j] = buildColumn(kind, rows, j)
	}
	return f
}

// buildColumn builds column j of rows as a vector of kind, falling back to
// the exact-value column on the first value the typed vector refuses.
func buildColumn(kind types.Kind, rows []types.Row, j int) Column {
	col := newColumn(kind, len(rows))
	for _, r := range rows {
		if !col.Append(r[j]) {
			return buildColumn(types.KindNull, rows, j)
		}
	}
	return col
}

// GatherView materializes a new Frame from a subset of v's columns and
// logical positions: column j of the result is v's frame column cols[j]
// restricted to the rows order[i] (logical view positions, in output order,
// repeats allowed). A negative position gathers NULL in every column — the
// unmatched side of an outer join. Dictionaries and their precomputed hashes
// are shared with the source — gathering a TEXT column copies uint32 codes,
// never strings — which is what lets a join output semi-join a base relation
// by dictionary code and the columnar wire encoder reuse scan-time
// dictionaries with zero string re-encoding. Column gathers run at degree par;
// the result is identical at any degree.
func GatherView(v *View, cols []int, order []int32, par int) *Frame {
	f := &Frame{cols: make([]Column, len(cols)), n: len(order)}
	idx := order // without a selection, logical positions are frame rows
	if v.Sel != nil {
		idx = make([]int32, len(order))
		for i, j := range order {
			if j >= 0 {
				j = v.Sel[j]
			}
			idx[i] = j
		}
	}
	pad := slices.ContainsFunc(order, func(j int32) bool { return j < 0 })
	parallel.Each(len(cols), par, func(j int) {
		f.cols[j] = gatherColumn(v.Frame.cols[cols[j]], idx, pad)
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
// gathered rows contain no NULL); pad says idx has negative entries, each a
// NULL of its own.
func gatherNulls(src *Bitmap, idx []int32, pad bool) *Bitmap {
	if src == nil && !pad {
		return nil
	}
	var out *Bitmap
	for i, j := range idx {
		if j < 0 || src.Get(int(j)) {
			out = out.with(i)
		}
	}
	return out
}

// gather copies vals at the indices idx; when pad says some are negative,
// those leave the zero cell (which a set null bit, or the zero Value, makes
// NULL).
func gather[T any](vals []T, idx []int32, pad bool) []T {
	out := make([]T, len(idx))
	if !pad {
		for i, j := range idx {
			out[i] = vals[j]
		}
		return out
	}
	for i, j := range idx {
		if j >= 0 {
			out[i] = vals[j]
		}
	}
	return out
}

// gatherColumn restricts one column to the frame row indices in idx.
func gatherColumn(c Column, idx []int32, pad bool) Column {
	switch c := c.(type) {
	case *Int64Column:
		return &Int64Column{Vals: gather(c.Vals, idx, pad), Nulls: gatherNulls(c.Nulls, idx, pad)}
	case *Float64Column:
		return &Float64Column{Vals: gather(c.Vals, idx, pad), Nulls: gatherNulls(c.Nulls, idx, pad)}
	case *BoolColumn:
		return &BoolColumn{Vals: gather(c.Vals, idx, pad), Nulls: gatherNulls(c.Nulls, idx, pad)}
	case *TextColumn:
		return &TextColumn{Codes: gather(c.Codes, idx, pad), Dict: c.Dict, DictHash: c.DictHash, Nulls: gatherNulls(c.Nulls, idx, pad)}
	default:
		return &AnyColumn{Vals: gather(c.(*AnyColumn).Vals, idx, pad)}
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
// (ascending), and takes keep over as the new view's selection: where v has
// a selection, each position is rewritten in place to its frame row index
// (keep[i] only ever reads v.Sel, never another entry of keep). The caller
// hands keep over and does not touch it afterwards. A nil keep selects no
// rows.
func (v *View) Narrow(keep []int32) *View {
	if keep == nil {
		keep = []int32{}
	}
	if v.Sel != nil {
		for i, j := range keep {
			keep[i] = v.Sel[j]
		}
	}
	return &View{Frame: v.Frame, Sel: keep}
}

// boxTile is how many rows View.Rows boxes at a time: a tile of cells
// (boxTile rows x every column, 32 bytes a cell) stays cache-resident while
// the columns are written into it one after the other, so the column-major
// source is read sequentially and the row-major block is written once.
const boxTile = 128

// Rows boxes the selected rows into tuples, in order: fresh rows over one
// value block. This is the system's one boxing loop — a table's rows, the
// engine's output, the post-join's and a decoded payload's all come from here.
func (v *View) Rows() []types.Row {
	f := v.Frame
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
