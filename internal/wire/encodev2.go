package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"resultdb/internal/colstore"
	"resultdb/internal/db"
	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// The v2 payload is column-at-a-time. A set still opens with name, column
// count, column names, and row count (byte-identical to v1 up to here), but
// the rows follow as one block per column instead of tagged values row by
// row. Each column block is
//
//	desc byte
//	[ uvarint compressed-length + deflate stream   — when the flate bit is set ]
//	[ null bitmap, ceil(n/8) bytes, LSB-first, set bit = NULL — when hasNulls ]
//	payload
//
// (bitmap and payload are what the deflate stream inflates to). The desc
// byte packs, LSB up: a 2-bit payload variant, the hasNulls bit, a 3-bit
// column kind, the flate bit, and a reserved zero bit. Payloads by kind:
//
//	allNull — nothing: every row is NULL. Only legal for n <= v2AllNullMax,
//	          so a near-empty column block cannot claim an absurd row count
//	          (larger all-NULL columns ship as `any`, which deflate crushes).
//	int     — variant 0: one zigzag varint per non-NULL value.
//	          variant 1: varint of the first value, then varints of the
//	          wrapping int64 deltas (exact for any values, tiny for runs of
//	          ascending keys).
//	float   — the nn non-NULL values' IEEE bits as 8 byte planes (Parquet's
//	          BYTE_STREAM_SPLIT): byte 0 of every value, then byte 1 of
//	          every value, ..., byte 7. Sign and exponent bytes of similar
//	          values repeat, so their planes are runs deflate matches.
//	text    — variant 0 (inline): the uvarint length of every non-NULL
//	          value, then all their bytes back to back.
//	          variant 1 (dictionary): uvarint dictionary size, every entry's
//	          uvarint length, the entries' bytes (first-occurrence order),
//	          then one uvarint code per non-NULL value. When the result set
//	          carries a colstore view, codes are remapped from the scan-time
//	          dictionary without hashing a single string.
//	          Either way deflate sees the lengths and the bytes as two
//	          homogeneous streams, and the decoder copies the bytes once
//	          into one string every value or entry slices.
//	bool    — non-NULL values bit-packed LSB-first, ceil(nn/8) bytes.
//	any     — all n values (NULLs included) as v1 tagged values; the
//	          mixed-kind escape hatch, never has a bitmap.
//
// Splitting a block into streams only reorders its bytes: a float costs 8 of
// them and a string its length's uvarint plus its bytes, as in v1. Every
// choice is pick-the-smaller with a deterministic tie-break, so the encoding
// is a pure function of the result: parallel and serial encodes, vec-backed
// and row-backed gathers, the server's chunk stream and an in-process encode
// all produce identical bytes. For typed columns the desc byte replaces n tag
// bytes and the bitmap costs ceil(n/8) <= n-1 of them, so a v2 set never
// exceeds its v1 size (mixed-kind columns, which none of the workloads
// produce, cost at most one extra byte each).

// desc byte layout.
const (
	colVariantMask = 0x03   // bits 0-1: payload variant
	colNullsBit    = 1 << 2 // bit 2: null bitmap present
	colKindShift   = 3      // bits 3-5: column kind
	colFlateBit    = 1 << 6 // bit 6: bitmap+payload deflate-compressed
	colReservedBit = 1 << 7 // bit 7: must be zero
)

// column kinds.
const (
	colAllNull = 0
	colInt     = 1
	colFloat   = 2
	colText    = 3
	colBool    = 4
	colAny     = 5
)

// payload variants.
const (
	intPlain   = 0
	intDelta   = 1
	textInline = 0
	textDict   = 1
)

// Decoder-plausibility constants. A v2 column legitimately materializes at
// most 8256 values per encoded body byte (8 from bool bit-packing times
// 1032, deflate's maximum compression ratio), plus the v2AllNullMax rows an
// empty-body all-NULL column may carry. The decoder rejects any column
// claiming more before allocating, and bounds the total cells of a payload
// by the same arithmetic, so a hostile header cannot drive allocation
// beyond a small multiple of the payload size — while every output of the
// encoder (which enforces v2AllNullMax on its side) decodes.
const (
	v2AllNullMax = 1024
	v2MaxRatio   = 8256
	v2CellSlack  = 65536
)

// cellBudget caps the total decoded cells (rows x columns) of one payload.
type cellBudget struct {
	cells uint64
}

func newCellBudget(payloadLen int) *cellBudget {
	return &cellBudget{cells: uint64(payloadLen)*(v2MaxRatio+v2AllNullMax) + v2CellSlack}
}

func (b *cellBudget) charge(rows, cols uint64) error {
	if cols == 0 {
		return nil
	}
	if rows > b.cells/cols {
		return fmt.Errorf("wire: %d-row set exceeds the payload's materialization budget", rows)
	}
	b.cells -= rows * cols
	return nil
}

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintLen returns the encoded (zigzag) size of v in bytes.
func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

// --- Encoding ----------------------------------------------------------------

// colData is the gathered form of one result column, ready to size and emit.
type colData struct {
	n     int
	nn    int    // non-NULL count
	nulls []byte // LSB-first bitmap, set bit = NULL; nil when no NULLs
	kind  int

	ints   []int64   // colInt: non-NULL values in row order
	floats []float64 // colFloat
	bools  []bool    // colBool
	codes  []uint32  // colText: wire code per non-NULL value, row order
	dict   []string  // colText: the dictionary the entries are read through
	firsts []int32   // colText: dict index of each wire code's entry; nil when dict is in wire order (gatherColCells)
}

// entries returns the size of a text column's wire dictionary.
func (c *colData) entries() int {
	if c.firsts != nil {
		return len(c.firsts)
	}
	return len(c.dict)
}

// entry returns the text of wire code k.
func (c *colData) entry(k uint32) string {
	if c.firsts != nil {
		return c.dict[c.firsts[k]]
	}
	return c.dict[k]
}

func (c *colData) setNull(i int) {
	if c.nulls == nil {
		c.nulls = make([]byte, (c.n+7)/8)
	}
	c.nulls[i>>3] |= 1 << (i & 7)
}

// encodeSetV2 writes one result set column-at-a-time, parallelizing the
// per-column encoders at run's degree and stitching the blocks in column
// order (identical bytes at any degree). The set's bytes are reserved
// exactly, once the blocks are known.
func (e *Encoder) encodeSetV2(set *db.ResultSet, run parallel.Run) {
	nCols, n := len(set.Columns), set.NumRows()
	size := strLen(set.Name) + uvarintLen(uint64(nCols)) + uvarintLen(uint64(n))
	for _, c := range set.Columns {
		size += strLen(c)
	}
	var blocks [][]byte
	if n > 0 && nCols > 0 {
		blocks = make([][]byte, nCols)
		run.Each(nCols, func(j int) {
			blocks[j] = encodeColV2(set, j, n)
		})
		for _, b := range blocks {
			size += len(b)
		}
	}
	e.reserve(size)
	e.str(set.Name)
	e.uvarint(uint64(nCols))
	for _, c := range set.Columns {
		e.str(c)
	}
	e.uvarint(uint64(n))
	for _, b := range blocks {
		e.buf = append(e.buf, b...)
	}
}

// strLen is the encoded size of a length-prefixed string.
func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// valueLen is the encoded size of one v1 tagged value (Encoder.value).
func valueLen(v types.Value) int {
	switch v.Kind() {
	case types.KindInt:
		return 1 + varintLen(v.Int())
	case types.KindFloat:
		return 9
	case types.KindText:
		return 1 + strLen(v.Text())
	case types.KindBool:
		return 2
	}
	return 1
}

// encodeColV2 gathers, sizes, and emits one column block (desc + body) of n
// rows. Every variant is sized before anything is written, so the block is
// one allocation of exactly the bytes it ships; a deflated body is written
// over the plain one, which it is strictly smaller than. The column holds one
// compression state from the free list throughout: its scratch serves the
// gather, its tables the deflate. A panic returns the token without the
// state, whose remap it may have left unclear.
func encodeColV2(set *db.ResultSet, j, n int) []byte {
	z := getDeflater()
	done := false
	defer func() {
		if !done {
			z = nil
		}
		putDeflater(z)
	}()
	block, br := plainColV2(z, set, j, n)
	block = tryFlate(z, block, br.at[:br.n])
	done = true
	return block
}

// streamBreaks are the offsets into a column block's body where its streams
// meet, deflate's block breaks: after the null bitmap, and between a kind's
// own streams (text lengths and bytes, a dictionary's bytes and codes, the
// byte planes of floats).
type streamBreaks struct {
	at [9]int
	n  int
}

func (b *streamBreaks) add(off int) {
	b.at[b.n] = off
	b.n++
}

// plainColV2 is encodeColV2 before deflate: the block with its plain body,
// and the body's stream breaks. z lends the gather its scratch.
func plainColV2(z *deflater, set *db.ResultSet, j, n int) ([]byte, streamBreaks) {
	c := gatherCol(z, set, j, n)
	var nulls []byte
	if c.kind != colAny && c.kind != colAllNull {
		nulls = c.nulls
	}
	var variant, size int
	switch c.kind {
	case colInt:
		plain := 0
		for _, v := range c.ints {
			plain += varintLen(v)
		}
		delta := varintLen(c.ints[0])
		for k := 1; k < len(c.ints); k++ {
			delta += varintLen(c.ints[k] - c.ints[k-1]) // wrapping, exact
		}
		size = plain
		if delta < plain {
			variant, size = intDelta, delta
		}
	case colFloat:
		size = 8 * len(c.floats)
	case colBool:
		size = (len(c.bools) + 7) / 8
	case colText:
		inline := 0
		for _, code := range c.codes {
			inline += strLen(c.entry(code))
		}
		entries := c.entries()
		dictSz := uvarintLen(uint64(entries))
		for k := range entries {
			dictSz += strLen(c.entry(uint32(k)))
		}
		for _, code := range c.codes {
			dictSz += uvarintLen(uint64(code))
		}
		size = inline
		if dictSz < inline {
			variant, size = textDict, dictSz
		}
	case colAny:
		at := set.Column(j)
		for i := 0; i < n; i++ {
			size += valueLen(at.At(i))
		}
	}
	desc := byte(variant) | byte(c.kind)<<colKindShift
	if nulls != nil {
		desc |= colNullsBit
	}
	e := Encoder{buf: make([]byte, 1, 1+len(nulls)+size)}
	e.buf[0] = desc
	e.buf = append(e.buf, nulls...)
	var br streamBreaks
	br.add(len(nulls))
	switch c.kind {
	case colAllNull:
		// Nothing: the desc byte alone says every row is NULL.
	case colInt:
		if variant == intDelta {
			e.varint(c.ints[0])
			for k := 1; k < len(c.ints); k++ {
				e.varint(c.ints[k] - c.ints[k-1])
			}
		} else {
			for _, v := range c.ints {
				e.varint(v)
			}
		}
	case colFloat:
		e.buf = e.buf[:len(e.buf)+size]
		planes := e.buf[len(e.buf)-size:]
		nn := len(c.floats)
		for i, v := range c.floats {
			b := math.Float64bits(v)
			for k := 0; k < 8; k++ {
				planes[k*nn+i] = byte(b >> (8 * k))
			}
		}
		for k := 1; k < 8; k++ {
			br.add(len(nulls) + k*nn)
		}
	case colBool:
		e.buf = e.buf[:len(e.buf)+size] // zeroed by make
		packed := e.buf[len(e.buf)-size:]
		for k, v := range c.bools {
			if v {
				packed[k>>3] |= 1 << (k & 7)
			}
		}
	case colText:
		if variant == textDict {
			entries := c.entries()
			e.uvarint(uint64(entries))
			for k := range entries {
				e.uvarint(uint64(len(c.entry(uint32(k)))))
			}
			br.add(len(e.buf) - 1)
			for k := range entries {
				e.buf = append(e.buf, c.entry(uint32(k))...)
			}
			br.add(len(e.buf) - 1)
			for _, code := range c.codes {
				e.uvarint(uint64(code))
			}
		} else {
			for _, code := range c.codes {
				e.uvarint(uint64(len(c.entry(code))))
			}
			br.add(len(e.buf) - 1)
			for _, code := range c.codes {
				e.buf = append(e.buf, c.entry(code)...)
			}
		}
	case colAny:
		at := set.Column(j)
		for i := 0; i < n; i++ {
			e.value(at.At(i))
		}
	}
	return e.buf, br
}

// tryFlate deflates a column block's body (past its desc byte, breaking
// deflate blocks at the given body offsets) with the state z and, when
// shipping the compressed form with its length prefix is strictly smaller,
// writes it over the body in block's own storage and sets the desc byte's
// flate bit. It returns the block to ship.
func tryFlate(z *deflater, block []byte, breaks []int) []byte {
	body := block[1:]
	if len(body) < 16 {
		return block // can't beat the length prefix + deflate framing
	}
	z.out = deflate(z, z.out[:0], body, breaks)
	if uvarintLen(uint64(len(z.out)))+len(z.out) >= len(body) {
		return block
	}
	out := block[:1]
	out[0] |= colFlateBit
	out = binary.AppendUvarint(out, uint64(len(z.out)))
	return append(out, z.out...)
}

// gatherCol extracts column j of the set's n rows into typed vectors. For a
// typed view column the gather is vector copies (and, for TEXT, a dictionary
// remap with zero string hashing, in z's scratch); a column of exact values
// is read cell by cell. Both paths produce the same wire dictionary and codes,
// so the wire bytes do not depend on which executed.
func gatherCol(z *deflater, set *db.ResultSet, j, n int) *colData {
	c := &colData{n: n}
	if !gatherColVec(z, set, j, c) {
		gatherColCells(set.Column(j), c)
	}
	return c
}

// gatherColCells is the cell-by-cell gather: classify the column's kind,
// then collect non-NULL values (two cheap passes).
func gatherColCells(at db.Cells, c *colData) {
	kind := types.KindNull
	mixed := false
	for i := 0; i < c.n; i++ {
		v := at.At(i)
		if v.IsNull() {
			continue
		}
		if kind == types.KindNull {
			kind = v.Kind()
		} else if v.Kind() != kind {
			mixed = true
			break
		}
		c.nn++
	}
	if mixed {
		c.kind = colAny
		c.nn = 0
		return
	}
	if kind == types.KindNull {
		c.finishAllNull()
		return
	}
	switch kind {
	case types.KindInt:
		c.kind = colInt
		c.ints = make([]int64, 0, c.nn)
		for i := 0; i < c.n; i++ {
			if v := at.At(i); v.IsNull() {
				c.setNull(i)
			} else {
				c.ints = append(c.ints, v.Int())
			}
		}
	case types.KindFloat:
		c.kind = colFloat
		c.floats = make([]float64, 0, c.nn)
		for i := 0; i < c.n; i++ {
			if v := at.At(i); v.IsNull() {
				c.setNull(i)
			} else {
				c.floats = append(c.floats, v.Float())
			}
		}
	case types.KindBool:
		c.kind = colBool
		c.bools = make([]bool, 0, c.nn)
		for i := 0; i < c.n; i++ {
			if v := at.At(i); v.IsNull() {
				c.setNull(i)
			} else {
				c.bools = append(c.bools, v.Bool())
			}
		}
	case types.KindText:
		c.kind = colText
		c.codes = make([]uint32, 0, c.nn)
		idx := make(map[string]uint32, 16)
		for i := 0; i < c.n; i++ {
			v := at.At(i)
			if v.IsNull() {
				c.setNull(i)
				continue
			}
			s := v.Text()
			code, ok := idx[s]
			if !ok {
				code = uint32(len(c.dict))
				idx[s] = code
				c.dict = append(c.dict, s)
			}
			c.codes = append(c.codes, code)
		}
	}
}

// finishAllNull classifies a column with no non-NULL values. Columns too
// large for the implicit form fall back to tagged values so the decoder's
// materialization budget (which charges bytes, not headers) stays sound;
// deflate then collapses the run of NULL tags to a few bytes.
func (c *colData) finishAllNull() {
	if c.n > v2AllNullMax {
		c.kind = colAny
		return
	}
	c.kind = colAllNull
}

// gatherColVec gathers from the set's colstore view; reports false, leaving c
// untouched, for column representations it does not accelerate (AnyColumn),
// which then take the cell-by-cell path.
func gatherColVec(z *deflater, set *db.ResultSet, j int, c *colData) bool {
	col := set.Vec.Frame.Col(j)
	v := set.Vec
	n := c.n
	switch col := col.(type) {
	case *colstore.Int64Column:
		c.ints = make([]int64, 0, n)
		for i := 0; i < n; i++ {
			fi := v.Index(i)
			if col.Null(fi) {
				c.setNull(i)
			} else {
				c.ints = append(c.ints, col.Vals[fi])
			}
		}
		c.nn = len(c.ints)
		if c.nn == 0 {
			c.ints = nil
			c.nulls = nil
			c.finishAllNull()
			return true
		}
		c.kind = colInt
	case *colstore.Float64Column:
		c.floats = make([]float64, 0, n)
		for i := 0; i < n; i++ {
			fi := v.Index(i)
			if col.Null(fi) {
				c.setNull(i)
			} else {
				c.floats = append(c.floats, col.Vals[fi])
			}
		}
		c.nn = len(c.floats)
		if c.nn == 0 {
			c.floats = nil
			c.nulls = nil
			c.finishAllNull()
			return true
		}
		c.kind = colFloat
	case *colstore.BoolColumn:
		c.bools = make([]bool, 0, n)
		for i := 0; i < n; i++ {
			fi := v.Index(i)
			if col.Null(fi) {
				c.setNull(i)
			} else {
				c.bools = append(c.bools, col.Vals[fi])
			}
		}
		c.nn = len(c.bools)
		if c.nn == 0 {
			c.bools = nil
			c.nulls = nil
			c.finishAllNull()
			return true
		}
		c.kind = colBool
	case *colstore.TextColumn:
		// Remap scan-time dictionary codes to wire codes in first-occurrence
		// order over the result rows — byte-identical to the cell-by-cell path,
		// without hashing any string. The wire dictionary is the source codes
		// of its entries, read through the column's own Dict; remap (wire
		// code+1 by source code, 0 for none yet) is z's, so a request pays
		// for the entries it ships, not for the scan's whole dictionary, and
		// clears only the slots it set.
		remap := z.remapFor(len(col.Dict))
		c.dict, c.firsts = col.Dict, z.firsts[:0]
		c.codes = make([]uint32, 0, n)
		for i := 0; i < n; i++ {
			fi := v.Index(i)
			if col.Null(fi) {
				c.setNull(i)
				continue
			}
			src := col.Codes[fi]
			if remap[src] == 0 {
				c.firsts = append(c.firsts, int32(src))
				remap[src] = int32(len(c.firsts))
			}
			c.codes = append(c.codes, uint32(remap[src]-1))
		}
		for _, src := range c.firsts {
			remap[src] = 0
		}
		z.firsts = c.firsts // the scratch keeps what it grew to
		c.nn = len(c.codes)
		if c.nn == 0 {
			c.codes, c.dict, c.firsts = nil, nil, nil
			c.nulls = nil
			c.finishAllNull()
			return true
		}
		c.kind = colText
	default:
		return false
	}
	return true
}

// --- Decoding ----------------------------------------------------------------

// decodeSetV2 parses one columnar set into a colstore frame — one column
// vector per block — attaches it as the set's view and boxes Rows from it
// with the same kernel the engine's own results use (colstore.View.Rows), so
// a decoded set is what a locally computed one is; a set of one exact-value
// column gets rows that are windows on that column instead of a copy.
// Materialization is bounded by the payload-wide cell budget before any
// allocation sized by the claimed row count happens.
func (d *Decoder) decodeSetV2(budget *cellBudget) (*db.ResultSet, error) {
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	nCols, err := d.count(1, "column") // a column name costs >= 1 byte
	if err != nil {
		return nil, err
	}
	set := &db.ResultSet{Name: name}
	for i := 0; i < nCols; i++ {
		c, err := d.str()
		if err != nil {
			return nil, err
		}
		set.Columns = append(set.Columns, c)
	}
	nRows, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nCols == 0 && nRows > 0 {
		return nil, fmt.Errorf("wire: %d rows in a zero-column set", nRows)
	}
	cols := make([]colstore.Column, nCols)
	if nRows == 0 || nCols == 0 {
		for j := range cols {
			cols[j] = &colstore.AnyColumn{}
		}
		set.Vec = &colstore.View{Frame: colstore.FrameOf(0, cols)}
		return set, nil
	}
	// Unlike v1, a v2 row can cost arbitrarily few bytes (that is the
	// point), so the claimed count is charged against the budget derived
	// from the payload size instead of Remaining.
	if err := budget.charge(nRows, uint64(nCols)); err != nil {
		return nil, err
	}
	n := int(nRows)
	for j := range cols {
		if cols[j], err = d.decodeColV2(n); err != nil {
			return nil, err
		}
	}
	set.Vec = &colstore.View{Frame: colstore.FrameOf(n, cols)}
	if vals, ok := cols[0].(*colstore.AnyColumn); ok && nCols == 1 {
		// One column of exact values: each row is a window of one value on
		// the column, so the set holds each value once. The decoded result
		// is its caller's alone, so no other reader sees a write to a row.
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = vals.Vals[i : i+1 : i+1]
		}
		set.Rows = rows
		return set, nil
	}
	set.Rows = set.Vec.Rows()
	return set, nil
}

// maxBodyLen is the most bytes a column block body of the kind can hold for
// n rows: the null bitmap and at most a 10-byte varint an INT value, 8 bytes
// a FLOAT value or a bit a BOOL value. It is -1 for the kinds a row does not
// bound (TEXT, any).
func maxBodyLen(kind, n int) int {
	bitmap := (n + 7) / 8
	switch kind {
	case colInt:
		return bitmap + 10*n
	case colFloat:
		return bitmap + 8*n
	case colBool:
		return 2 * bitmap
	}
	return -1
}

// nullBits is a column block's null bitmap as shipped (LSB-first, set bit =
// NULL); nil when the column has none.
type nullBits []byte

func (b nullBits) get(i int) bool { return b != nil && b[i>>3]&(1<<(i&7)) != 0 }

// textRun is a validated run of k strings as a text block ships them: their
// uvarint lengths, then all their bytes, copied into one backing string that
// next slices in order.
type textRun struct {
	lens []byte
	data string
}

// texts reads a run of k strings, checking every length against the bytes
// that remain before the backing string is allocated.
func (d *Decoder) texts(k int) (textRun, error) {
	if k > d.Remaining() {
		return textRun{}, fmt.Errorf("wire: %d strings claimed with %d bytes left at offset %d", k, d.Remaining(), d.off)
	}
	start := d.off
	var total uint64 // at most the bytes left after the lengths read so far
	for i := 0; i < k; i++ {
		l, err := d.uvarint()
		if err != nil {
			return textRun{}, err
		}
		if rem := uint64(d.Remaining()); l > rem || total+l > rem {
			return textRun{}, fmt.Errorf("wire: string lengths sum past the payload at offset %d", d.off)
		}
		total += l
	}
	run := textRun{lens: d.buf[start:d.off], data: string(d.buf[d.off : d.off+int(total)])}
	d.off += int(total)
	return run, nil
}

// next returns the run's next string, a slice of its backing string.
func (r *textRun) next() string {
	l, n := binary.Uvarint(r.lens)
	r.lens = r.lens[n:]
	s := r.data[:l]
	r.data = r.data[l:]
	return s
}

// decodeColV2 parses one column block of n rows into a colstore column: typed
// vectors for int, float, bool and dictionary text (the wire dictionary and
// codes are the column's, no string is hashed), exact values for inline text,
// `any` and all-NULL blocks.
func (d *Decoder) decodeColV2(n int) (colstore.Column, error) {
	if d.off >= len(d.buf) {
		return nil, fmt.Errorf("wire: truncated column descriptor at offset %d", d.off)
	}
	desc := d.buf[d.off]
	d.off++
	variant := int(desc & colVariantMask)
	hasNulls := desc&colNullsBit != 0
	kind := int(desc >> colKindShift & 0x07)
	flated := desc&colFlateBit != 0
	if desc&colReservedBit != 0 {
		return nil, fmt.Errorf("wire: column descriptor %#x has reserved bit set", desc)
	}
	if kind > colAny {
		return nil, fmt.Errorf("wire: unknown column kind %d", kind)
	}
	if variant != 0 && kind != colInt && kind != colText {
		return nil, fmt.Errorf("wire: column kind %d has no variant %d", kind, variant)
	}
	if variant > 1 {
		return nil, fmt.Errorf("wire: unknown payload variant %d", variant)
	}
	if hasNulls && (kind == colAllNull || kind == colAny) {
		return nil, fmt.Errorf("wire: column kind %d cannot carry a null bitmap", kind)
	}
	if flated && kind == colAllNull {
		return nil, fmt.Errorf("wire: an all-NULL column block has no body to compress")
	}

	// Establish the body reader, bounding the claimed row count by the
	// bytes that will actually back it before anything is allocated.
	src := d
	if flated {
		clen, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if clen > uint64(d.Remaining()) {
			return nil, fmt.Errorf("wire: truncated compressed column (%d > %d bytes)", clen, d.Remaining())
		}
		if uint64(n) > v2MaxRatio*clen+v2AllNullMax {
			return nil, fmt.Errorf("wire: %d rows implausible for a %d-byte compressed column", n, clen)
		}
		// 1032 is deflate's maximum compression ratio: a stream inflating to
		// more than 1032x its length is hostile by construction. A fixed-width
		// kind's body is bounded tighter by its n rows, so a stream inflating
		// past what they can hold is refused once it crosses that. Every
		// column of the payload inflates into the same buffer, which is safe
		// because nothing a column decodes keeps a slice of its body.
		limit := 1032*int(clen) + 64
		rowsMax := maxBodyLen(kind, n)
		if rowsMax >= 0 && rowsMax < limit {
			limit = rowsMax
		}
		raw, err := inflate(d.inflated, d.buf[d.off:d.off+int(clen)], limit)
		if errors.Is(err, errRatio) && limit == rowsMax {
			return nil, fmt.Errorf("wire: compressed column inflates past the %d bytes %d rows of its kind can hold", rowsMax, n)
		}
		if err != nil {
			return nil, err
		}
		d.inflated = raw
		d.off += int(clen)
		src = &Decoder{buf: raw}
	} else {
		switch kind {
		case colAllNull:
			if n > v2AllNullMax {
				return nil, fmt.Errorf("wire: %d rows implausible for an implicit all-NULL column", n)
			}
		case colAny:
			if n > d.Remaining() {
				return nil, fmt.Errorf("wire: %d rows implausible for a %d-byte column", n, d.Remaining())
			}
		default:
			if (n+7)/8 > d.Remaining() {
				return nil, fmt.Errorf("wire: %d rows implausible for a %d-byte column", n, d.Remaining())
			}
		}
	}

	var nulls nullBits
	nn := n
	if hasNulls {
		nb := (n + 7) / 8
		if src.Remaining() < nb {
			return nil, fmt.Errorf("wire: truncated null bitmap at offset %d", src.off)
		}
		nulls = src.buf[src.off : src.off+nb]
		src.off += nb
		if n%8 != 0 && nulls[nb-1]>>(n%8) != 0 {
			return nil, fmt.Errorf("wire: null bitmap has bits beyond row %d", n)
		}
		set := 0
		for _, b := range nulls {
			set += bits.OnesCount8(b)
		}
		if set == 0 || set == n {
			return nil, fmt.Errorf("wire: non-canonical null bitmap (%d of %d set)", set, n)
		}
		nn = n - set
	}

	var col colstore.Column
	switch kind {
	case colAllNull:
		col = &colstore.AnyColumn{Vals: make([]types.Value, n)} // zero Value is NULL
	case colInt:
		vals := make([]int64, n)
		var prev int64
		first := true
		for i := range vals {
			if nulls.get(i) {
				continue
			}
			v, err := src.varint()
			if err != nil {
				return nil, err
			}
			if variant == intDelta && !first {
				prev += v // wrapping, mirrors the encoder exactly
			} else {
				prev = v
			}
			first = false
			vals[i] = prev
		}
		col = &colstore.Int64Column{Vals: vals, Nulls: colstore.BitmapFromBytes(nulls)}
	case colFloat:
		if src.Remaining() < 8*nn {
			return nil, fmt.Errorf("wire: truncated float column at offset %d", src.off)
		}
		planes := src.buf[src.off : src.off+8*nn]
		src.off += 8 * nn
		vals := make([]float64, n)
		k := 0
		for i := range vals {
			if nulls.get(i) {
				continue
			}
			var b uint64
			for p := 7; p >= 0; p-- {
				b = b<<8 | uint64(planes[p*nn+k])
			}
			vals[i] = math.Float64frombits(b)
			k++
		}
		col = &colstore.Float64Column{Vals: vals, Nulls: colstore.BitmapFromBytes(nulls)}
	case colBool:
		nb := (nn + 7) / 8
		if src.Remaining() < nb {
			return nil, fmt.Errorf("wire: truncated bool column at offset %d", src.off)
		}
		packed := nullBits(src.buf[src.off : src.off+nb])
		src.off += nb
		if nn%8 != 0 && nb > 0 && packed[nb-1]>>(nn%8) != 0 {
			return nil, fmt.Errorf("wire: bool column has bits beyond value %d", nn)
		}
		vals := make([]bool, n)
		k := 0
		for i := range vals {
			if nulls.get(i) {
				continue
			}
			vals[i] = packed.get(k)
			k++
		}
		col = &colstore.BoolColumn{Vals: vals, Nulls: colstore.BitmapFromBytes(nulls)}
	case colText:
		if variant == textDict {
			nDict, err := src.count(1, "dictionary entry")
			if err != nil {
				return nil, err
			}
			if nDict > math.MaxUint32 {
				return nil, fmt.Errorf("wire: %d dictionary entries exceed the 32-bit code space", nDict)
			}
			// The encoder ships distinct entries; a payload that repeats one
			// only makes its own equal strings differ by code.
			run, err := src.texts(nDict)
			if err != nil {
				return nil, err
			}
			dict := make([]string, nDict)
			for k := range dict {
				dict[k] = run.next()
			}
			codes := make([]uint32, n)
			for i := range codes {
				if nulls.get(i) {
					continue
				}
				code, err := src.uvarint()
				if err != nil {
					return nil, err
				}
				if code >= uint64(nDict) {
					return nil, fmt.Errorf("wire: dictionary code %d out of range (%d entries)", code, nDict)
				}
				codes[i] = uint32(code)
			}
			col = colstore.NewTextColumn(codes, dict, colstore.BitmapFromBytes(nulls))
		} else {
			run, err := src.texts(nn)
			if err != nil {
				return nil, err
			}
			vals := make([]types.Value, n)
			for i := range vals {
				if !nulls.get(i) {
					vals[i] = types.NewText(run.next())
				}
			}
			col = &colstore.AnyColumn{Vals: vals}
		}
	case colAny:
		vals := make([]types.Value, n)
		for i := range vals {
			v, err := src.value()
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		col = &colstore.AnyColumn{Vals: vals}
	}
	if flated && src.off != len(src.buf) {
		return nil, fmt.Errorf("wire: %d trailing bytes in compressed column", len(src.buf)-src.off)
	}
	return col, nil
}
