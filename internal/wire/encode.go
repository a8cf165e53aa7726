// Package wire serializes results for transport and models data-transfer
// cost. It provides a compact binary encoding of single-table and
// subdatabase results, an analytic transfer-time model matching the paper's
// Section 6.4 setup (a fixed data transfer rate, default 100 Mbps), and a
// minimal TCP server/client so the distributed-database use case (Section
// 1.2, use case 3) runs over a real socket.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"resultdb/internal/colstore"
	"resultdb/internal/db"
	"resultdb/internal/engine"
	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// Format versioning so decoders can reject foreign payloads. The header
// version number identifies the payload layout: the original row-major
// tagged-value format (user-facing "v1") shipped with header version 2; the
// columnar format of encodev2.go ("v2": null bitmaps, delta/varint integer
// runs, shared text dictionaries, bit-packed bools, per-column deflate) is
// header version 3. Decoders accept both; encoders pick via EncodeOptions.
const (
	magic = 0x52444221 // "RDB!"

	// FormatV1 is the row-major tagged-value payload layout ("v1").
	FormatV1 = 2
	// FormatV2 is the columnar payload layout ("v2").
	FormatV2 = 3
)

// payload flag bits.
const flagHasPlan = 1 << 0

// value kind tags on the wire.
const (
	tagNull byte = iota
	tagInt
	tagFloat
	tagText
	tagBool
)

// Encoder appends the wire form of results to a buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// setCapacityHint estimates the v1 encoded size of set from its row and
// column counts alone (no value scan): per-cell costs average a few bytes
// for varint integers and bools and tens for JOB-style text, so 12 bytes per
// cell lands within one append-doubling of the real size on the benchmark
// workloads — close enough that encoding does O(1) allocations either way.
// A v2 set sizes itself exactly (encodeSetV2).
func setCapacityHint(set *db.ResultSet) int {
	h := 24 + len(set.Name)
	for _, c := range set.Columns {
		h += 8 + len(c)
	}
	return h + set.NumRows()*len(set.Columns)*12
}

// reserve makes room for n more bytes in one step (at least doubling, so a
// run of reservations copies what is already encoded O(1) times).
func (e *Encoder) reserve(n int) {
	if cap(e.buf)-len(e.buf) < n {
		grown := make([]byte, len(e.buf), max(len(e.buf)+n, 2*cap(e.buf)))
		copy(grown, e.buf)
		e.buf = grown
	}
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoded size in bytes.
func (e *Encoder) Len() int { return len(e.buf) }

func (e *Encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *Encoder) varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

func (e *Encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *Encoder) value(v types.Value) {
	switch v.Kind() {
	case types.KindNull:
		e.buf = append(e.buf, tagNull)
	case types.KindInt:
		e.buf = append(e.buf, tagInt)
		e.varint(v.Int())
	case types.KindFloat:
		e.buf = append(e.buf, tagFloat)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v.Float()))
	case types.KindText:
		e.buf = append(e.buf, tagText)
		e.str(v.Text())
	case types.KindBool:
		e.buf = append(e.buf, tagBool)
		if v.Bool() {
			e.buf = append(e.buf, 1)
		} else {
			e.buf = append(e.buf, 0)
		}
	}
}

// Uvarint appends an unsigned varint (for external composers like
// internal/snapshot).
func (e *Encoder) Uvarint(v uint64) { e.uvarint(v) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) { e.str(s) }

// Value appends one typed value.
func (e *Encoder) Value(v types.Value) { e.value(v) }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() (uint64, error) { return d.uvarint() }

// Str reads a length-prefixed string.
func (d *Decoder) Str() (string, error) { return d.str() }

// Value reads one typed value.
func (d *Decoder) Value() (types.Value, error) { return d.value() }

// Remaining reports the unread byte count.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// EncodeOptions configures EncodeResultOptions.
type EncodeOptions struct {
	// Version selects the payload layout: FormatV1 or FormatV2. The zero
	// value means FormatV1 (the original format), so existing callers are
	// unaffected.
	Version int
	// Run is the run FormatV2 encodes a set's columns at; the zero Run means
	// GOMAXPROCS. Output bytes are identical at any degree.
	Run parallel.Run
}

func (o EncodeOptions) version() int {
	if o.Version == 0 {
		return FormatV1
	}
	return o.Version
}

// EncodeResult serializes a result in the original v1 format: all of its
// sets plus, when present, the shipped post-join plan (the paper's
// subdatabase-snapshot extension).
func EncodeResult(r *db.Result) []byte {
	return EncodeResultOptions(r, EncodeOptions{})
}

// EncodeResultV2 serializes a result in the columnar v2 format.
func EncodeResultV2(r *db.Result) []byte {
	return EncodeResultOptions(r, EncodeOptions{Version: FormatV2})
}

// EncodeResultOptions serializes a result in the requested format version.
// Panics on an unknown version (programmer error). The server ships exactly
// the v2 bytes, chunk by chunk (encodeHeader + per-set encodeSetVersion +
// encodePlan).
func EncodeResultOptions(r *db.Result, opts EncodeOptions) []byte {
	v := opts.version()
	if v != FormatV1 && v != FormatV2 {
		panic(fmt.Sprintf("wire: unknown format version %d", v))
	}
	// Sized for the header only: each part reserves its own room when it has
	// to be encoded, and a kept payload needs exactly its length.
	e := Encoder{buf: make([]byte, 0, 16)}
	e.encodeHeader(v, len(r.Sets), r.PostJoinPlan != nil)
	if opts.Run == (parallel.Run{}) {
		opts.Run = parallel.NewRun(0)
	}
	for _, set := range r.Sets {
		e.encodeSetVersion(set, v, opts.Run)
	}
	if r.PostJoinPlan != nil {
		e.encodePlan(r.PostJoinPlan, v)
	}
	return e.Bytes()
}

// encodeHeader writes the payload prologue: magic, version, flags, set
// count. For RESULTDB queries all three inputs are known before the first
// relation is projected, which is what lets the streaming server emit the
// header first and the sets as they are produced.
func (e *Encoder) encodeHeader(version, nSets int, hasPlan bool) {
	e.uvarint(magic)
	e.uvarint(uint64(version))
	var flags uint64
	if hasPlan {
		flags |= flagHasPlan
	}
	e.uvarint(flags)
	e.uvarint(uint64(nSets))
}

// memoFor returns the memo a result part's encoding in version reads and
// fills: the part's own for v2, the format every response ships, and none
// for v1, which only in-process callers encode.
func memoFor(memo *db.PayloadMemo, version int) *db.PayloadMemo {
	if version != FormatV2 {
		return nil
	}
	return memo
}

// appendKept appends the payload a result part — a set, or the post-join
// plan — keeps in its memo, and reports whether there was one.
// encodeSetVersion and encodePlan are the only readers and writers of
// db.PayloadMemo: the server, EncodeResultOptions and the shell all reach the
// memo through them. A part of a result the cache does not own has a nil
// memo and is encoded afresh every time.
//
// An encoder that owns no buffer yet adopts the shared bytes instead of
// copying them (their capacity is clamped, so a later append moves to a
// fresh buffer); that is how the streaming server hands kept chunks to the
// socket without touching them.
func (e *Encoder) appendKept(memo *db.PayloadMemo) bool {
	b := memo.Load()
	if b == nil {
		return false
	}
	if cap(e.buf) == 0 {
		e.buf = b
	} else {
		e.buf = append(e.buf, b...)
	}
	return true
}

// encodeSetVersion writes one result set in the given format version: for
// v2, the payload the set keeps, or a fresh encoding, which the set is then
// offered to keep; for v1, always a fresh encoding.
func (e *Encoder) encodeSetVersion(set *db.ResultSet, version int, run parallel.Run) {
	memo := memoFor(set.Memo(), version)
	if e.appendKept(memo) {
		return
	}
	start := len(e.buf)
	if version == FormatV2 {
		e.encodeSetV2(set, run)
	} else {
		e.reserve(setCapacityHint(set))
		e.encodeSet(set)
	}
	memo.Keep(e.buf[start:])
}

// encodePlan writes the shipped post-join plan (the same bytes in every
// format version; only a v2 encoding reads and fills the plan's memo).
func (e *Encoder) encodePlan(p *db.PostJoinPlan, version int) {
	memo := memoFor(p.Memo(), version)
	if e.appendKept(memo) {
		return
	}
	start := len(e.buf)
	e.uvarint(uint64(len(p.Preds)))
	for _, j := range p.Preds {
		e.str(j.LeftRel)
		e.str(j.LeftCol)
		e.str(j.RightRel)
		e.str(j.RightCol)
	}
	e.uvarint(uint64(len(p.Projection)))
	for _, a := range p.Projection {
		e.str(a.Rel)
		e.str(a.Col)
	}
	memo.Keep(e.buf[start:])
}

func (e *Encoder) encodeSet(set *db.ResultSet) {
	e.str(set.Name)
	e.uvarint(uint64(len(set.Columns)))
	for _, c := range set.Columns {
		e.str(c)
	}
	n := set.NumRows()
	e.uvarint(uint64(n))
	var small [16]db.Cells // the readers of a set of up to 16 columns stay on the stack
	cols := small[:0]
	for j := range set.Columns {
		cols = append(cols, set.Column(j))
	}
	for i := 0; i < n; i++ {
		for _, col := range cols {
			e.value(col.At(i))
		}
	}
}

// Decoder reads the wire form back.
type Decoder struct {
	buf []byte
	off int
	// inflated is the storage the v2 decoder inflates compressed column
	// blocks into, reused from one column to the next of this payload.
	inflated []byte
}

// NewDecoder wraps a payload.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

func (d *Decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated uvarint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *Decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *Decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(d.buf)-d.off) < n {
		return "", fmt.Errorf("wire: truncated string of length %d at offset %d", n, d.off)
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *Decoder) value() (types.Value, error) {
	if d.off >= len(d.buf) {
		return types.Value{}, fmt.Errorf("wire: truncated value at offset %d", d.off)
	}
	tag := d.buf[d.off]
	d.off++
	switch tag {
	case tagNull:
		return types.Null(), nil
	case tagInt:
		v, err := d.varint()
		if err != nil {
			return types.Value{}, err
		}
		return types.NewInt(v), nil
	case tagFloat:
		if len(d.buf)-d.off < 8 {
			return types.Value{}, fmt.Errorf("wire: truncated float at offset %d", d.off)
		}
		bits := binary.LittleEndian.Uint64(d.buf[d.off:])
		d.off += 8
		return types.NewFloat(math.Float64frombits(bits)), nil
	case tagText:
		s, err := d.str()
		if err != nil {
			return types.Value{}, err
		}
		return types.NewText(s), nil
	case tagBool:
		if d.off >= len(d.buf) {
			return types.Value{}, fmt.Errorf("wire: truncated bool at offset %d", d.off)
		}
		b := d.buf[d.off] != 0
		d.off++
		return types.NewBool(b), nil
	default:
		return types.Value{}, fmt.Errorf("wire: unknown value tag %d at offset %d", tag, d.off-1)
	}
}

// count reads an element count and bounds it by the bytes actually left in
// the payload (each element costs at least minBytes on the wire), so hostile
// headers cannot drive huge allocations or long loops before the truncation
// is discovered.
func (d *Decoder) count(minBytes int, what string) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(d.Remaining()/minBytes) {
		return 0, fmt.Errorf("wire: %s count %d exceeds remaining payload (%d bytes)", what, n, d.Remaining())
	}
	return int(n), nil
}

// PayloadVersion reports the format version of an encoded payload
// (FormatV1 or FormatV2) without decoding it.
func PayloadVersion(buf []byte) (int, error) {
	d := NewDecoder(buf)
	m, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if m != magic {
		return 0, fmt.Errorf("wire: bad magic %#x", m)
	}
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v != FormatV1 && v != FormatV2 {
		return 0, fmt.Errorf("wire: unsupported version %d", v)
	}
	return int(v), nil
}

// DecodeResult parses a payload produced by EncodeResultOptions in either
// format version.
func DecodeResult(buf []byte) (*db.Result, error) {
	return decodeResult(buf, 0)
}

// DecodeResultExpect is DecodeResult restricted to one format version: a
// payload in any other version is rejected before its sets are touched.
// The client uses it to accept only v2 responses, so a server (or a
// middlebox) cannot change the payload format silently.
func DecodeResultExpect(buf []byte, version int) (*db.Result, error) {
	if version != FormatV1 && version != FormatV2 {
		return nil, fmt.Errorf("wire: unknown expected version %d", version)
	}
	return decodeResult(buf, version)
}

// decodeResult parses a payload; expect 0 accepts any supported version.
func decodeResult(buf []byte, expect int) (*db.Result, error) {
	return NewDecoder(buf).result(expect)
}

// result parses the whole payload d wraps; expect 0 accepts any supported
// version. Nothing the result holds points into the payload or into
// d.inflated, so a caller may reuse both once it returns.
func (d *Decoder) result(expect int) (*db.Result, error) {
	m, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("wire: bad magic %#x", m)
	}
	v, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if v != FormatV1 && v != FormatV2 {
		return nil, fmt.Errorf("wire: unsupported version %d", v)
	}
	if expect != 0 && int(v) != expect {
		return nil, fmt.Errorf("wire: version %d payload where version %d was expected", v, expect)
	}
	flags, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// A set costs at least 3 bytes (empty name, zero columns, zero rows).
	nSets, err := d.count(3, "result set")
	if err != nil {
		return nil, err
	}
	// The v2 materialization budget: total decoded cells across all sets,
	// bounded by what a legitimate encoder can express in len(buf) bytes
	// (see decodeSetV2).
	budget := newCellBudget(len(d.buf))
	res := &db.Result{}
	for i := 0; i < nSets; i++ {
		var set *db.ResultSet
		if v == FormatV2 {
			set, err = d.decodeSetV2(budget)
		} else {
			set, err = d.decodeSet()
		}
		if err != nil {
			return nil, err
		}
		res.Sets = append(res.Sets, set)
	}
	if flags&flagHasPlan != 0 {
		plan, err := d.decodePlan()
		if err != nil {
			return nil, err
		}
		res.PostJoinPlan = plan
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.off)
	}
	return res, nil
}

func (d *Decoder) decodePlan() (*db.PostJoinPlan, error) {
	plan := &db.PostJoinPlan{}
	nPreds, err := d.count(4, "join predicate") // four length-prefixed strings
	if err != nil {
		return nil, err
	}
	for i := 0; i < nPreds; i++ {
		var j engine.JoinPred
		if j.LeftRel, err = d.str(); err != nil {
			return nil, err
		}
		if j.LeftCol, err = d.str(); err != nil {
			return nil, err
		}
		if j.RightRel, err = d.str(); err != nil {
			return nil, err
		}
		if j.RightCol, err = d.str(); err != nil {
			return nil, err
		}
		plan.Preds = append(plan.Preds, j)
	}
	nProj, err := d.count(2, "projection attr") // two length-prefixed strings
	if err != nil {
		return nil, err
	}
	for i := 0; i < nProj; i++ {
		var a engine.Attr
		if a.Rel, err = d.str(); err != nil {
			return nil, err
		}
		if a.Col, err = d.str(); err != nil {
			return nil, err
		}
		plan.Projection = append(plan.Projection, a)
	}
	return plan, nil
}

// decodeSet parses one v1 set — rows of tagged values — into a frame, one
// vector per column, attaches it as the set's view and boxes Rows from it
// (colstore.View.Rows), as decodeSetV2 does, so every value is held once in
// a vector and once in the row block. A first pass over the rows learns each
// column's kinds without allocating; the second fills vectors of exactly n
// rows: typed ones for a column whose values are all INTEGER, all DOUBLE or
// all BOOLEAN (or NULL), exact values for TEXT, mixed-kind and all-NULL
// columns, as v2's inline text and any blocks decode.
func (d *Decoder) decodeSet() (*db.ResultSet, error) {
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	nCols, err := d.count(1, "column") // a column name costs >= 1 byte
	if err != nil {
		return nil, err
	}
	var columns []string
	for i := 0; i < nCols; i++ {
		c, err := d.str()
		if err != nil {
			return nil, err
		}
		columns = append(columns, c)
	}
	nRows, err := d.count(nCols, "row") // a row costs >= 1 byte per value
	if err != nil {
		return nil, err
	}
	if nCols == 0 && nRows > 0 {
		return nil, fmt.Errorf("wire: %d rows in a zero-column set", nRows)
	}
	const mixed = types.Kind(255)
	kinds := make([]types.Kind, nCols) // KindNull until a value shows
	hasNulls := make([]bool, nCols)
	start := d.off
	for i := 0; i < nRows; i++ {
		for j := range kinds {
			k, err := d.valueKind()
			if err != nil {
				return nil, err
			}
			switch {
			case k == types.KindNull:
				hasNulls[j] = true
			case kinds[j] == types.KindNull:
				kinds[j] = k
			case kinds[j] != k:
				kinds[j] = mixed
			}
		}
	}
	d.off = start
	cols := make([]colstore.Column, nCols)
	nulls := make([][]byte, nCols)
	for j, k := range kinds {
		switch k {
		case types.KindInt:
			cols[j] = &colstore.Int64Column{Vals: make([]int64, nRows)}
		case types.KindFloat:
			cols[j] = &colstore.Float64Column{Vals: make([]float64, nRows)}
		case types.KindBool:
			cols[j] = &colstore.BoolColumn{Vals: make([]bool, nRows)}
		default:
			cols[j] = &colstore.AnyColumn{Vals: make([]types.Value, nRows)}
			continue
		}
		if hasNulls[j] {
			nulls[j] = make([]byte, (nRows+7)/8)
		}
	}
	for i := 0; i < nRows; i++ {
		for j, col := range cols {
			v, err := d.value()
			if err != nil {
				return nil, err
			}
			if ac, ok := col.(*colstore.AnyColumn); ok {
				ac.Vals[i] = v
			} else if v.IsNull() {
				nulls[j][i>>3] |= 1 << (i & 7)
			} else {
				switch col := col.(type) {
				case *colstore.Int64Column:
					col.Vals[i] = v.Int()
				case *colstore.Float64Column:
					col.Vals[i] = v.Float()
				case *colstore.BoolColumn:
					col.Vals[i] = v.Bool()
				}
			}
		}
	}
	for j, col := range cols {
		if nulls[j] == nil {
			continue
		}
		switch col := col.(type) {
		case *colstore.Int64Column:
			col.Nulls = colstore.BitmapFromBytes(nulls[j])
		case *colstore.Float64Column:
			col.Nulls = colstore.BitmapFromBytes(nulls[j])
		case *colstore.BoolColumn:
			col.Nulls = colstore.BitmapFromBytes(nulls[j])
		}
	}
	set := &db.ResultSet{Name: name, Columns: columns, Vec: &colstore.View{Frame: colstore.FrameOf(nRows, cols)}}
	set.Rows = set.Vec.Rows()
	return set, nil
}

// valueKind steps over one tagged value and returns its kind; unlike value,
// it allocates nothing for a string.
func (d *Decoder) valueKind() (types.Kind, error) {
	if d.off < len(d.buf) && d.buf[d.off] == tagText {
		d.off++
		n, err := d.uvarint()
		if err != nil {
			return 0, err
		}
		if uint64(len(d.buf)-d.off) < n {
			return 0, fmt.Errorf("wire: truncated string of length %d at offset %d", n, d.off)
		}
		d.off += int(n)
		return types.KindText, nil
	}
	v, err := d.value()
	return v.Kind(), err
}
