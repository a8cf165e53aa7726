package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"resultdb/internal/colstore"
	"resultdb/internal/db"
	"resultdb/internal/parallel"
	"resultdb/internal/types"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

// oneSet wraps a single result set in a Result.
func oneSet(name string, cols []string, rows []types.Row) *db.Result {
	return &db.Result{Sets: []*db.ResultSet{db.NewResultSet(name, cols, rows)}}
}

// mustRoundTripV2 encodes r at v2, decodes, and checks value equality by
// comparing canonical v1 re-encodings (v1 is injective on results, so byte
// equality there is value equality). Returns the v2 payload.
func mustRoundTripV2(t *testing.T, r *db.Result) []byte {
	t.Helper()
	enc := EncodeResultV2(r)
	dec, err := DecodeResultExpect(enc, FormatV2)
	if err != nil {
		t.Fatalf("v2 payload does not decode: %v", err)
	}
	if got, want := EncodeResult(dec), EncodeResult(r); !bytes.Equal(got, want) {
		t.Fatalf("v2 round trip altered the result\n got: %x\nwant: %x", got, want)
	}
	return enc
}

func TestV2RoundTripValueExtremes(t *testing.T) {
	nan := math.NaN()
	r := oneSet("x",
		[]string{"i", "f", "s", "b", "ni"},
		[]types.Row{
			{types.NewInt(math.MaxInt64), types.NewFloat(nan), types.NewText(""), types.NewBool(true), types.Null()},
			{types.NewInt(math.MinInt64), types.NewFloat(math.Copysign(0, -1)), types.NewText("it's"), types.NewBool(false), types.NewInt(0)},
			{types.NewInt(0), types.NewFloat(math.Inf(1)), types.NewText(strings.Repeat("z", 300)), types.Null(), types.Null()},
			{types.Null(), types.NewFloat(math.Inf(-1)), types.Null(), types.NewBool(true), types.NewInt(-1)},
		})
	enc := mustRoundTripV2(t, r)
	// Bit-level float checks: NaN payload and -0 sign must survive.
	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	rows := dec.Sets[0].Rows
	if !math.IsNaN(rows[0][1].Float()) {
		t.Error("NaN did not survive the v2 round trip")
	}
	if f := rows[1][1].Float(); f != 0 || !math.Signbit(f) {
		t.Errorf("-0.0 became %v", f)
	}
}

// firstColDesc returns the desc byte of the first column block of a one-set
// v2 payload.
func firstColDesc(t *testing.T, payload []byte) byte {
	t.Helper()
	d := NewDecoder(payload)
	for range 4 { // magic, version, flags, set count
		d.uvarint()
	}
	d.str()
	nCols, _ := d.uvarint()
	for range nCols {
		d.str()
	}
	if _, err := d.uvarint(); err != nil || d.Remaining() == 0 {
		t.Fatal("payload has no column block")
	}
	return d.buf[d.off]
}

// nullsAmong lays vals out as one column's rows, with a NULL before every
// third value when nulls is set (a lone NULL when vals is empty).
func nullsAmong(vals []types.Value, nulls bool) []types.Row {
	var rows []types.Row
	for k, v := range vals {
		if nulls && k%3 == 0 {
			rows = append(rows, types.Row{types.Null()})
		}
		rows = append(rows, types.Row{v})
	}
	if nulls && len(vals) == 0 {
		rows = append(rows, types.Row{types.Null()})
	}
	return rows
}

// TestV2RoundTripProperty: float columns come back bit for bit (NaN
// payloads, -0, ±Inf, subnormals) and text columns value for value (empty
// strings, inline and dictionary), with and without NULLs interleaved, at
// non-NULL counts around the byte planes' edges — encoded from rows and from
// a columnar view to the same bytes.
func TestV2RoundTripProperty(t *testing.T) {
	specials := []uint64{
		0x7ff8000000000000, // quiet NaN
		0x7ff8000000000001, // quiet NaN with a payload
		0x7ff0000000000001, // signalling NaN
		0xfff8dead0000beef, // negative NaN with a payload
		0x8000000000000000, // -0
		0x0000000000000000, // +0
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
		0x0000000000000001, // smallest subnormal
		0x000fffffffffffff, // largest subnormal
		0x800fffffffffffff, // negative subnormal
		0x7fefffffffffffff, // largest finite
	}
	rng := rand.New(rand.NewSource(31))
	repeated := []string{"", "a", "bb", "ccc"}
	for _, nn := range []int{0, 1, 2, 7, 8, 9, 4096} {
		floats, distinct, few := make([]types.Value, nn), make([]types.Value, nn), make([]types.Value, nn)
		for k := range nn {
			bits := rng.Uint64()
			if k < len(specials) {
				bits = specials[k]
			}
			floats[k] = types.NewFloat(math.Float64frombits(bits))
			s := fmt.Sprintf("s%d-%x", k, rng.Uint32())
			if k%5 == 0 {
				s = ""
			}
			distinct[k] = types.NewText(s)
			few[k] = types.NewText(repeated[k%len(repeated)])
		}
		for _, nulls := range []bool{false, true} {
			for _, col := range []struct {
				name    string
				kind    types.Kind
				vals    []types.Value
				variant int // at nn = 4096
			}{
				{"float", types.KindFloat, floats, 0},
				{"distinct-text", types.KindText, distinct, textInline},
				{"repeated-text", types.KindText, few, textDict},
			} {
				what := fmt.Sprintf("%s nn=%d nulls=%v", col.name, nn, nulls)
				rows := nullsAmong(col.vals, nulls)
				payload := EncodeResultV2(oneSet("p", []string{"c"}, rows))
				view := &colstore.View{Frame: colstore.NewFrame([]types.Kind{col.kind}, rows)}
				fromView := &db.Result{Sets: []*db.ResultSet{{Name: "p", Columns: []string{"c"}, Rows: rows, Vec: view}}}
				if !bytes.Equal(EncodeResultV2(fromView), payload) {
					t.Fatalf("%s: encoded from a view, the payload differs from the one encoded from rows", what)
				}
				if nn == 4096 {
					if v := int(firstColDesc(t, payload) & colVariantMask); v != col.variant {
						t.Errorf("%s: shipped as variant %d, want %d", what, v, col.variant)
					}
				}
				dec, err := DecodeResult(payload)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				got := dec.Sets[0].Rows
				if len(got) != len(rows) {
					t.Fatalf("%s: %d rows decoded, %d encoded", what, len(got), len(rows))
				}
				for i, row := range rows {
					want, have := row[0], got[i][0]
					switch {
					case have.Kind() != want.Kind():
						t.Fatalf("%s: row %d decoded as %s, want %s", what, i, have.Kind(), want.Kind())
					case want.Kind() == types.KindFloat && math.Float64bits(have.Float()) != math.Float64bits(want.Float()):
						t.Fatalf("%s: row %d decoded as %#x, want %#x", what, i, math.Float64bits(have.Float()), math.Float64bits(want.Float()))
					case want.Kind() == types.KindText && have.Text() != want.Text():
						t.Fatalf("%s: row %d decoded as %q, want %q", what, i, have.Text(), want.Text())
					}
				}
				checkDecodedV2(t, what, payload, dec)
			}
		}
	}
}

func TestV2EmptyShapes(t *testing.T) {
	for _, r := range []*db.Result{
		{},
		oneSet("empty", nil, nil),
		oneSet("nocols", nil, nil),
		oneSet("norows", []string{"a", "b"}, nil),
	} {
		v2 := mustRoundTripV2(t, r)
		v1 := EncodeResult(r)
		// Zero-row sets have no column blocks: v2 matches v1 byte for byte
		// except the version number in the header.
		if len(v2) != len(v1) {
			t.Errorf("empty-shape v2 size %d != v1 size %d", len(v2), len(v1))
		}
	}
}

func TestV2AllNullColumns(t *testing.T) {
	small := make([]types.Row, 100)
	for i := range small {
		small[i] = types.Row{types.Null(), types.NewInt(int64(i))}
	}
	r := oneSet("s", []string{"nul", "id"}, small)
	enc := mustRoundTripV2(t, r)
	if v1 := EncodeResult(r); len(enc) >= len(v1) {
		t.Errorf("all-NULL column: v2 %d bytes >= v1 %d bytes", len(enc), len(v1))
	}

	// Larger than v2AllNullMax: the implicit form is off the table, the
	// column ships as tagged values, deflate crushes the run — and it must
	// still round-trip and beat v1.
	large := make([]types.Row, v2AllNullMax+500)
	for i := range large {
		large[i] = types.Row{types.Null()}
	}
	r = oneSet("l", []string{"nul"}, large)
	enc = mustRoundTripV2(t, r)
	if v1 := EncodeResult(r); len(enc) >= len(v1) {
		t.Errorf("large all-NULL column: v2 %d bytes >= v1 %d bytes", len(enc), len(v1))
	}
}

func TestV2MixedKindColumnRoundTrips(t *testing.T) {
	r := oneSet("m", []string{"v"}, []types.Row{
		{types.NewInt(1)},
		{types.NewText("two")},
		{types.NewBool(true)},
		{types.Null()},
		{types.NewFloat(5.5)},
	})
	mustRoundTripV2(t, r)
}

func TestV2TextDictionaryDegenerate(t *testing.T) {
	// All-equal strings: dictionary of one entry, one-byte codes.
	same := make([]types.Row, 200)
	for i := range same {
		same[i] = types.Row{types.NewText("constant")}
	}
	r := oneSet("same", []string{"s"}, same)
	enc := mustRoundTripV2(t, r)
	if v1 := EncodeResult(r); len(enc) >= len(v1)/4 {
		t.Errorf("constant text column compressed poorly: v2 %d vs v1 %d bytes", len(enc), len(v1))
	}

	// All-distinct strings: the dictionary buys nothing; inline must win or
	// tie, and the whole thing still must not exceed v1.
	distinct := make([]types.Row, 64)
	for i := range distinct {
		distinct[i] = types.Row{types.NewText(fmt.Sprintf("unique-%d-%d", i, i*i))}
	}
	r = oneSet("distinct", []string{"s"}, distinct)
	enc = mustRoundTripV2(t, r)
	if v1 := EncodeResult(r); len(enc) > len(v1) {
		t.Errorf("distinct text column: v2 %d bytes > v1 %d bytes", len(enc), len(v1))
	}
}

func TestV2IntDeltaExtremes(t *testing.T) {
	// Sequential keys: delta form shrinks to ~1 byte per row.
	seq := make([]types.Row, 1000)
	for i := range seq {
		seq[i] = types.Row{types.NewInt(int64(1_000_000 + i))}
	}
	r := oneSet("seq", []string{"id"}, seq)
	enc := mustRoundTripV2(t, r)
	if v1 := EncodeResult(r); len(enc)*2 >= len(v1) {
		t.Errorf("sequential ints barely compressed: v2 %d vs v1 %d bytes", len(enc), len(v1))
	}

	// Extremes whose deltas wrap int64: correctness over compression.
	r = oneSet("wrap", []string{"v"}, []types.Row{
		{types.NewInt(math.MaxInt64)},
		{types.NewInt(math.MinInt64)},
		{types.NewInt(math.MaxInt64)},
		{types.NewInt(-1)},
		{types.NewInt(1)},
	})
	mustRoundTripV2(t, r)
}

// jobishResult builds a multi-set result shaped like the benchmark
// workloads: a dictionary-friendly text column, a sequential key column, a
// float column, nulls sprinkled in.
func jobishResult(n int) *db.Result {
	rows1 := make([]types.Row, n)
	rows2 := make([]types.Row, n/2)
	for i := range rows1 {
		var note types.Value
		if i%7 == 0 {
			note = types.Null()
		} else {
			note = types.NewText(fmt.Sprintf("genre-%d", i%5))
		}
		rows1[i] = types.Row{types.NewInt(int64(i)), note, types.NewFloat(float64(i) * 0.25)}
	}
	for i := range rows2 {
		rows2[i] = types.Row{types.NewInt(int64(i * 3)), types.NewBool(i%3 == 0)}
	}
	return &db.Result{Sets: []*db.ResultSet{
		db.NewResultSet("t", []string{"id", "note", "score"}, rows1),
		db.NewResultSet("u", []string{"fk", "ok"}, rows2),
	}}
}

func TestV2ParallelismInvariantBytes(t *testing.T) {
	r := jobishResult(500)
	p1 := EncodeResultOptions(r, EncodeOptions{Version: FormatV2, Run: parallel.NewRun(1)})
	p4 := EncodeResultOptions(r, EncodeOptions{Version: FormatV2, Run: parallel.NewRun(4)})
	if !bytes.Equal(p1, p4) {
		t.Fatal("v2 bytes differ between parallelism 1 and 4")
	}
}

func TestV2NeverLargerThanV1(t *testing.T) {
	for _, r := range []*db.Result{
		jobishResult(10),
		jobishResult(1000),
		oneSet("one", []string{"a"}, []types.Row{{types.NewInt(42)}}),
		oneSet("null1", []string{"a"}, []types.Row{{types.Null()}}),
		oneSet("bools", []string{"b"}, []types.Row{
			{types.NewBool(true)}, {types.NewBool(false)}, {types.Null()},
		}),
	} {
		v1, v2 := EncodeResult(r), EncodeResultV2(r)
		if len(v2) > len(v1) {
			t.Errorf("v2 %d bytes > v1 %d bytes for %q", len(v2), len(v1), r.Sets[0].Name)
		}
	}
}

// TestV2VecGatherMatchesRowGather checks the dictionary-reuse fast path: a
// set carrying a typed colstore view (with a scan-time dictionary larger than
// the result needs, and a selection vector) must encode to exactly the bytes
// of the cell-by-cell gather over the same rows made a set by
// db.NewResultSet (exact-value columns).
func TestV2VecGatherMatchesRowGather(t *testing.T) {
	kinds := []types.Kind{types.KindInt, types.KindText, types.KindFloat}
	frameRows := make([]types.Row, 40)
	for i := range frameRows {
		var s types.Value
		if i%5 == 0 {
			s = types.Null()
		} else {
			s = types.NewText(fmt.Sprintf("word-%d", i%9))
		}
		frameRows[i] = types.Row{types.NewInt(int64(i * 10)), s, types.NewFloat(float64(i))}
	}
	frame := colstore.NewFrame(kinds, frameRows)
	// Select a shuffled-ish subset so wire codes must be remapped to
	// first-occurrence order, not reused as-is.
	sel := []int32{33, 2, 7, 2, 19, 38, 7, 11}
	view := &colstore.View{Frame: frame, Sel: sel}
	rows := make([]types.Row, len(sel))
	for i, j := range sel {
		rows[i] = frameRows[j]
	}
	withVec := &db.Result{Sets: []*db.ResultSet{{
		Name: "v", Columns: []string{"id", "w", "f"}, Rows: rows, Vec: view,
	}}}
	fromRows := &db.Result{Sets: []*db.ResultSet{db.NewResultSet("v", []string{"id", "w", "f"}, rows)}}
	a, b := EncodeResultV2(withVec), EncodeResultV2(fromRows)
	if !bytes.Equal(a, b) {
		t.Fatal("typed-view and exact-value v2 encodes differ")
	}
	mustRoundTripV2(t, withVec)
}

func TestDecodeResultExpectRejectsCrossVersion(t *testing.T) {
	r := jobishResult(20)
	v1, v2 := EncodeResult(r), EncodeResultV2(r)
	if _, err := DecodeResultExpect(v1, FormatV1); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResultExpect(v2, FormatV2); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResultExpect(v1, FormatV2); err == nil {
		t.Fatal("v1 payload accepted where v2 was expected")
	}
	if _, err := DecodeResultExpect(v2, FormatV1); err == nil {
		t.Fatal("v2 payload accepted where v1 was expected")
	}
	if _, err := DecodeResultExpect(v1, 99); err == nil {
		t.Fatal("unknown expected version accepted")
	}
}

// v2Prologue hand-rolls a one-set v2 payload up to the row count; the test
// appends column blocks after it.
func v2Prologue(nRows int) *Encoder {
	e := NewEncoder()
	e.uvarint(magic)
	e.uvarint(FormatV2)
	e.uvarint(0) // flags
	e.uvarint(1) // one set
	e.str("s")
	e.uvarint(1) // one column
	e.str("c")
	e.uvarint(uint64(nRows))
	return e
}

// malformedV2Columns are one-column v2 payloads (v2Prologue, then the block)
// the decoder must reject with the given error. FuzzEncodeDecode starts from
// them too.
var malformedV2Columns = []struct {
	name string
	rows int
	col  []byte // desc + body
	want string
}{
	{"reserved bit", 1, []byte{colReservedBit | colInt<<colKindShift, 2}, "reserved bit"},
	{"unknown kind", 1, []byte{7 << colKindShift}, "unknown column kind"},
	{"variant on float", 1, []byte{1 | colFloat<<colKindShift}, "no variant"},
	{"variant 2 on int", 1, []byte{2 | colInt<<colKindShift, 2}, "unknown payload variant"},
	{"bitmap on all-null", 2, []byte{colNullsBit | colAllNull<<colKindShift, 0x01}, "cannot carry a null bitmap"},
	// An all-NULL block has no body, so the encoder never deflates one; a
	// deflated one would escape the all-NULL row cap (5000 rows from an empty
	// stream here).
	{"deflated all-null", 5000, []byte{colFlateBit | colAllNull<<colKindShift, 2, 0x03, 0x00}, "all-NULL column block"},
	{"bitmap on any", 2, []byte{colNullsBit | colAny<<colKindShift, 0x01, tagNull, tagNull}, "cannot carry a null bitmap"},
	{"bitmap all set", 2, []byte{colNullsBit | colInt<<colKindShift, 0x03}, "non-canonical null bitmap"},
	{"bitmap none set", 2, []byte{colNullsBit | colInt<<colKindShift, 0x00, 2, 4}, "non-canonical null bitmap"},
	{"bitmap spare bits", 2, []byte{colNullsBit | colInt<<colKindShift, 0x05, 2}, "bits beyond row"},
	{"bool spare bits", 2, []byte{colBool << colKindShift, 0x04}, "bits beyond value"},
	{"dict code out of range", 1, []byte{textDict | colText<<colKindShift, 1, 1, 'a', 5}, "out of range"},
	{"truncated column", 3, []byte{colInt << colKindShift, 2}, "truncated"},
	{"truncated descriptor", 1, nil, "truncated column descriptor"},
	// The split layouts: lengths first, then bytes; floats as byte planes.
	{"text lengths sum past the payload", 2, []byte{textInline | colText<<colKindShift, 3, 3, 'a', 'b', 'c', 'd'}, "sum past the payload"},
	{"dict lengths sum past the payload", 1, []byte{textDict | colText<<colKindShift, 2, 2, 2, 'a', 'b', 0}, "sum past the payload"},
	{"text length of 2^63", 1, append([]byte{textInline | colText<<colKindShift},
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 'a'), "sum past the payload"},
	{"more strings than bytes", 100, append([]byte{textInline | colText<<colKindShift}, make([]byte, 20)...), "strings claimed"},
	{"float planes one byte short", 2, append([]byte{colFloat << colKindShift}, make([]byte, 15)...), "truncated float column"},
	// A fixed-width kind's stream may inflate to no more than its rows can
	// hold: a 1-row FLOAT body is at most 9 bytes, and this one inflates to
	// 64 KiB (well within deflate's ratio bound of its length).
	{"one float inflating to 64 KiB", 1, append([]byte{colFlateBit | colFloat<<colKindShift}, flatedBody(make([]byte, 64<<10))...), "rows of its kind can hold"},
}

// flatedBody is raw deflated as a column block ships it: the stream's
// uvarint length, then the stream.
func flatedBody(raw []byte) []byte {
	comp := deflate(new(deflater), nil, raw, nil)
	return append(binary.AppendUvarint(nil, uint64(len(comp))), comp...)
}

// TestV2DecoderRejectsMalformedColumns: every malformed block is refused
// with its error, and refusing it allocates no more than a few kilobytes,
// whatever its counts and lengths claim.
func TestV2DecoderRejectsMalformedColumns(t *testing.T) {
	for _, tc := range malformedV2Columns {
		t.Run(tc.name, func(t *testing.T) {
			e := v2Prologue(tc.rows)
			e.buf = append(e.buf, tc.col...)
			var err error
			if got := allocatedBy(func() { _, err = DecodeResult(e.Bytes()) }); got > 64<<10 {
				t.Errorf("rejecting it allocated %d bytes", got)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestV2DecoderRejectsHostileCounts(t *testing.T) {
	// An implicit all-NULL column may not claim more than v2AllNullMax rows.
	e := v2Prologue(v2AllNullMax + 1)
	e.buf = append(e.buf, colAllNull<<colKindShift)
	if _, err := DecodeResult(e.Bytes()); err == nil {
		t.Fatal("oversized implicit all-NULL column was accepted")
	}
	// A typed column cannot claim orders of magnitude more rows than its
	// remaining bytes could bit-pack.
	e = v2Prologue(1 << 20)
	e.buf = append(e.buf, colBool<<colKindShift, 0xff)
	if _, err := DecodeResult(e.Bytes()); err == nil {
		t.Fatal("bool column with absurd row count was accepted")
	}
	// The payload-wide cell budget rejects absurd totals before MakeRows.
	e = v2Prologue(1 << 50)
	if _, err := DecodeResult(e.Bytes()); err == nil {
		t.Fatal("absurd row count escaped the materialization budget")
	}
	// Zero columns with rows is structurally invalid in v2 as in v1.
	e = NewEncoder()
	e.uvarint(magic)
	e.uvarint(FormatV2)
	e.uvarint(0)
	e.uvarint(1)
	e.str("s")
	e.uvarint(0) // zero columns...
	e.uvarint(2) // ...but two rows
	if _, err := DecodeResult(e.Bytes()); err == nil {
		t.Fatal("rows in a zero-column v2 set were accepted")
	}
}

func TestV2DecoderRejectsBadCompressedColumns(t *testing.T) {
	deflateBytes := func(raw []byte) []byte {
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, flate.BestCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Compressed length longer than the remaining payload.
	e := v2Prologue(1)
	e.buf = append(e.buf, colInt<<colKindShift|colFlateBit, 200, 1)
	if _, err := DecodeResult(e.Bytes()); err == nil || !strings.Contains(err.Error(), "truncated compressed") {
		t.Fatalf("want truncated-compressed error, got %v", err)
	}

	// Garbage deflate stream.
	e = v2Prologue(1)
	e.buf = append(e.buf, colInt<<colKindShift|colFlateBit, 3, 0xff, 0xff, 0xff)
	if _, err := DecodeResult(e.Bytes()); err == nil || !strings.Contains(err.Error(), "corrupt compressed") {
		t.Fatalf("want corrupt-compressed error, got %v", err)
	}

	// A valid stream with trailing bytes after the column's values.
	comp := deflateBytes([]byte{2, 0x00}) // varint(1), then one stray byte
	e = v2Prologue(1)
	e.buf = append(e.buf, colInt<<colKindShift|colFlateBit)
	e.uvarint(uint64(len(comp)))
	e.buf = append(e.buf, comp...)
	if _, err := DecodeResult(e.Bytes()); err == nil || !strings.Contains(err.Error(), "trailing bytes in compressed column") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}

	// Row count implausible for the compressed size. (Small claims trip the
	// per-column ratio check; this one is big enough that the payload-wide
	// budget rejects it first — either guard is fine, both pre-allocation.)
	e = v2Prologue(1 << 24)
	e.buf = append(e.buf, colBool<<colKindShift|colFlateBit, 1, 0x00)
	if _, err := DecodeResult(e.Bytes()); err == nil {
		t.Fatal("implausible compressed row count was accepted")
	}
	e = v2Prologue(10000)
	e.buf = append(e.buf, colBool<<colKindShift|colFlateBit, 1, 0x00)
	if _, err := DecodeResult(e.Bytes()); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("want implausibility error, got %v", err)
	}
}

// TestEncodeResultAllocations guards the capacity hint: v1-encoding a
// numeric result of known shape must not regrow the buffer.
func TestEncodeResultAllocations(t *testing.T) {
	rows := make([]types.Row, 2000)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 7)), types.NewBool(i%2 == 0)}
	}
	r := oneSet("a", []string{"x", "y", "z"}, rows)
	allocs := testing.AllocsPerRun(10, func() {
		EncodeResult(r)
	})
	// One buffer allocation; anything more means the hint stopped covering
	// the payload and appends are regrowing (and copying) it.
	if allocs > 2 {
		t.Errorf("EncodeResult allocated %.0f times per run, want <= 2", allocs)
	}
}

// allocatedBy returns the bytes fn allocates, process-wide (so the work its
// parallel helpers do counts).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// rowBlockBytes is what boxing set's rows costs: one row header per row and
// one 32-byte cell per value.
func rowBlockBytes(set *db.ResultSet) uint64 {
	return uint64(len(set.Rows)) * uint64(24+32*len(set.Columns))
}

// TestDecodeAllocatesWhatItReturns guards the decoder's transient memory:
// decoding a JOB payload (every column deflated) allocates less than 1.75
// times the bytes the decoded result holds — its frame vectors, one backing
// string per text block and, for a one-set result only, its rows; the rest
// is the one buffer the payload's columns inflate into, headers and
// size-class rounding. Measured: 1.41x on 3c (one 23-row set, the only
// result here that is boxed), 1.74x on 9c and 1.59x on 16b (three sets each,
// held as views alone, so the fixed costs weigh most). An inflate buffer per
// column measured 1.40-1.73x while every set was boxed, a fresh 40 KB flate
// reader per column or an io.ReadAll doubling ladder from 512 bytes per
// column 10-17x on the two small payloads here.
func TestDecodeAllocatesWhatItReturns(t *testing.T) {
	d := db.New()
	if err := job.Load(d, job.Config{Scale: 0.1, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"3c", "9c", "16b"} {
		q, err := job.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Exec("SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT"))
		if err != nil {
			t.Fatal(err)
		}
		payload := EncodeResultV2(res)
		decoded, err := DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		var held uint64
		for _, set := range decoded.Sets {
			held += rowBlockBytes(set)
			n := uint64(set.NumRows())
			for c := range set.Columns {
				switch col := set.Vec.Frame.Col(c).(type) {
				case *colstore.Int64Column, *colstore.Float64Column:
					held += 8 * n
				case *colstore.BoolColumn:
					held += n
				case *colstore.TextColumn:
					// The entries slice the block's one backing string.
					held += 4*n + 24*uint64(len(col.Dict))
					for _, s := range col.Dict {
						held += uint64(len(s))
					}
				case *colstore.AnyColumn:
					// An inline text block: its values slice one backing string.
					held += 32 * n
					for _, v := range col.Vals {
						if v.Kind() == types.KindText {
							held += uint64(len(v.Text()))
						}
					}
				}
			}
		}
		bound := held * 7 / 4
		// The count is process-wide, so take the cheapest of several decodes
		// in case another goroutine allocates during one.
		got := uint64(math.MaxUint64)
		for attempt := 0; attempt < 200 && got > bound; attempt++ {
			got = min(got, allocatedBy(func() {
				if _, err := DecodeResult(payload); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if got > bound {
			t.Errorf("%s: decoding the %d-byte payload allocated %d bytes, the result holds %d (%.2fx, want < 1.75x)",
				name, len(payload), got, held, float64(got)/float64(held))
		}
		t.Logf("%s: %d sets, decoding allocated %.2fx what the result holds", name, len(decoded.Sets), float64(got)/float64(held))
	}
}

// TestDecodeInlineTextAllocsFlat: an inline text block decodes into one
// backing string its values slice, so decoding it allocates as many times
// at 4096 rows as at 16.
func TestDecodeInlineTextAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		e := v2Prologue(n)
		e.buf = append(e.buf, textInline|colText<<colKindShift)
		for i := range n {
			e.uvarint(uint64(len(fmt.Sprint(i))))
		}
		for i := range n {
			e.buf = append(e.buf, fmt.Sprint(i)...)
		}
		payload := e.Bytes()
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeResult(payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(16), allocs(4096); large > small {
		t.Errorf("decoding an inline text block allocates %.0f times at 4096 rows, %.0f at 16", large, small)
	}
}

// TestPostJoinOnDecodedResultBuildsNoFrame guards the client half of "a
// relation is a frame and a selection": the post-join of a v2-decoded star
// result runs on the decoder's frames, so what it allocates is its output's
// row block plus the join's own gathers — under 2x the block. Rebuilding the
// inputs' frames from their rows first (what db.NewResultSet does for a set
// that starts from rows) does not fit.
func TestPostJoinOnDecodedResultBuildsNoFrame(t *testing.T) {
	d := db.New()
	cfg := star.DefaultConfig()
	if err := star.Load(d, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := d.Exec("SELECT RESULTDB PRESERVING" + strings.TrimPrefix(star.Query(cfg, 0.8), "SELECT"))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeResult(EncodeResultV2(res))
	if err != nil {
		t.Fatal(err)
	}
	var out *db.ResultSet
	got := allocatedBy(func() {
		if out, err = db.ExecutePostJoinPlan(decoded); err != nil {
			t.Fatal(err)
		}
	})
	if block := rowBlockBytes(out); got > 2*block {
		t.Errorf("post-join allocated %d bytes for a %d-byte output block (%.2fx, want <= 2x)", got, block, float64(got)/float64(block))
	}
}

// raceBuild reports a race-detector build (race_test.go).
var raceBuild bool

// rowBlockAllocs counts the allocations made so far whose stack passes
// through types.MakeRows — every row block the system boxes — as the heap
// profile sees them after two collections (the profile lags by up to two
// cycles). Only allocations sampled at MemProfileRate 1 are counted exactly.
func rowBlockAllocs() int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, _ := runtime.MemProfile(nil, true); ; {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	var blocks int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == "resultdb/internal/types.MakeRows" {
				blocks += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return blocks
}

// TestServerPathBoxesNoRows guards the server half of "results box on
// demand": JOB, star and hierarchy RDB/RDBRP statements run through
// Session.ExecUnboxed — what the server calls — and are v2-encoded, in one buffer
// and chunk by chunk, without boxing a single row block (every allocation is
// sampled while they run). The star_transfer statements' execute-and-encode
// bytes are bounded too: the in-process probes (BenchmarkStarExec +
// BenchmarkStarEncode, 2 vCPUs) measured 14.7 MB a pass when results were
// boxed on the server and 7.3 MB after.
func TestServerPathBoxesNoRows(t *testing.T) {
	jobDB, starDB, hierDB := db.New(), db.New(), db.New()
	if err := job.Load(jobDB, job.Config{Scale: 0.05, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if err := star.Load(starDB, star.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := hierarchy.Load(hierDB, hierarchy.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	type stmt struct {
		d   *db.Database
		sql string
	}
	var stmts, starStmts []stmt
	for _, q := range job.Queries() {
		body := strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
		stmts = append(stmts, stmt{jobDB, "SELECT RESULTDB" + body}, stmt{jobDB, "SELECT RESULTDB PRESERVING" + body})
	}
	for _, s := range []float64{0.6, 0.8, 1.0} {
		body := strings.TrimPrefix(star.Query(star.DefaultConfig(), s), "SELECT")
		starStmts = append(starStmts, stmt{starDB, "SELECT RESULTDB PRESERVING" + body})
		stmts = append(stmts, stmt{starDB, "SELECT RESULTDB" + body})
	}
	stmts = append(stmts, starStmts...)
	for _, q := range []string{hierarchy.ResultDBElectronics, hierarchy.ResultDBClothing} {
		q = strings.TrimSpace(q)
		stmts = append(stmts, stmt{hierDB, q}, stmt{hierDB, strings.Replace(q, "RESULTDB", "RESULTDB PRESERVING", 1)})
	}
	serve := func(s stmt) {
		res, err := serverResult(s.d, s.sql)
		if err != nil {
			t.Fatalf("%s: %v", s.sql, err)
		}
		EncodeResultOptions(res, EncodeOptions{Version: FormatV2})
		streamedPayload(res)
	}
	for _, s := range stmts { // warm: statistics, frames, pools
		serve(s)
	}

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := rowBlockAllocs()
	for _, s := range stmts {
		serve(s)
	}
	if boxed := rowBlockAllocs() - before; boxed != 0 {
		t.Errorf("the server path boxed %d row blocks over %d statements, want 0", boxed, len(stmts))
	}
	runtime.MemProfileRate = 512 * 1024
	if raceBuild {
		return
	}

	const bound = 10 << 20
	got := uint64(math.MaxUint64)
	for attempt := 0; attempt < 5 && got > bound; attempt++ { // the free list may hand out fresh compression states
		got = min(got, allocatedBy(func() {
			for _, s := range starStmts {
				res, err := serverResult(s.d, s.sql)
				if err != nil {
					t.Fatal(err)
				}
				EncodeResultV2(res)
			}
		}))
	}
	if got > bound {
		t.Errorf("executing and encoding the star_transfer statements allocated %d bytes, want <= %d", got, bound)
	}
}

func BenchmarkEncodeResultV1(b *testing.B) {
	r := jobishResult(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeResult(r)
	}
}

func BenchmarkEncodeResultV2(b *testing.B) {
	r := jobishResult(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeResultV2(r)
	}
}

func BenchmarkDecodeResultV2(b *testing.B) {
	enc := EncodeResultV2(jobishResult(5000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResult(enc); err != nil {
			b.Fatal(err)
		}
	}
}
