package wire

import (
	"bytes"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/engine"
	"resultdb/internal/types"
)

// fuzzSeedResult builds a representative subdatabase result: two sets (all
// five value kinds, NaN and -0.0 included) plus a shipped post-join plan.
func fuzzSeedResult() *db.Result {
	nan := types.NewFloat(0)
	{
		// Build NaN without importing math in a way the encoder must preserve
		// bit-for-bit (0/0).
		zero := 0.0
		nan = types.NewFloat(zero / zero)
	}
	return &db.Result{
		Sets: []*db.ResultSet{
			db.NewResultSet("c", []string{"id", "name", "score"}, []types.Row{
				{types.NewInt(1), types.NewText("Ann"), types.NewFloat(1.5)},
				{types.NewInt(-7), types.NewText("it's"), nan},
				{types.Null(), types.NewText(""), types.NewFloat(0)},
			}),
			db.NewResultSet("p", []string{"ok"}, []types.Row{{types.NewBool(true)}, {types.NewBool(false)}}),
		},
		PostJoinPlan: &db.PostJoinPlan{
			Preds:      []engine.JoinPred{{LeftRel: "c", LeftCol: "id", RightRel: "o", RightCol: "cust_id"}},
			Projection: []engine.Attr{{Rel: "c", Col: "name"}, {Rel: "p", Col: "ok"}},
		},
	}
}

// FuzzEncodeDecode throws arbitrary bytes at DecodeResult and checks the
// wire format's two safety contracts:
//
//  1. the decoder never panics and never over-allocates on hostile counts
//     (it returns an error instead), and
//  2. decode is idempotent through the codec: if a payload decodes, then
//     re-encoding the result and decoding again reproduces the same result,
//     verified by byte-comparing the two canonical encodings. (The raw input
//     itself may differ from the re-encoding — varints have non-minimal
//     forms — so decode-equality, not byte-equality of the input, is the
//     invariant.)
func FuzzEncodeDecode(f *testing.F) {
	f.Add(EncodeResult(fuzzSeedResult()))
	f.Add(EncodeResult(&db.Result{}))
	f.Add(EncodeResult(&db.Result{Sets: []*db.ResultSet{db.NewResultSet("empty", nil, nil)}}))
	f.Add(EncodeResultV2(fuzzSeedResult()))
	f.Add(EncodeResultV2(&db.Result{}))
	f.Add([]byte{})
	f.Add([]byte{0xa1, 0x84, 0x90, 0x92, 0x05}) // bare magic, then truncation
	// Hostile v2 shapes: a dictionary claiming absurdly many entries, and a
	// column whose null bitmap is cut short. Both must be rejected cleanly;
	// the fuzzer mutates from here into the rest of the columnar format.
	hostile := NewEncoder()
	hostile.uvarint(magic)
	hostile.uvarint(FormatV2)
	hostile.uvarint(0)
	hostile.uvarint(1)
	hostile.str("s")
	hostile.uvarint(1)
	hostile.str("c")
	hostile.uvarint(3)
	hostile.buf = append(hostile.buf, textDict|colText<<colKindShift)
	hostile.uvarint(1 << 40) // dictionary entries: absurd
	f.Add(hostile.Bytes())
	truncBitmap := NewEncoder()
	truncBitmap.uvarint(magic)
	truncBitmap.uvarint(FormatV2)
	truncBitmap.uvarint(0)
	truncBitmap.uvarint(1)
	truncBitmap.str("s")
	truncBitmap.uvarint(1)
	truncBitmap.str("c")
	truncBitmap.uvarint(100)
	truncBitmap.buf = append(truncBitmap.buf, colNullsBit|colInt<<colKindShift, 0x02) // 13-byte bitmap, 1 present
	f.Add(truncBitmap.Bytes())
	// Every malformed block the decoder is known to refuse: among them text
	// lengths summing past the payload, a length of 2^63, more strings than
	// bytes, and float planes one byte short.
	for _, tc := range malformedV2Columns {
		e := v2Prologue(tc.rows)
		e.buf = append(e.buf, tc.col...)
		f.Add(e.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data) // must never panic
		if err != nil {
			return
		}
		// Idempotency through both codecs: whatever decoded must survive a
		// v1 and a v2 re-encode, and both must agree on the values (byte
		// equality of the canonical v1 form).
		enc := EncodeResult(res)
		res2, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoded v1 payload does not decode: %v", err)
		}
		if enc2 := EncodeResult(res2); !bytes.Equal(enc, enc2) {
			t.Fatalf("v1 decode/encode not idempotent:\nfirst:  %x\nsecond: %x", enc, enc2)
		}
		encV2 := EncodeResultV2(res)
		if v, err := PayloadVersion(encV2); err != nil || v != FormatV2 {
			t.Fatalf("v2 re-encoding has version %d, %v", v, err)
		}
		// (No size assertion here: fuzz inputs can decode to mixed-kind
		// columns, the one case where v2 costs an extra desc byte. The
		// differential gate asserts v2 <= v1 on the real workloads.)
		res3, err := DecodeResult(encV2)
		if err != nil {
			t.Fatalf("re-encoded v2 payload does not decode: %v", err)
		}
		if enc3 := EncodeResult(res3); !bytes.Equal(enc, enc3) {
			t.Fatalf("v2 round trip altered the result:\nv1 form:  %x\nvia v2:   %x", enc, enc3)
		}
		// encV2 is canonical, so its decode must be frame-backed and encode
		// back to it exactly.
		checkDecodedV2(t, "fuzz", encV2, res3)
	})
}

// TestDecodeRejectsHostileCounts locks the allocation bounds: headers that
// announce more elements than the payload could possibly hold must error
// without allocating row storage for them.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	base := EncodeResult(fuzzSeedResult())
	// Sanity: the untampered payload round-trips.
	if _, err := DecodeResult(base); err != nil {
		t.Fatalf("seed payload does not decode: %v", err)
	}
	e := NewEncoder()
	e.uvarint(magic)
	e.uvarint(FormatV1)
	e.uvarint(0) // flags
	e.uvarint(1) // one set
	e.str("s")
	e.uvarint(1 << 40) // columns: absurd
	if _, err := DecodeResult(e.Bytes()); err == nil {
		t.Fatal("absurd column count was accepted")
	}
	e = NewEncoder()
	e.uvarint(magic)
	e.uvarint(FormatV1)
	e.uvarint(0)
	e.uvarint(1)
	e.str("s")
	e.uvarint(1)
	e.str("a")
	e.uvarint(1 << 50) // rows: absurd
	if _, err := DecodeResult(e.Bytes()); err == nil {
		t.Fatal("absurd row count was accepted")
	}
	e = NewEncoder()
	e.uvarint(magic)
	e.uvarint(FormatV1)
	e.uvarint(0)
	e.uvarint(1)
	e.str("s")
	e.uvarint(0) // zero columns...
	e.uvarint(2) // ...but two rows
	if _, err := DecodeResult(e.Bytes()); err == nil {
		t.Fatal("rows in a zero-column set were accepted")
	}
}
