package wire

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"resultdb/internal/colstore"
	"resultdb/internal/db"
	"resultdb/internal/parallel"
	"resultdb/internal/types"
	"resultdb/internal/workload/job"
)

// coldJOBBytesPerStatement bounds what executing and v2-encoding one JOB
// RESULTDB statement allocates (TestColdJOBAllocatesForItsResult). The test
// measured 355 933 bytes a statement while the encoder's text gather sized a
// remap to the scan's whole dictionary and copied its entries, and the
// scans, semi-joins and narrowed views copied their selection vectors,
// 208 462 after that, 175 001 with the result set its view, and 151 184
// since each scan writes a vector of its survivors, not of its candidates.
// The bound keeps about the margin of 75 000 it had over 175 001.
const coldJOBBytesPerStatement = 226_000

// TestColdJOBAllocatesForItsResult guards what a cold request allocates: the
// 33 JOB templates as SELECT RESULTDB at scale 0.5, executed with the cache
// off and every set v2-encoded as the server sends it (ExecUnboxed, then
// encodeSetVersion), at degree 2 — the benchmark's job_cold request without
// the socket. The bytes are process-wide runtime.MemStats.TotalAlloc over a
// pass of all 33, after a warm-up pass; the cheapest of a few passes counts,
// in case another goroutine allocates during one.
func TestColdJOBAllocatesForItsResult(t *testing.T) {
	if testing.Short() {
		t.Skip("loads JOB at scale 0.5")
	}
	d := db.New()
	if err := job.Load(d, job.Config{Scale: 0.5, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	sess.CoreOptions.Parallelism = 2
	var stmts []string
	for _, q := range job.Queries() {
		stmts = append(stmts, "SELECT RESULTDB"+strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT"))
	}
	pass := func() {
		for _, sql := range stmts {
			res, run, err := sess.ExecUnboxed(sql)
			if err != nil {
				t.Fatal(err)
			}
			for _, set := range res.Sets {
				var e Encoder
				e.encodeSetVersion(set, FormatV2, run)
			}
		}
	}
	pass()
	got := uint64(math.MaxUint64)
	for range 5 {
		got = min(got, allocatedBy(pass)/uint64(len(stmts)))
	}
	if got > coldJOBBytesPerStatement {
		t.Errorf("a cold JOB statement allocates %d bytes to execute and encode, want <= %d", got, coldJOBBytesPerStatement)
	}
	t.Logf("%d statements: %d bytes a statement", len(stmts), got)
}

// textSet is a one-column TEXT result of the rows at the frame positions sel
// of a column whose dictionary holds dictSize entries, one row an entry.
func textSet(dictSize int, sel []int32) *db.ResultSet {
	dict := make([]string, dictSize)
	codes := make([]uint32, dictSize)
	for i := range dict {
		dict[i] = fmt.Sprintf("title #%d", i)
		codes[i] = uint32(i)
	}
	col := colstore.NewTextColumn(codes, dict, nil)
	return &db.ResultSet{Name: "t", Columns: []string{"title"},
		Vec: &colstore.View{Frame: colstore.FrameOf(dictSize, []colstore.Column{col}), Sel: sel}}
}

// TestTextGatherAllocatesForItsRows: v2-encoding a few rows of a TEXT column
// whose scan dictionary holds 100 000 entries allocates what encoding the
// same rows of a 16-entry dictionary does — bytes for the rows, none for the
// dictionary they were scanned from — and ships the bytes the cell-by-cell
// gather (gatherColCells, over the same rows boxed) ships. Repeated and NULL
// rows keep the first-occurrence order and the bitmap honest.
func TestTextGatherAllocatesForItsRows(t *testing.T) {
	sel := []int32{9, 3, 9, 12, 0, 3}
	encode := func(set *db.ResultSet) []byte {
		return EncodeResultV2(&db.Result{Sets: []*db.ResultSet{set}})
	}
	allocs := func(set *db.ResultSet) uint64 {
		for range 2 * cap(deflaters) { // every state's scratch grown to the dictionary
			encode(set)
		}
		least := uint64(math.MaxUint64)
		for range 20 {
			least = min(least, allocatedBy(func() { encode(set) }))
		}
		return least
	}
	large, small := textSet(100_000, sel), textSet(16, sel)
	for _, set := range []*db.ResultSet{large, small} {
		cells := db.NewResultSet(set.Name, set.Columns, set.Vec.Rows())
		if _, ok := cells.Vec.Frame.Col(0).(*colstore.AnyColumn); !ok {
			t.Fatal("the boxed set does not take the cell-by-cell gather")
		}
		if got, want := encode(set), encode(cells); !bytes.Equal(got, want) {
			t.Fatalf("%d-entry dictionary: the vector gather ships other bytes than the cell-by-cell one", len(set.Vec.Frame.Col(0).(*colstore.TextColumn).Dict))
		}
	}
	if a, b := allocs(large), allocs(small); a > b {
		t.Errorf("encoding %d rows allocates %d bytes over a 100 000-entry dictionary, %d over a 16-entry one", len(sel), a, b)
	}
	withNulls := textSet(100_000, nil)
	withNulls.Vec.Frame.Col(0).(*colstore.TextColumn).Nulls = colstore.BitmapFromBytes(append([]byte{0x05}, make([]byte, 100_000/8)...))
	withNulls.Vec.Sel = []int32{0, 1, 2, 1}
	cells := db.NewResultSet("t", withNulls.Columns, withNulls.Vec.Rows())
	if !bytes.Equal(encode(withNulls), encode(cells)) {
		t.Fatal("with NULLs: the vector gather ships other bytes than the cell-by-cell one")
	}
}

// deflaterStates takes every token off the free list, notes it, and puts it
// back. Nothing may encode meanwhile.
func deflaterStates() map[*deflater]bool {
	states := make(map[*deflater]bool)
	taken := make([]*deflater, 0, cap(deflaters))
	for range cap(deflaters) {
		z := <-deflaters
		taken = append(taken, z)
		states[z] = true
	}
	for _, z := range taken {
		deflaters <- z
	}
	return states
}

// TestWarmedDeflaterListMakesNoState: once every token of the free list is a
// state, two sets encoding their columns at degree 2 side by side — up to
// four column encodes wanting a state at once, on a list of GOMAXPROCS —
// take the same states back and forth and make none: each round allocates
// less than one state's tables, and the list holds the same states after.
func TestWarmedDeflaterListMakesNoState(t *testing.T) {
	const n = 1024
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i * 7 % 1000)), types.NewFloat(float64(i%1000) / 8),
			types.NewText(fmt.Sprintf("name %d", i%300)), types.NewInt(int64(i % 13))}
	}
	res := oneSet("wide", []string{"a", "b", "c", "d"}, rows)
	if desc := firstColDesc(t, EncodeResultV2(res)); desc&colFlateBit == 0 {
		t.Fatal("the columns do not deflate")
	}
	blk, br := plainColV2(new(deflater), res.Sets[0], 0, n)
	state := allocatedBy(func() { deflate(new(deflater), nil, blk[1:], br.at[:br.n]) })
	want := EncodeResultOptions(res, EncodeOptions{Version: FormatV2, Run: parallel.NewRun(1)})
	side := func() {
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := EncodeResultOptions(res, EncodeOptions{Version: FormatV2, Run: parallel.NewRun(2)}); !bytes.Equal(got, want) {
					t.Error("a concurrent degree-2 encode gives other bytes than a serial one")
				}
			}()
		}
		wg.Wait()
	}
	// The list hands tokens out first in, first out, so this many rounds
	// take every token at least once.
	for range cap(deflaters) {
		side()
	}
	warm := deflaterStates()
	if warm[nil] {
		t.Fatalf("after warm-up the list still holds a token with no state")
	}
	for round := range 200 {
		if got := allocatedBy(side); got >= state {
			t.Fatalf("round %d allocated %d bytes, a state's tables are %d", round, got, state)
		}
	}
	for z := range deflaterStates() {
		if !warm[z] {
			t.Fatal("the warmed list holds a state it did not hold before")
		}
	}
}

// v1DecodeJOBBytes bounds what decoding the v1 payloads of the 33 JOB
// RESULTDB results at scale 0.1 allocates (TestV1DecodeHoldsEachValueOnce):
// 749 118 bytes, what the decoder allocated when a decoded set was its rows
// alone. Boxing rows and then copying them into exact-value columns for the
// set's view took it to 957 174; rows boxed from typed vectors take 719 992.
const v1DecodeJOBBytes = 749_118

// TestV1DecodeHoldsEachValueOnce: a v1-decoded set holds each value in its
// view's vector and in the row block boxed from it, not in rows and a copy
// of them, so decoding the 33 JOB results allocates no more than decoding
// them into rows alone did.
func TestV1DecodeHoldsEachValueOnce(t *testing.T) {
	d := db.New()
	if err := job.Load(d, job.Config{Scale: 0.1, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, q := range job.Queries() {
		res, err := d.Exec("SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT"))
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, EncodeResult(res))
	}
	decodeAll := func() {
		for _, p := range payloads {
			if _, err := DecodeResult(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := uint64(math.MaxUint64)
	for range 5 {
		got = min(got, allocatedBy(decodeAll))
	}
	if got > v1DecodeJOBBytes {
		t.Errorf("decoding the %d v1 payloads allocated %d bytes, want <= %d", len(payloads), got, v1DecodeJOBBytes)
	}
}

// TestPanickingColumnEncodeReturnsItsToken: a column encode that panics
// mid-gather gives its token back — the list would run dry otherwise — and
// without the state whose remap it left unclear, so the next encode of the
// same column ships the right bytes.
func TestPanickingColumnEncodeReturnsItsToken(t *testing.T) {
	good := textSet(8, []int32{5, 1, 5, 2})
	want := EncodeResultV2(&db.Result{Sets: []*db.ResultSet{good}})
	bad := textSet(8, []int32{5, 1, 5, 2, 7})
	bad.Vec.Frame.Col(0).(*colstore.TextColumn).Codes[7] = 99 // past the dictionary
	for range 2 * cap(deflaters) {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("encoding a code past the dictionary did not panic")
				}
			}()
			EncodeResultV2(&db.Result{Sets: []*db.ResultSet{bad}})
		}()
	}
	if len(deflaters) != cap(deflaters) {
		t.Fatalf("the list holds %d tokens after the panics, want %d", len(deflaters), cap(deflaters))
	}
	if got := EncodeResultV2(&db.Result{Sets: []*db.ResultSet{good}}); !bytes.Equal(got, want) {
		t.Fatal("an encode after the panics ships other bytes")
	}
}
