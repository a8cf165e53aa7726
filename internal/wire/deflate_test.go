package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// body is a column block's body as tryFlate is handed it, with its stream
// breaks.
type body struct {
	name   string
	raw    []byte
	breaks []int
}

// resultBodies returns the body of every column block the v2 encoder writes
// for res that tryFlate tries to deflate (16 bytes or more).
func resultBodies(name string, res *db.Result) []body {
	var bodies []body
	for _, set := range res.Sets {
		n := set.NumRows()
		if n == 0 {
			continue
		}
		for j, c := range set.Columns {
			blk, br := plainColV2(set, j, n)
			if len(blk)-1 >= 16 {
				bodies = append(bodies, body{fmt.Sprintf("%s %s.%s", name, set.Name, c), blk[1:], br.at[:br.n:br.n]})
			}
		}
	}
	return bodies
}

// workloadBodies returns the bodies of the benchmark's payloads
// (workloadResults) of one workload, "job" or "star".
func workloadBodies(t testing.TB, workload string) []body {
	var bodies []body
	for _, w := range workloadResults(t) {
		if w.workload == workload {
			bodies = append(bodies, resultBodies(w.workload+" "+w.name, w.res)...)
		}
	}
	return bodies
}

// randomBytes returns n bytes of a fixed pseudo-random sequence.
func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// edgeBodies are bodies at the compressor's edges. want names a token each
// must parse into: a match at distance 1 or 32 768, or of length 258.
var edgeBodies = []struct {
	body
	want string
}{
	{body{"16 bytes", []byte("subdatabase, sub"), nil}, ""},
	{body{"64 KiB of one byte", bytes.Repeat([]byte{7}, 64<<10), nil}, "distance 1"},
	{body{"128 KiB random, stored", randomBytes(1, 128<<10), []int{1 << 16}}, ""},
	{body{"a stored run past 65 535 bytes, breaks around it", randomBytes(2, 70000), []int{65534, 65535, 65536}}, ""},
	{body{"a match at distance 32 768", slices.Concat(
		append([]byte{0xaa}, randomBytes(3, 299)...), make([]byte, 32768-300), []byte{0xaa}, randomBytes(3, 299)), nil}, "distance 32768"},
	{body{"a match of length 258", slices.Concat(randomBytes(4, 300), []byte("|"), randomBytes(4, 300)), []int{300}}, "length 258"},
	{body{"runs and breaks", slices.Concat(bytes.Repeat([]byte("ab"), 5000), randomBytes(5, 5000), bytes.Repeat([]byte("ab"), 5000)),
		[]int{0, 10000, 10000, 15000, 25000, 40000}}, ""},
}

// hasToken reports whether toks has the token want names.
func hasToken(toks []uint32, want string) bool {
	for _, t := range toks {
		if t < matchFlag {
			continue
		}
		d, l := int(t&0x7fff)+1, int(t>>15&0xff)+3
		if want == fmt.Sprintf("distance %d", d) || want == fmt.Sprintf("length %d", l) {
			return true
		}
	}
	return false
}

// checkDeflate deflates b with z and asserts that inflate and compress/flate's
// reader both give b back, and that the stream is no longer than stored
// blocks of b's streams would be. It returns the stream.
func checkDeflate(t testing.TB, z *deflater, b body) []byte {
	t.Helper()
	comp := deflate(z, nil, b.raw, b.breaks)
	if got, err := inflate(nil, comp, len(b.raw)); err != nil || !bytes.Equal(got, b.raw) {
		t.Fatalf("%s: inflate gives %d bytes, %v; want the %d-byte body", b.name, len(got), err, len(b.raw))
	}
	if got, ok := flateOracle(comp, len(b.raw)); !ok || !bytes.Equal(got, b.raw) {
		t.Fatalf("%s: compress/flate's reader gives %d bytes (accepted %v); want the %d-byte body", b.name, len(got), ok, len(b.raw))
	}
	if bound := len(b.raw) + 6*(len(b.breaks)+1) + 5*(len(b.raw)/maxStoredLen+1) + 1; len(comp) > bound {
		t.Fatalf("%s: %d bytes deflate to %d, more than stored blocks (%d)", b.name, len(b.raw), len(comp), bound)
	}
	return comp
}

// TestDeflateRoundTrips: every body the benchmark's payloads hand tryFlate,
// and bodies at the compressor's edges, deflate to a stream that inflate and
// compress/flate's reader both inflate back to the body. The same bodies
// deflate to the same bytes with a fresh state, with one state reused
// serially, and with the shared states from goroutines at once, as a
// parallel column encode takes them.
func TestDeflateRoundTrips(t *testing.T) {
	bodies := append(workloadBodies(t, "job"), workloadBodies(t, "star")...)
	if len(bodies) < 100 {
		t.Fatalf("only %d bodies in the benchmark's payloads", len(bodies))
	}
	for _, e := range edgeBodies {
		z := new(deflater)
		checkDeflate(t, z, e.body)
		if e.want != "" && !hasToken(z.toks, e.want) {
			t.Errorf("%s: no match of %s", e.name, e.want)
		}
		bodies = append(bodies, e.body)
	}
	serial := make([][]byte, len(bodies))
	reused := new(deflater)
	seen := map[int]int{}
	for i, b := range bodies {
		serial[i] = checkDeflate(t, reused, b)
		if fresh := deflate(new(deflater), nil, b.raw, b.breaks); !bytes.Equal(fresh, serial[i]) {
			t.Fatalf("%s: a reused state deflates to other bytes than a fresh one", b.name)
		}
		seen[firstBlockType(serial[i])]++
	}
	for typ, what := range []string{"stored", "fixed", "dynamic"} {
		if seen[typ] == 0 {
			t.Errorf("no stream opens with a %s block", what)
		}
	}
	par := make([][]byte, len(bodies))
	parallel.Each(len(bodies), 4, func(i int) {
		z := getDeflater()
		defer putDeflater(z)
		par[i] = deflate(z, nil, bodies[i].raw, bodies[i].breaks)
	})
	for i := range bodies {
		if !bytes.Equal(par[i], serial[i]) {
			t.Fatalf("%s: deflating in parallel gives other bytes than serially", bodies[i].name)
		}
	}
	for _, w := range workloadResults(t) {
		p1 := EncodeResultOptions(w.res, EncodeOptions{Version: FormatV2, Parallelism: 1})
		p4 := EncodeResultOptions(w.res, EncodeOptions{Version: FormatV2, Parallelism: 4})
		if !bytes.Equal(p1, p4) {
			t.Fatalf("%s %s: the v2 payload differs between parallelism 1 and 4", w.workload, w.name)
		}
	}
}

// fuzzDeflater is the state FuzzDeflate reuses across inputs, as the free
// list does across columns.
var fuzzDeflater = new(deflater)

// FuzzDeflate: arbitrary bytes with arbitrary breaks (little-endian uint16
// offsets, sorted; some past the end) deflate to a stream inflate and
// compress/flate's reader both inflate back, and a reused state gives the
// bytes a fresh one does. Seeds are the edge bodies and the benchmark's
// bodies of up to 4 KB.
func FuzzDeflate(f *testing.F) {
	cuts := func(breaks []int) []byte {
		var c []byte
		for _, b := range breaks {
			c = binary.LittleEndian.AppendUint16(c, uint16(b))
		}
		return c
	}
	for _, e := range edgeBodies {
		if len(e.raw) <= 1<<16 {
			f.Add(e.raw, cuts(e.breaks))
		}
	}
	for _, b := range append(workloadBodies(f, "job"), workloadBodies(f, "star")...) {
		if len(b.raw) <= 4096 {
			f.Add(b.raw, cuts(b.breaks))
		}
	}
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, raw, c []byte) {
		var breaks []int
		for ; len(c) >= 2; c = c[2:] {
			breaks = append(breaks, int(binary.LittleEndian.Uint16(c))%(len(raw)+2))
		}
		slices.Sort(breaks)
		b := body{"fuzz", raw, breaks}
		comp := checkDeflate(t, fuzzDeflater, b)
		if fresh := deflate(new(deflater), nil, raw, breaks); !bytes.Equal(fresh, comp) {
			t.Fatal("a reused state deflates to other bytes than a fresh one")
		}
	})
}

// BenchmarkDeflate compresses every body the benchmark's payloads hand
// tryFlate (one op = all of a workload's), with compress/flate's level 9
// writer reset per body, as tryFlate did before, and with deflate, reusing
// one state as the free list does.
func BenchmarkDeflate(b *testing.B) {
	for _, workload := range []string{"job", "star"} {
		bodies := workloadBodies(b, workload)
		b.Run(workload+"/compress-flate", func(b *testing.B) {
			var buf bytes.Buffer
			w, err := flate.NewWriter(&buf, flate.BestCompression)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, body := range bodies {
					buf.Reset()
					w.Reset(&buf)
					if _, err := w.Write(body.raw); err != nil {
						b.Fatal(err)
					}
					if err := w.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(workload+"/deflate", func(b *testing.B) {
			z := new(deflater)
			var out []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, body := range bodies {
					out = deflate(z, out[:0], body.raw, body.breaks)
				}
			}
		})
	}
}

// v2PayloadBytesAtLevel9 is the total in-process v2 payload size of each
// workload's statements (workloadResults: 33 JOB, 3 star) as
// compress/flate's level 9 writer deflated them, before deflate replaced it.
var v2PayloadBytesAtLevel9 = map[string]int{"job": 263640, "star": 190917}

// TestV2PayloadBytesNeverGrow is the byte ratchet: the benchmark's
// workloads ship no more in-process v2 payload bytes than they did with
// compress/flate's level 9 (v2PayloadBytesAtLevel9), so a tuning of the
// compressor that ships more bytes fails here.
func TestV2PayloadBytesNeverGrow(t *testing.T) {
	got := map[string]int{}
	statements := map[string]int{}
	for _, w := range workloadResults(t) {
		got[w.workload] += len(EncodeResultV2(w.res))
		statements[w.workload]++
	}
	if statements["job"] != 33 || statements["star"] != 3 {
		t.Fatalf("statements by workload: %v, want 33 JOB and 3 star", statements)
	}
	for workload, pinned := range v2PayloadBytesAtLevel9 {
		if got[workload] > pinned {
			t.Errorf("%s: the v2 payloads total %d bytes, more than the %d they were", workload, got[workload], pinned)
		}
		t.Logf("%s: %d bytes, %d at level 9", workload, got[workload], pinned)
	}
}

// TestDeflatersSurviveCollection: the compression states a column encode
// used are still there for the next encode after two garbage collections (a
// sync.Pool would have freed them), so that encode allocates less than one
// state does for its column.
func TestDeflatersSurviveCollection(t *testing.T) {
	rows := make([]types.Row, 4096)
	for i := range rows {
		rows[i] = types.Row{types.NewFloat(float64(i%1000) / 8)}
	}
	r := oneSet("seq", []string{"v"}, rows)
	blk, br := plainColV2(r.Sets[0], 0, len(rows))
	state := allocatedBy(func() { deflate(new(deflater), nil, blk[1:], br.at[:br.n]) })
	if desc := firstColDesc(t, EncodeResultV2(r)); desc&colFlateBit == 0 {
		t.Fatal("the column does not deflate")
	}
	// Every state on the list serves this column once, so each has grown to it.
	for range cap(deflaters) {
		EncodeResultV2(r)
	}
	runtime.GC()
	runtime.GC()
	if got := allocatedBy(func() { EncodeResultV2(r) }); got >= state {
		t.Errorf("encoding after two collections allocated %d bytes, a state is %d", got, state)
	}
}
