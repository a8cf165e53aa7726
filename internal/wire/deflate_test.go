package wire

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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
			blk, br := plainColV2(new(deflater), set, j, n)
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

// wordBytes returns n bytes of words drawn from a small vocabulary by a fixed
// pseudo-random sequence: text whose every position has matches of 3 bytes
// and longer, near and far.
func wordBytes(seed int64, n int) []byte {
	words := strings.Fields("sub database result join key title movie company info keyword cast name role kind 1999 2003 the of and")
	r := rand.New(rand.NewSource(seed))
	var b []byte
	for len(b) < n {
		b = append(append(b, words[r.Intn(len(words))]...), " ,;|"[r.Intn(4)])
	}
	return b[:n]
}

// edgeBodies are bodies at the compressor's edges: the shortest bodies
// tryFlate deflates, bodies on both sides of every step of tableBits (the
// hash tables' and the chain array's sizes), matches at both ends of the
// window and ending at the body's last byte. want names a token each must
// parse into: a match at distance d or of length l; "a match last" asks
// for a match that ends at the body's last byte, "no match from p" that
// every byte from p on is coded as a literal.
var edgeBodies = []struct {
	body
	want string
}{
	{body{"16 bytes", []byte("subdatabase, sub"), nil}, ""},
	{body{"17 bytes", []byte("sub-sub-sub-sub-s"), nil}, "distance 4"},
	{body{"18 bytes", []byte("0123456789-0123456"), nil}, "length 7"},
	{body{"19 bytes", []byte("ab\x00c ab\x00c ab\x00c ab\x00c"), []int{5, 10}}, ""},
	{body{"255 bytes", wordBytes(10, 255), nil}, ""},
	{body{"256 bytes", wordBytes(11, 256), []int{128}}, ""},
	{body{"257 bytes", wordBytes(12, 257), nil}, ""},
	{body{"32 767 bytes", wordBytes(13, 32767), nil}, ""},
	{body{"32 768 bytes", wordBytes(14, 32768), []int{16384}}, ""},
	{body{"32 769 bytes", wordBytes(15, 32769), nil}, ""},
	{body{"65 535 bytes", wordBytes(16, 65535), nil}, ""},
	{body{"65 536 bytes", wordBytes(17, 65536), []int{1000, 40000}}, ""},
	{body{"65 537 bytes", wordBytes(18, 65537), nil}, ""},
	{body{"64 KiB of one byte", bytes.Repeat([]byte{7}, 64<<10), nil}, "distance 1"},
	{body{"128 KiB random, stored", randomBytes(1, 128<<10), []int{1 << 16}}, ""},
	{body{"a stored run past 65 535 bytes, breaks around it", randomBytes(2, 70000), []int{65534, 65535, 65536}}, ""},
	{body{"a match at distance 32 768", slices.Concat(
		append([]byte{0xaa}, randomBytes(3, 299)...), make([]byte, 32768-300), []byte{0xaa}, randomBytes(3, 299)), nil}, "distance 32768"},
	{body{"a match 32 769 back, not taken", slices.Concat(
		append([]byte{0xbb}, randomBytes(7, 299)...), make([]byte, 32769-300), []byte{0xbb}, randomBytes(7, 299)), nil}, "no match from 32769"},
	{body{"a match of length 258", slices.Concat(randomBytes(4, 300), []byte("|"), randomBytes(4, 300)), []int{300}}, "length 258"},
	{body{"a match ending at the last byte", slices.Concat(randomBytes(6, 60), randomBytes(6, 50)), nil}, "a match last"},
	{body{"runs and breaks", slices.Concat(bytes.Repeat([]byte("ab"), 5000), randomBytes(5, 5000), bytes.Repeat([]byte("ab"), 5000)),
		[]int{0, 10000, 10000, 15000, 25000, 40000}}, ""},
}

// hasToken reports whether toks has the token want names.
func hasToken(toks []uint32, want string) bool {
	if want == "a match last" {
		return len(toks) > 0 && toks[len(toks)-1] >= matchFlag
	}
	var from int
	if _, err := fmt.Sscanf(want, "no match from %d", &from); err == nil {
		pos := 0
		for _, t := range toks {
			if t >= matchFlag && pos+tokenLen(t) > from {
				return false
			}
			pos += tokenLen(t)
		}
		return true
	}
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

// deflateBodies returns every body the benchmark's payloads hand tryFlate
// (workloadBodies), then the edge bodies.
func deflateBodies(t testing.TB) []body {
	bodies := append(workloadBodies(t, "job"), workloadBodies(t, "star")...)
	if len(bodies) < 100 {
		t.Fatalf("only %d bodies in the benchmark's payloads", len(bodies))
	}
	for _, e := range edgeBodies {
		bodies = append(bodies, e.body)
	}
	return bodies
}

// TestDeflateRoundTrips: every body the benchmark's payloads hand tryFlate,
// and bodies at the compressor's edges, deflate to a stream that inflate and
// compress/flate's reader both inflate back to the body, from the tokens and
// segments the reference parse gives. The same bodies deflate to the same
// bytes with a fresh state, with one state reused serially, and with the
// shared states from goroutines at once, as a parallel column encode takes
// them.
func TestDeflateRoundTrips(t *testing.T) {
	for _, e := range edgeBodies {
		z := new(deflater)
		checkDeflate(t, z, e.body)
		if e.want != "" && !hasToken(z.toks, e.want) {
			t.Errorf("%s: the parse has no token for %q", e.name, e.want)
		}
	}
	bodies := deflateBodies(t)
	serial := make([][]byte, len(bodies))
	reused := new(deflater)
	seen := map[int]int{}
	for i, b := range bodies {
		serial[i] = checkDeflate(t, reused, b)
		checkParse(t, reused, b)
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
	parallel.NewRun(4).Each(len(bodies), func(i int) {
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
		p1 := EncodeResultOptions(w.res, EncodeOptions{Version: FormatV2, Run: parallel.NewRun(1)})
		p4 := EncodeResultOptions(w.res, EncodeOptions{Version: FormatV2, Run: parallel.NewRun(4)})
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
// compress/flate's reader both inflate back, the parse gives the reference
// parse's tokens and segments, and a reused state gives the bytes a fresh
// one does. Seeds are the edge bodies and the benchmark's bodies of up to
// 4 KB.
func FuzzDeflate(f *testing.F) {
	cuts := func(breaks []int) []byte {
		var c []byte
		for _, b := range breaks {
			c = binary.LittleEndian.AppendUint16(c, uint16(b))
		}
		return c
	}
	for _, e := range edgeBodies {
		f.Add(e.raw, cuts(e.breaks))
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
		checkParse(t, fuzzDeflater, b)
		if fresh := deflate(new(deflater), nil, raw, breaks); !bytes.Equal(fresh, comp) {
			t.Fatal("a reused state deflates to other bytes than a fresh one")
		}
	})
}

// BenchmarkDeflate compresses every body the benchmark's payloads hand
// tryFlate (one op = all of a workload's), with compress/flate's level 9
// writer reset per body, as tryFlate did before, and with deflate, reusing
// one state as the free list does; job/16b-n.name deflates the largest body
// alone, JOB 16b's n.name (137 840 bytes), the column behind job_cold's
// tail. Throughput counts the bodies' bytes.
func BenchmarkDeflate(b *testing.B) {
	var largest body
	for _, workload := range []string{"job", "star"} {
		bodies := workloadBodies(b, workload)
		total := 0
		for _, body := range bodies {
			total += len(body.raw)
			if len(body.raw) > len(largest.raw) {
				largest = body
			}
		}
		b.Run(workload+"/compress-flate", func(b *testing.B) {
			var buf bytes.Buffer
			w, err := flate.NewWriter(&buf, flate.BestCompression)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(total))
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
			benchmarkDeflate(b, bodies)
		})
	}
	if largest.name != "job 16b n.name" {
		b.Fatalf("the largest body is %s (%d bytes), not JOB 16b's n.name", largest.name, len(largest.raw))
	}
	b.Run("job/16b-n.name", func(b *testing.B) {
		benchmarkDeflate(b, []body{largest})
	})
}

// benchmarkDeflate deflates bodies per op with one reused state.
func benchmarkDeflate(b *testing.B, bodies []body) {
	z := new(deflater)
	var out []byte
	total := 0
	for _, body := range bodies {
		total += len(body.raw)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			out = deflate(z, out[:0], body.raw, body.breaks)
		}
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
	blk, br := plainColV2(new(deflater), r.Sets[0], 0, len(rows))
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

var update = flag.Bool("update", false, "rewrite testdata/deflate_streams.golden from the current compressor")

// TestDeflateStreamsPinned pins the bytes: the SHA-256 and length of the
// stream deflate makes for every body the benchmark's payloads hand tryFlate
// and for every edge body, against testdata/deflate_streams.golden. A change
// to how the compressor works leaves every line as it is; a change to what
// it emits (its search depth, its block breaks) rewrites the file with
// -update and says which streams moved and why.
func TestDeflateStreamsPinned(t *testing.T) {
	var b strings.Builder
	for _, body := range deflateBodies(t) {
		comp := deflate(new(deflater), nil, body.raw, body.breaks)
		fmt.Fprintf(&b, "%x %6d %s\n", sha256.Sum256(comp), len(comp), body.name)
	}
	got := b.String()
	path := filepath.Join("testdata", "deflate_streams.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("streams drifted from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("streams drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// checkParse asserts that z, having deflated b, holds the reference parse's
// tokens (refParse) cut into its segments, each segment's histogram counting
// its tokens' symbols and one end-of-block, and a sentinel segment at the
// body's end.
func checkParse(t testing.TB, z *deflater, b body) {
	t.Helper()
	toks, segs := refParse(b.raw, b.breaks)
	if !slices.Equal(z.toks, toks) {
		t.Fatalf("%s: the parse gives %d tokens, the reference %d, differing at token %d", b.name, len(z.toks), len(toks), firstDiff(z.toks, toks))
	}
	if len(z.segs) != len(segs) {
		t.Fatalf("%s: %d segments, the reference %d", b.name, len(z.segs), len(segs))
	}
	var want histogram
	for i, s := range segs {
		if z.segs[i].tok != s.tok || z.segs[i].pos != s.pos {
			t.Fatalf("%s: segment %d starts at token %d, byte %d; the reference at token %d, byte %d", b.name, i, z.segs[i].tok, z.segs[i].pos, s.tok, s.pos)
		}
		if i+1 < len(segs) {
			refTally(&want, toks[s.tok:segs[i+1].tok], b.raw, s.pos)
			if z.segs[i].h != want {
				t.Fatalf("%s: segment %d's histogram differs from its tokens' symbols", b.name, i)
			}
		}
	}
}

// firstDiff is the first index where a and b differ, or the shorter length.
func firstDiff(a, b []uint32) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// refSegment is a segment of the reference parse: its first token and byte.
type refSegment struct{ tok, pos int }

// refParse is the parse as deflate first ran it, the reference for the
// tokens and segments of the parse it runs now: the same lazy LZ77 over the
// same hash chains, on tables sized to the body and indexed with bounds
// checks, followed by a second pass that cuts the literal runs at the
// breaks. It returns the tokens and the segments, a sentinel at len(src)
// last.
func refParse(src []byte, breaks []int) ([]uint32, []refSegment) {
	n := len(src)
	hb := tableBits(n, maxHashBits)
	head := make([]int32, 1<<hb)
	h3b := tableBits(n, hash3Bits)
	head3 := make([]int32, 1<<h3b)
	prev := make([]int32, min(1<<tableBits(n, 15), windowSize))
	mask := len(prev) - 1
	hs, h3s := 32-hb, 32-h3b
	var toks []uint32
	lit := func(k int) {
		if last := len(toks) - 1; last >= 0 && toks[last] < matchFlag {
			toks[last] += uint32(k)
		} else {
			toks = append(toks, uint32(k))
		}
	}
	pending := false
	pLen, pDist := 0, 0
	misses := 0
	i := 0
	for i < n {
		cLen, cDist := 0, 0
		if i+4 <= n {
			u := binary.LittleEndian.Uint32(src[i:])
			h := u * hashMul >> hs
			cand := int(head[h]) - 1
			if pLen < niceLen {
				cLen, cDist = refLongest(src, prev, i, cand, max(pLen, 3))
			}
			prev[i&mask] = head[h]
			head[h] = int32(i + 1)
			h3 := u << 8 * hashMul >> h3s
			if c := int(head3[h3]) - 1; cLen == 0 && pLen < 3 && c >= 0 && i-c <= near3 &&
				src[c] == src[i] && src[c+1] == src[i+1] && src[c+2] == src[i+2] {
				cLen, cDist = 3, i-c
			}
			head3[h3] = int32(i + 1)
		}
		if pending && pLen >= 3 && cLen <= pLen {
			toks = append(toks, matchFlag|uint32(pLen-3)<<15|uint32(pDist-1))
			end := i - 1 + pLen
			for j := i + 1; j < min(end, n-3); j++ {
				h := binary.LittleEndian.Uint32(src[j:]) * hashMul >> hs
				prev[j&mask] = head[h]
				head[h] = int32(j + 1)
			}
			i = end
			pending, pLen = false, 0
			misses = 0
			continue
		}
		if pending {
			lit(1)
		}
		pending, pLen, pDist = true, cLen, cDist
		i++
		if cLen >= 3 {
			misses = 0
			continue
		}
		if misses++; misses > skipAfter {
			step := min((misses-skipAfter)>>skipShift, n-i)
			lit(1 + step)
			i += step
			pending = false
		}
	}
	if pending {
		lit(1)
	}

	// Cut the runs at the breaks: a segment starts at the first token at or
	// after a break.
	segs := []refSegment{{}}
	pos, bi := 0, 0
	for k := 0; k < len(toks); k++ {
		for ; bi < len(breaks) && breaks[bi] <= pos; bi++ {
			if breaks[bi] > 0 && segs[len(segs)-1].tok < k {
				segs = append(segs, refSegment{tok: k, pos: pos})
			}
		}
		if bi == len(breaks) {
			break
		}
		t := toks[k]
		if cut := breaks[bi] - pos; t < matchFlag && cut < int(t) {
			toks[k] = uint32(cut)
			toks = slices.Insert(toks, k+1, t-uint32(cut))
		}
		pos += tokenLen(toks[k])
	}
	return toks, append(segs, refSegment{tok: len(toks), pos: n})
}

// refLongest is the reference parse's chain walk: longest with every index
// checked.
func refLongest(src []byte, prev []int32, i, cand, best int) (int, int) {
	maxLen := min(maxMatch, len(src)-i)
	if best >= maxLen {
		return 0, 0
	}
	chain := chainDepth
	if best >= goodLen {
		chain >>= 2
	}
	nice := min(niceLen, maxLen)
	lim := i - windowSize
	mask := len(prev) - 1
	bestLen, bestDist := 0, 0
	end := binary.LittleEndian.Uint32(src[i+best-3:])
	for ; cand >= 0 && cand >= lim && chain > 0; chain-- {
		if binary.LittleEndian.Uint32(src[cand+best-3:]) == end {
			l := 0
			for l < maxLen && src[cand+l] == src[i+l] {
				l++
			}
			if l > best {
				best, bestLen, bestDist = l, l, i-cand
				if l >= nice {
					break
				}
				end = binary.LittleEndian.Uint32(src[i+best-3:])
			}
		}
		cand = int(prev[cand&mask]) - 1
	}
	return bestLen, bestDist
}

// refTally fills h with the symbols of toks, which code src from pos, and
// one end-of-block, reading every literal byte again.
func refTally(h *histogram, toks []uint32, src []byte, pos int) {
	*h = histogram{}
	for _, t := range toks {
		if t < matchFlag {
			for _, b := range src[pos : pos+int(t)] {
				h.lit[b]++
			}
			pos += int(t)
			continue
		}
		pos += int(t>>15&0xff) + 3
		h.lit[257+int(lenSym[t>>15&0xff])]++
		h.dist[distSym(t&0x7fff)]++
	}
	h.lit[256]++
}
