package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"strings"
	"sync"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

// flateOracle inflates comp with compress/flate's reader, the decoder the
// wire format was specified against, reading at most limit+1 bytes: it
// reports the bytes and whether the stream is accepted with at most limit of
// them (past limit, the rest of the stream is not read).
func flateOracle(comp []byte, limit int) ([]byte, bool) {
	out, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(comp)), int64(limit)+1))
	return out, err == nil && len(out) <= limit
}

// checkInflate asserts that inflate accepts comp under limit exactly when
// compress/flate accepts it and inflates it to at most limit bytes, and that
// it then returns the same bytes. (A stream that inflates past limit may be
// refused for the limit or for a later fault: compress/flate streams out a
// stored block's bytes before it finds the block cut short, inflate checks
// the length first.) dst is handed in as the decoder hands in its previous
// column's body; the result is returned for the next call.
func checkInflate(t testing.TB, name string, comp []byte, limit int, dst []byte) ([]byte, error) {
	t.Helper()
	want, ok := flateOracle(comp, limit)
	got, err := inflate(dst, comp, limit)
	switch {
	case !ok && err == nil:
		t.Fatalf("%s: compress/flate refuses the %d-byte stream or inflates it past %d bytes, inflate returned %d bytes", name, len(comp), limit, len(got))
	case ok && err != nil:
		t.Fatalf("%s: compress/flate accepts the %d-byte stream, inflate refused it: %v", name, len(comp), err)
	case ok && !bytes.Equal(got, want):
		t.Fatalf("%s: inflate returned %d bytes that differ from compress/flate's %d", name, len(got), len(want))
	}
	if err != nil {
		return dst, err
	}
	return got, nil
}

// compressedBlocks returns the deflate stream of every compressed column
// block the v2 encoder ships for res.
func compressedBlocks(res *db.Result) [][]byte {
	var blocks [][]byte
	for _, set := range res.Sets {
		n := set.NumRows()
		if n == 0 {
			continue
		}
		for j := range set.Columns {
			blk := encodeColV2(set, j, n)
			if blk[0]&colFlateBit == 0 {
				continue
			}
			clen, k := binary.Uvarint(blk[1:])
			blocks = append(blocks, blk[1+k:1+k+int(clen)])
		}
	}
	return blocks
}

// workloadResult is one result the benchmark's workloads ship, by workload
// ("job" or "star") and statement.
type workloadResult struct {
	workload, name string
	res            *db.Result
}

var (
	workloadOnce sync.Once
	workloadRes  []workloadResult
	workloadErr  error
)

// workloadResults returns the results of the payloads the benchmark's
// workloads ship: the 33 JOB statements at scale 0.5 as RESULTDB and the
// three star_transfer statements as RESULTDB PRESERVING.
func workloadResults(t testing.TB) []workloadResult {
	workloadOnce.Do(func() {
		d := db.New()
		if workloadErr = job.Load(d, job.Config{Scale: 0.5, Seed: 42}); workloadErr != nil {
			return
		}
		for _, q := range job.Queries() {
			res, err := d.Exec("SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT"))
			if err != nil {
				workloadErr = err
				return
			}
			workloadRes = append(workloadRes, workloadResult{"job", q.Name, res})
		}
		d = db.New()
		cfg := star.DefaultConfig()
		if workloadErr = star.Load(d, cfg); workloadErr != nil {
			return
		}
		for _, s := range []float64{0.6, 0.8, 1.0} {
			res, err := d.Exec("SELECT RESULTDB PRESERVING" + strings.TrimPrefix(star.Query(cfg, s), "SELECT"))
			if err != nil {
				workloadErr = err
				return
			}
			workloadRes = append(workloadRes, workloadResult{"star", fmt.Sprintf("s=%g", s), res})
		}
	})
	if workloadErr != nil {
		t.Fatal(workloadErr)
	}
	return workloadRes
}

// benchmarkBlocks returns every compressed column block of the payloads the
// benchmark's workloads ship (workloadResults).
func benchmarkBlocks(t testing.TB) [][]byte {
	var blocks [][]byte
	for _, w := range workloadResults(t) {
		blocks = append(blocks, compressedBlocks(w.res)...)
	}
	return blocks
}

// levelStreams compresses raw with compress/flate at every level class:
// stored blocks (NoCompression), Huffman-only dynamic blocks, and the fixed
// and dynamic blocks of levels 1, 6 and 9. A flush in the middle adds an
// empty stored block inside the stream.
func levelStreams(t testing.TB, raw []byte) [][]byte {
	var streams [][]byte
	for _, level := range []int{flate.NoCompression, flate.HuffmanOnly, 1, 6, 9} {
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		half := len(raw) / 2
		if _, err := w.Write(raw[:half]); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(raw[half:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, buf.Bytes())
	}
	return streams
}

// firstBlockType is the type of a stream's first block: 0 stored, 1 fixed
// Huffman codes, 2 dynamic ones.
func firstBlockType(comp []byte) int { return int(comp[0] >> 1 & 3) }

// fixedWriter writes one final block of fixed Huffman codes (RFC 1951
// §3.2.6) token by token, so a test can place a match exactly.
type fixedWriter struct {
	out []byte
	acc uint64
	n   uint
}

func newFixedWriter() *fixedWriter {
	w := &fixedWriter{}
	w.bits(1|1<<1, 3) // BFINAL, BTYPE 01
	return w
}

func (w *fixedWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes a Huffman code, which goes into the stream most significant
// bit first.
func (w *fixedWriter) code(c, n uint) { w.bits(uint64(bits.Reverse16(uint16(c))>>(16-n)), n) }

func (w *fixedWriter) sym(s int) {
	switch {
	case s < 144:
		w.code(uint(0x30+s), 8)
	case s < 256:
		w.code(uint(0x190+s-144), 9)
	case s < 280:
		w.code(uint(s-256), 7)
	default:
		w.code(uint(0xc0+s-280), 8)
	}
}

func (w *fixedWriter) lit(b ...byte) {
	for _, c := range b {
		w.sym(int(c))
	}
}

var (
	lengthBase  = []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = []uint{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = []int{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
)

// lastAtMost is the index of the last of the ascending bases at most v.
func lastAtMost(bases []int, v int) int {
	i := len(bases) - 1
	for bases[i] > v {
		i--
	}
	return i
}

func (w *fixedWriter) match(length, dist int) {
	i := lastAtMost(lengthBase, length)
	w.sym(257 + i)
	w.bits(uint64(length-lengthBase[i]), lengthExtra[i])
	j := lastAtMost(distBase, dist)
	w.code(uint(j), 5)
	w.bits(uint64(dist-distBase[j]), uint(max(j/2-1, 0)))
}

// finish writes end-of-block and returns the stream.
func (w *fixedWriter) finish() []byte {
	w.sym(256)
	w.bits(0, 7)
	return w.out
}

// matchStreams returns a stream for every distance 1 to 9 and each of the
// lengths 3, 8, 9, 16 and 258: a run of d+2 literals, a match repeating its
// last d bytes, end of block, and 16 bytes past the final block, so the
// match is still in the bulk phase, which refills only while 8 input bytes
// are unread and holds up to 8 more in its bit buffer.
func matchStreams() [][]byte {
	var streams [][]byte
	for d := 1; d <= 9; d++ {
		for _, length := range []int{3, 8, 9, 16, 258} {
			w := newFixedWriter()
			for i := range d + 2 {
				w.lit(byte('a' + (i*7+d+length)%26))
			}
			w.match(length, d)
			streams = append(streams, append(w.finish(), "16 bytes ignored"...))
		}
	}
	return streams
}

// garbageDst is an empty buffer of capacity c whose storage holds bytes no
// stream of the tests writes there, so a scratch byte returned as output
// shows.
func garbageDst(c int) []byte { return bytes.Repeat([]byte{0xa5}, c)[:0] }

// TestInflateMatchesFlate: on every compressed block the benchmark's
// payloads carry, on compress/flate's streams of every level class, on
// truncations of those streams, and with the limit at a stream's output
// length and one byte under it, inflate accepts exactly what compress/flate
// accepts and returns the same bytes.
func TestInflateMatchesFlate(t *testing.T) {
	blocks := benchmarkBlocks(t)
	if len(blocks) < 70 {
		t.Fatalf("only %d compressed blocks in the benchmark's payloads", len(blocks))
	}
	var scratch []byte
	seen := map[int]int{}
	check := func(name string, comp []byte) {
		want, ok := flateOracle(comp, 1032*len(comp)+64)
		if !ok {
			t.Fatalf("%s: compress/flate refuses a stream it wrote", name)
		}
		seen[firstBlockType(comp)]++
		scratch, _ = checkInflate(t, name, comp, 1032*len(comp)+64, scratch)
		scratch, _ = checkInflate(t, name+" at its length", comp, len(want), scratch)
		if len(want) > 0 {
			// A valid stream one byte over the limit is refused for the limit.
			var err error
			if scratch, err = checkInflate(t, name+" one byte over", comp, len(want)-1, scratch); !errors.Is(err, errRatio) {
				t.Fatalf("%s one byte over: want the ratio error, got %v", name, err)
			}
		}
	}
	// Every truncation of a stream of up to 1 KB (4 KB for the level
	// streams); of a longer one, 64 cuts spread over it and every cut in its
	// last 64 bytes, where the final blocks end.
	step := func(comp []byte) int { return len(comp) / 64 }
	var raws [][]byte
	for _, comp := range blocks {
		check("payload block", comp)
		raw, _ := flateOracle(comp, 1032*len(comp)+64)
		raws = append(raws, raw)
		for k := 0; k < len(comp); k++ {
			if len(comp) > 1024 && k%step(comp) != 0 && k < len(comp)-64 {
				continue
			}
			scratch, _ = checkInflate(t, "truncated payload block", comp[:k], 1032*len(comp)+64, scratch)
		}
	}
	// The level streams of a small and a medium column body, and of the
	// largest, which no stored block can hold whole.
	largest := raws[0]
	for _, raw := range raws {
		if len(raw) > len(largest) {
			largest = raw
		}
	}
	for _, raw := range [][]byte{raws[0][:min(len(raws[0]), 200)], raws[len(raws)/2], largest} {
		for _, comp := range levelStreams(t, raw) {
			check("level stream", comp)
			for k := 0; k < len(comp); k++ {
				if len(comp) > 4096 && k%step(comp) != 0 && k < len(comp)-64 {
					continue
				}
				scratch, _ = checkInflate(t, "truncated level stream", comp[:k], 1032*len(comp)+64, scratch)
			}
		}
	}
	// The bulk phase's edges: decoded into a buffer whose capacity ends
	// anywhere from 274 bytes before the output's end to as far past it,
	// or under a limit that does, inflate leaves the bulk phase in front
	// of and inside every match of the fixed-code streams, and at every
	// point of a level stream's tail. A buffer with more room than the
	// limit gives back the output and not a byte of scratch.
	for _, comp := range append(matchStreams(), levelStreams(t, largest)[4]) {
		check("fixed-code match", comp)
		want, _ := flateOracle(comp, 1032*len(comp)+64)
		for c := max(len(want)-bulkSlack-8, 0); c <= len(want)+bulkSlack+8; c++ {
			checkInflate(t, "capacity near the output's end", comp, 1032*len(comp)+64, garbageDst(c))
		}
		for limit := max(len(want)-bulkSlack-8, 0); limit <= len(want)+bulkSlack+8; limit++ {
			checkInflate(t, "limit near the output's end", comp, limit, garbageDst(limit+bulkSlack+64))
		}
		if got, err := inflate(garbageDst(2*len(want)+bulkSlack), comp, len(want)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("capacity past the limit: %d bytes, %v; want the stream's %d", len(got), err, len(want))
		}
	}
	// A distance back to the first byte, and one a byte before it, with
	// room for the bulk phase.
	for _, d := range []int{16, 17} {
		w := newFixedWriter()
		w.lit([]byte("subdatabase, sub")...)
		w.match(3, d)
		w.lit([]byte("database, subdatabase")...)
		checkInflate(t, fmt.Sprintf("distance %d after 16 bytes", d), w.finish(), 1<<16, garbageDst(4096))
	}
	for typ, what := range []string{"stored", "fixed", "dynamic"} {
		if seen[typ] == 0 {
			t.Errorf("no %s block opened any stream of the corpus", what)
		}
	}
}

// TestInflateHandBuiltStreams: hand-built edge cases, malformed ones among
// them, are accepted or refused as compress/flate accepts or refuses them.
func TestInflateHandBuiltStreams(t *testing.T) {
	for _, tc := range []struct {
		name string
		comp []byte
	}{
		{"empty", nil},
		{"reserved block type", []byte{0x07}},
		{"stored, NLEN not LEN's complement", []byte{0x01, 0x01, 0x00, 0xff, 0xff, 'a'}},
		{"stored, cut short", []byte{0x01, 0x03, 0x00, 0xfc, 0xff, 'a'}},
		{"stored, empty and final", []byte{0x01, 0x00, 0x00, 0xff, 0xff}},
		{"stored, then trailing bytes", []byte{0x01, 0x01, 0x00, 0xfe, 0xff, 'a', 0xde, 0xad}},
		{"fixed, empty", []byte{0x03, 0x00}},
		{"fixed, distance before the output", []byte{0x03, 0x02, 0x00}},
		{"fixed, literal symbol 286", []byte{0x1b, 0x03}},
		{"dynamic, all zero header", []byte{0x05, 0x00, 0x00, 0x00}},
		{"dynamic, too many literal codes", []byte{0xfd, 0xff, 0xff, 0xff}},
		{"no final block", []byte{0x02, 0x00}},
	} {
		checkInflate(t, tc.name, tc.comp, 1032*len(tc.comp)+64, nil)
	}
}

// FuzzInflate: on arbitrary bytes and limits, inflate accepts exactly what
// compress/flate accepts within the limit, with the same bytes. Seeds are the
// benchmark's compressed blocks of up to 1 KB, level streams and the
// fixed-code match streams, so the fuzzer minimises short inputs; the limit
// is the decoder's, or less, and at most 1 MiB, so an execution stays short.
// Each input decodes into a fresh buffer and into a garbage-filled one with
// capacity past the limit (for limits up to 64 KiB), as a reused one can be.
func FuzzInflate(f *testing.F) {
	seed := func(comp []byte) {
		f.Add(comp, uint32(1032*len(comp)+64))
		if raw, ok := flateOracle(comp, 1032*len(comp)+64); ok && len(raw) > 0 {
			f.Add(comp, uint32(len(raw)-1))
		}
	}
	for _, comp := range benchmarkBlocks(f) {
		if len(comp) <= 1024 {
			seed(comp)
		}
	}
	for _, comp := range levelStreams(f, bytes.Repeat([]byte("subdatabase, "), 40)) {
		seed(comp)
	}
	for _, comp := range matchStreams() {
		seed(comp)
	}
	f.Fuzz(func(t *testing.T, comp []byte, limit uint32) {
		n := min(int(limit), 1032*len(comp)+64, 1<<20)
		checkInflate(t, "fuzz", comp, n, nil)
		checkInflate(t, "fuzz, a reused buffer", comp, n, garbageDst(min(n, 1<<16)+bulkSlack))
	})
}

// BenchmarkInflate inflates every compressed block of the benchmark's
// payloads (one op = all of them) with compress/flate's reader, as the
// decoder did before, and with inflate, reusing one buffer as the decoder
// does.
func BenchmarkInflate(b *testing.B) {
	blocks := benchmarkBlocks(b)
	b.Run("compress-flate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, comp := range blocks {
				if _, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp))); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("inflate", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			for _, comp := range blocks {
				var err error
				if buf, err = inflate(buf, comp, 1032*len(comp)+64); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
