package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
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

var (
	workloadBlocksOnce sync.Once
	workloadBlocks     [][]byte
	workloadBlocksErr  error
)

// benchmarkBlocks returns every compressed column block of the payloads the
// benchmark's workloads ship: the 33 JOB statements at scale 0.5 as RESULTDB
// and the three star_transfer statements as RESULTDB PRESERVING.
func benchmarkBlocks(t testing.TB) [][]byte {
	workloadBlocksOnce.Do(func() {
		d := db.New()
		if workloadBlocksErr = job.Load(d, job.Config{Scale: 0.5, Seed: 42}); workloadBlocksErr != nil {
			return
		}
		for _, q := range job.Queries() {
			res, err := d.Exec("SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT"))
			if err != nil {
				workloadBlocksErr = err
				return
			}
			workloadBlocks = append(workloadBlocks, compressedBlocks(res)...)
		}
		d = db.New()
		cfg := star.DefaultConfig()
		if workloadBlocksErr = star.Load(d, cfg); workloadBlocksErr != nil {
			return
		}
		for _, s := range []float64{0.6, 0.8, 1.0} {
			res, err := d.Exec("SELECT RESULTDB PRESERVING" + strings.TrimPrefix(star.Query(cfg, s), "SELECT"))
			if err != nil {
				workloadBlocksErr = err
				return
			}
			workloadBlocks = append(workloadBlocks, compressedBlocks(res)...)
		}
	})
	if workloadBlocksErr != nil {
		t.Fatal(workloadBlocksErr)
	}
	return workloadBlocks
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
// benchmark's compressed blocks of up to 1 KB and level streams, so the
// fuzzer minimises short inputs; the limit is the decoder's, or less, and at
// most 1 MiB, so an execution stays short.
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
	f.Fuzz(func(t *testing.T, comp []byte, limit uint32) {
		checkInflate(t, "fuzz", comp, min(int(limit), 1032*len(comp)+64, 1<<20), nil)
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
