package wire

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
)

// inflate decodes a whole deflate stream (RFC 1951) held in memory. The v2
// decoder has every compressed column block in its payload already, so this
// needs none of a streaming reader's machinery (a byte-at-a-time source, a
// 32 KB window the output is copied out of): the bits come from a 64-bit
// buffer refilled eight bytes at a time from the slice, a back-reference
// copies from the output itself, and each Huffman symbol is one lookup in a
// two-level table whose entry already holds the literal, the length or
// distance base with its extra-bit count, or end-of-block.
//
// It accepts exactly the streams compress/flate's reader accepts and returns
// the same bytes (TestInflateMatchesFlate, FuzzInflate): the final block ends
// the stream and whatever follows it is ignored; a stream is truncated when
// a bit it needs lies past the end; Huffman codes must be complete, except
// that a code of one symbol of length one is allowed and an unused code may
// be empty; a distance must not reach before the start of the output.
// Besides, no output byte is written past limit: a stream that would inflate
// to more is rejected as soon as the write that would cross it is decoded.
//
// The output is appended to dst[:0], so a caller decoding several streams in
// turn can hand the previous result back as dst and reuse its storage.
func inflate(dst, in []byte, limit int) ([]byte, error) {
	var (
		lit  [litTableSize]uint32
		dist [distTableSize]uint32
		lens [maxLitSyms + maxDistSyms]uint8
	)
	out := dst[:0]
	if c := min(4*len(in)+64, limit); cap(out) < c {
		out = make([]byte, 0, c)
	}
	var (
		b   uint64 // unread bits, the next one lowest
		nb  uint   // how many of b's bits are unread stream bits
		pos int    // next byte of in to load into b
		ok  bool
	)
	for final := false; !final; {
		if b, nb, pos, ok = fill(in, b, nb, pos); !ok {
			return nil, errTruncated
		}
		final = b&1 != 0
		typ := b >> 1 & 3
		b >>= 3
		nb -= 3
		var lt, dt []uint32
		switch typ {
		case 0: // stored: byte-aligned LEN, NLEN, then LEN raw bytes
			b >>= nb & 7
			nb -= nb & 7
			p := pos - int(nb>>3)
			if p > len(in)-4 {
				return nil, errTruncated
			}
			n := int(binary.LittleEndian.Uint16(in[p:]))
			if uint16(n) != ^binary.LittleEndian.Uint16(in[p+2:]) {
				return nil, errCorrupt
			}
			p += 4
			if n > len(in)-p {
				return nil, errTruncated
			}
			if n > limit-len(out) {
				return nil, errRatio
			}
			if cap(out)-len(out) < n {
				out = grow(out, n, limit)
			}
			out = append(out, in[p:p+n]...)
			b, nb, pos = 0, 0, p+n
			continue
		case 1:
			lt, dt = fixedLit[:], fixedDist[:]
		case 2:
			if b, nb, pos, ok = fill(in, b, nb, pos); !ok {
				return nil, errTruncated
			}
			nlit := int(b&31) + 257
			ndist := int(b>>5&31) + 1
			nclen := int(b>>10&15) + 4
			b >>= 14
			nb -= 14
			if nlit > maxLitSyms || ndist > maxDistSyms {
				return nil, errCorrupt
			}
			var clens [numClenSyms]uint8
			for _, sym := range clenOrder[:nclen] {
				if nb < 3 {
					if b, nb, pos, ok = fill(in, b, nb, pos); !ok {
						return nil, errTruncated
					}
				}
				clens[sym] = uint8(b & 7)
				b >>= 3
				nb -= 3
			}
			var ct [1 << clenRootBits]uint32
			if !buildHuffman(ct[:], clens[:], clenSyms[:], clenRootBits) {
				return nil, errCorrupt
			}
			for i, n := 0, nlit+ndist; i < n; {
				if nb < 2*clenRootBits {
					if b, nb, pos, ok = fill(in, b, nb, pos); !ok {
						return nil, errTruncated
					}
				}
				e := ct[b&(1<<clenRootBits-1)]
				b >>= e & 15
				nb -= uint(e & 15)
				if e&hKind != hLit {
					return nil, errCorrupt
				}
				sym := uint8(e >> 16)
				if sym < 16 {
					lens[i] = sym
					i++
					continue
				}
				var rep int
				var v uint8
				switch sym {
				case 16:
					if i == 0 {
						return nil, errCorrupt
					}
					rep, v = 3+int(b&3), lens[i-1]
					b >>= 2
					nb -= 2
				case 17:
					rep = 3 + int(b&7)
					b >>= 3
					nb -= 3
				default: // 18
					rep = 11 + int(b&127)
					b >>= 7
					nb -= 7
				}
				if rep > n-i {
					return nil, errCorrupt
				}
				for end := i + rep; i < end; i++ {
					lens[i] = v
				}
			}
			if !buildHuffman(lit[:], lens[:nlit], litSyms[:], litRootBits) ||
				!buildHuffman(dist[:], lens[nlit:nlit+ndist], distSyms[:], distRootBits) {
				return nil, errCorrupt
			}
			lt, dt = lit[:], dist[:]
		default:
			return nil, errCorrupt
		}

		// One symbol per refill: a literal/length code with its extra bits
		// and a distance code with its extra bits take at most 15+5+15+13 =
		// 48 bits, and a refill leaves at least 56.
		for {
			if pos+8 <= len(in) { // fill's fast path, written out: fill does not inline
				b |= binary.LittleEndian.Uint64(in[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else if b, nb, pos, ok = fill(in, b, nb, pos); !ok {
				return nil, errTruncated
			}
			e := lt[b&(1<<litRootBits-1)]
			if e&hKind == hLink {
				e = lt[e>>16+uint32(b>>litRootBits)&(1<<(e>>4&15)-1)]
			}
			b >>= e & 15
			nb -= uint(e & 15)
			if kind := e & hKind; kind == hLit {
				if len(out) >= limit {
					return nil, errRatio
				}
				if len(out) == cap(out) {
					out = grow(out, 1, limit)
				}
				out = append(out, byte(e>>16))
				continue
			} else if kind == hEOB {
				break
			} else if kind != hBase {
				return nil, errCorrupt
			}
			x := e >> 4 & 15
			length := int(e>>16) + int(b&(1<<x-1))
			b >>= x
			nb -= uint(x)

			e = dt[b&(1<<distRootBits-1)]
			if e&hKind == hLink {
				e = dt[e>>16+uint32(b>>distRootBits)&(1<<(e>>4&15)-1)]
			}
			b >>= e & 15
			nb -= uint(e & 15)
			if e&hKind != hBase {
				return nil, errCorrupt
			}
			x = e >> 4 & 15
			d := int(e>>16) + int(b&(1<<x-1))
			b >>= x
			nb -= uint(x)
			if d > len(out) {
				return nil, errCorrupt
			}
			if length > limit-len(out) {
				return nil, errRatio
			}
			if cap(out)-len(out) < length {
				out = grow(out, length, limit)
			}
			o := len(out)
			out = out[:o+length]
			if d >= length {
				copy(out[o:], out[o-d:o-d+length])
				continue
			}
			// An overlapping copy repeats the last d bytes: copy them, then
			// the doubled run, until the length is covered.
			for src := o - d; o < len(out); {
				o += copy(out[o:], out[src:o])
			}
		}
	}
	if 8*pos-int(nb) > 8*len(in) {
		return nil, errTruncated
	}
	return out, nil
}

// grow makes room for n more bytes in out, at least doubling its capacity
// but never past limit, which len(out)+n does not exceed.
func grow(out []byte, n, limit int) []byte {
	return slices.Grow(out, min(max(n, cap(out)), limit-len(out)))
}

var (
	errCorrupt   = errors.New("wire: corrupt compressed column")
	errTruncated = errors.New("wire: corrupt compressed column: truncated deflate stream")
	errRatio     = errors.New("wire: compressed column inflates past the deflate ratio bound")
)

// fill tops the bit buffer up to at least 56 unread bits. Past the end of in
// it pads with zero bytes, and it fails once a bit already taken from the
// buffer was padding: the stream needed bytes it does not have.
func fill(in []byte, b uint64, nb uint, pos int) (uint64, uint, int, bool) {
	if pos+8 <= len(in) {
		return b | binary.LittleEndian.Uint64(in[pos:])<<nb, nb | 56, pos + int(63-nb)>>3, true
	}
	return fillTail(in, b, nb, pos)
}

func fillTail(in []byte, b uint64, nb uint, pos int) (uint64, uint, int, bool) {
	if 8*pos-int(nb) > 8*len(in) {
		return b, nb, pos, false
	}
	for ; nb < 56; nb += 8 {
		if pos < len(in) {
			b |= uint64(in[pos]) << nb
		}
		pos++
	}
	return b, nb, pos, true
}

// A Huffman table entry packs, from the low bits up: the code length in bits
// (4 bits), the extra-bit count of a length or distance base or the index
// width of a subtable (4 bits), the entry kind (3 bits), and from bit 16 the
// value — a literal byte, a base, a code-length symbol or a subtable offset.
// A zero entry is a bit pattern no code has.
const (
	hLit  = 1 << 8 // a literal byte, or a code-length symbol
	hBase = 2 << 8 // a match length or distance base with its extra bits
	hEOB  = 3 << 8 // end of block
	hLink = 4 << 8 // the code continues in a subtable
	hKind = 7 << 8
)

const (
	maxLitSyms   = 286 // literal/length symbols a dynamic block may code
	maxDistSyms  = 30  // distance symbols a dynamic block may code
	numClenSyms  = 19
	litRootBits  = 9
	distRootBits = 6
	clenRootBits = 7 // code-length codes are at most 7 bits: no subtables
	// The largest two-level tables any code lengths build at these root
	// widths: zlib's ENOUGH_LENS and ENOUGH_DISTS, which its enough program
	// computes for 286 and 30 symbols, 15-bit codes and roots of 9 and 6
	// bits, subtables sized as buildHuffman sizes them.
	litTableSize  = 852
	distTableSize = 592
)

// clenOrder is the order a dynamic block header lists code-length code
// lengths in (RFC 1951 §3.2.7).
var clenOrder = [numClenSyms]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// The entry of every symbol, less its code length. The fixed code has
// literal/length symbols 286 and 287 and distance symbols 30 and 31, which
// no stream may use: their entries are invalid.
var (
	litSyms  [288]uint32
	distSyms [32]uint32
	clenSyms [numClenSyms]uint32

	fixedLit  [1 << litRootBits]uint32
	fixedDist [1 << distRootBits]uint32
)

func init() {
	for s := range 256 {
		litSyms[s] = hLit | uint32(s)<<16
	}
	litSyms[256] = hEOB
	base, extra := uint32(3), uint32(0)
	for s := 257; s < 285; s++ {
		litSyms[s] = hBase | extra<<4 | base<<16
		base += 1 << extra
		if s >= 264 && (s-264)%4 == 0 {
			extra++
		}
	}
	litSyms[285] = hBase | 258<<16
	base = 1
	for s := range maxDistSyms {
		extra = 0
		if s >= 4 {
			extra = uint32(s/2 - 1)
		}
		distSyms[s] = hBase | extra<<4 | base<<16
		base += 1 << extra
	}
	for s := range numClenSyms {
		clenSyms[s] = hLit | uint32(s)<<16
	}

	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	buildHuffman(fixedLit[:], lens[:], litSyms[:], litRootBits)
	for s := range 32 {
		lens[s] = 5
	}
	buildHuffman(fixedDist[:], lens[:32], distSyms[:], distRootBits)
}

// buildHuffman fills table with the canonical Huffman code of the given code
// lengths (0: symbol unused) and reports false when the code is
// over-subscribed or incomplete. As in compress/flate, a code of a single
// length-1 symbol is allowed (its other bit pattern stays invalid), and so is
// a code of no symbols (every lookup is invalid). The root table is indexed
// by the next root bits of the stream; a code longer than that continues in
// a subtable just wide enough for the codes sharing its root prefix, sized
// the way zlib's inflate_table sizes it.
func buildHuffman(table []uint32, lengths []uint8, syms []uint32, root uint) bool {
	var count [16]int
	maxLen := 0
	for _, l := range lengths {
		count[l]++
		maxLen = max(maxLen, int(l))
	}
	clear(table[:1<<root])
	if maxLen == 0 {
		return true
	}
	kraft := 0
	for l := 1; l <= maxLen; l++ {
		kraft = kraft<<1 + count[l]
	}
	if kraft != 1<<maxLen && !(kraft == 1 && maxLen == 1) {
		return false
	}

	// Symbols sorted by (length, symbol) take consecutive canonical codes.
	var start [16]int
	for l := 2; l <= maxLen; l++ {
		start[l] = start[l-1] + count[l-1]
	}
	var sorted [288]uint16
	for s, l := range lengths {
		if l != 0 {
			sorted[start[l]] = uint16(s)
			start[l]++
		}
	}
	left := count // codes of each length not placed yet
	next := 1 << root
	prefix := -1
	var sub, subBits int
	code := 0
	for i, l := 0, 1; i < len(lengths)-count[0]; i++ {
		for left[l] == 0 {
			l++
			code <<= 1
		}
		s := sorted[i]
		rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
		e := syms[s] | uint32(l)
		if l <= int(root) {
			for j := rev; j < 1<<root; j += 1 << l {
				table[j] = e
			}
		} else {
			if p := rev & (1<<root - 1); p != prefix {
				prefix = p
				subBits = l - int(root)
				avail := 1 << subBits
				for subBits+int(root) < maxLen {
					avail -= left[subBits+int(root)]
					if avail <= 0 {
						break
					}
					subBits++
					avail <<= 1
				}
				sub = next
				next += 1 << subBits
				if next > len(table) {
					return false // unreachable within the zlib bounds above
				}
				table[p] = hLink | uint32(subBits)<<4 | uint32(sub)<<16
			}
			for j := rev >> root; j < 1<<subBits; j += 1 << (l - int(root)) {
				table[sub+j] = e
			}
		}
		left[l]--
		code++
	}
	return true
}
