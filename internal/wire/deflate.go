package wire

import (
	"encoding/binary"
	"math/bits"
	"runtime"
	"slices"
)

// deflate appends to dst a deflate stream (RFC 1951) of src, which it holds
// whole, as a column block's body is. The encoder has the body in memory
// already, so this needs none of a streaming compressor's machinery (a
// sliding window the input is copied into, a hash table sized for any
// stream and cleared per stream): it parses the whole body into tokens,
// then codes them in blocks.
//
// The parse is LZ77 over hash chains. A 4-byte hash heads the chains, and
// its table is sized to the body; positions chain through a window-sized
// array, so a small body clears a small table. At each position the chain
// is searched chainDepth candidates deep for the longest match (niceLen
// ends the search early), and a 3-byte match is taken from a second table
// of the last position of each 3-byte hash when it lies within near3 bytes,
// where it codes shorter than its literals. The parse is lazy: a match is
// emitted only when the next position has no longer one. After skipAfter
// positions in a row without a match, the search steps over positions,
// one more every 1<<skipShift misses, emitting them as literals: a long
// literal run, such as a random byte plane of floats, costs little more
// than its Huffman coding.
//
// breaks are offsets into src, ascending, where the body's streams meet
// (the null bitmap and the payload; text lengths and text bytes; the
// eight byte planes of a float block). A block may end only at the first
// token at or after a break, and does when coding the two sides apart
// saves more than breakBits: each stream gets Huffman codes fit to its own
// statistics. Each block is the cheapest of a stored, a fixed-code and a
// dynamic-code block, counted exactly in bits.
//
// The output is a pure function of src and breaks. z carries only reused
// storage; a zero deflater is ready to use.
func deflate(z *deflater, dst, src []byte, breaks []int) []byte {
	z.parse(src)
	z.split(breaks, len(src))
	z.w = bitWriter{out: dst}
	z.code(src)
	return z.w.flush()
}

// The search's constants, measured on the bodies the benchmark's workloads
// ship (EXPERIMENTS "Deflate in one pass on the server"). At depth 16 the
// JOB 0.5 and star_transfer payloads ship 1.1 % and 0.5 % fewer bytes than
// compress/flate's level 9 did; depth 8 keeps half of that margin, and
// deeper chains buy a few bytes in a thousand for more time.
const (
	chainDepth = 16   // chain candidates searched at a position
	goodLen    = 8    // a pending match this long quarters the next search
	niceLen    = 258  // a match this long ends a search, and is taken without one
	near3      = 4096 // the farthest a 3-byte match may reach back
	skipAfter  = 64   // misses before the search steps over positions
	skipShift  = 5    // one more position stepped over every 32 misses
)

const (
	windowSize   = 1 << 15
	maxHashBits  = 16
	hash3Bits    = 12
	maxStoredLen = 65535
)

// A token is a run of literal bytes (below matchFlag: the run's length; the
// bytes are the body's, from where the run starts) or a match: matchFlag,
// the length less 3 from bit 15 and the distance less 1 in the low 15 bits.
// Runs keep the token list short where the body does not compress, such as
// a random byte plane.
const matchFlag = 1 << 31

// deflater is the storage a compression reuses: hash tables, the chain
// array, the token list and the per-block scratch.
type deflater struct {
	head  []int32 // last position+1 of each 4-byte hash, 0 for none
	head3 []int32 // last position+1 of each 3-byte hash
	prev  []int32 // position+1 of the previous position of a chain, by position mod the window
	toks  []uint32
	segs  []segment // the blocks' candidates: runs of tokens between breaks
	out   []byte    // the stream, for tryFlate to copy from
	w     bitWriter

	// The block being planned and its candidate extension.
	cur, next, both histogram
	// Huffman scratch.
	litLens   [maxLitSyms]uint8
	distLens  [maxDistSyms]uint8
	litCodes  [maxLitSyms]uint16
	distCodes [maxDistSyms]uint16
	rle       []uint16 // code-length symbols, extra bits above bit 5
	sorted    [maxLitSyms]uint64
	weights   [maxLitSyms]uint32
}

// segment is a run of tokens, toks[tok:] up to the next segment's, coding
// src[pos:] up to the next segment's pos.
type segment struct{ tok, pos int }

// histogram counts a run of tokens' literal/length and distance symbols.
type histogram struct {
	lit  [maxLitSyms]uint32
	dist [maxDistSyms]uint32
}

func (h *histogram) add(o *histogram) {
	for i := range h.lit {
		h.lit[i] += o.lit[i]
	}
	for i := range h.dist {
		h.dist[i] += o.dist[i]
	}
}

// deflaters is a free list of compression states shared by columns and
// goroutines. A state holds storage sized to the largest body it
// compressed, so the list keeps them across garbage collections (a
// sync.Pool frees what two of them find idle) but never more than
// GOMAXPROCS of them, and none whose token list and output passed
// maxKeptBytes: those grow with a body, while its tables stop at 64 Ki
// entries.
var deflaters = make(chan *deflater, runtime.GOMAXPROCS(0))

const maxKeptBytes = 4 << 20

func getDeflater() *deflater {
	select {
	case z := <-deflaters:
		return z
	default:
		return new(deflater)
	}
}

func putDeflater(z *deflater) {
	if 4*cap(z.toks)+cap(z.out) > maxKeptBytes {
		return
	}
	select {
	case deflaters <- z:
	default:
	}
}

// tableBits is the log2 size of a table for n positions, within [8, hi].
func tableBits(n, hi int) int {
	return min(max(bits.Len(uint(n)), 8), hi)
}

// resize returns s with length n, reusing its storage when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// parse fills z.toks with the lazy LZ77 parse of src.
func (z *deflater) parse(src []byte) {
	n := len(src)
	hb := tableBits(n, maxHashBits)
	z.head = resize(z.head, 1<<hb)
	clear(z.head)
	h3b := tableBits(n, hash3Bits)
	z.head3 = resize(z.head3, 1<<h3b)
	clear(z.head3)
	z.prev = resize(z.prev, min(1<<tableBits(n, 15), windowSize))
	head, head3, prev := z.head, z.head3, z.prev
	mask := len(prev) - 1
	hs, h3s := 32-hb, 32-h3b
	toks := slices.Grow(z.toks[:0], n/8)
	// lit codes k more literal bytes: it lengthens the last token when that
	// is a run.
	lit := func(k int) {
		if last := len(toks) - 1; last >= 0 && toks[last] < matchFlag {
			toks[last] += uint32(k)
		} else {
			toks = append(toks, uint32(k))
		}
	}

	// pending: the byte at i-1 is not coded yet, and pLen/pDist is the
	// longest match found there (pLen < 3: none).
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
				cLen, cDist = z.longest(src, i, cand, max(pLen, 3))
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
			// The match at i-1 is at least as long as the one at i: take
			// it, and chain the positions it covers.
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
			// Step over positions: code the pending byte and the next
			// ones as literals without searching or chaining them.
			step := min((misses-skipAfter)>>skipShift, n-i)
			lit(1 + step)
			i += step
			pending = false
		}
	}
	if pending {
		lit(1)
	}
	z.toks = toks
}

// hashMul is the multiplier of the multiplicative hashes of 4 and 3 bytes.
const hashMul = 0x9E3779B1

// split fills z.segs with the runs of tokens between breaks: a run
// starts at the first token at or after a break, and a sentinel at n, the
// body's length, closes the last. A literal run that crosses a break is cut
// there, so a segment starts at its break unless a match spans it.
func (z *deflater) split(breaks []int, n int) {
	z.segs = append(z.segs[:0], segment{})
	pos, bi := 0, 0
	for k := 0; k < len(z.toks); k++ {
		for ; bi < len(breaks) && breaks[bi] <= pos; bi++ {
			if breaks[bi] > 0 && z.segs[len(z.segs)-1].tok < k {
				z.segs = append(z.segs, segment{tok: k, pos: pos})
			}
		}
		if bi == len(breaks) {
			break
		}
		t := z.toks[k]
		if cut := breaks[bi] - pos; t < matchFlag && cut < int(t) {
			z.toks[k] = uint32(cut)
			z.toks = slices.Insert(z.toks, k+1, t-uint32(cut))
		}
		pos += tokenLen(z.toks[k])
	}
	z.segs = append(z.segs, segment{tok: len(z.toks), pos: n})
}

// longest searches the chain from cand for a match at i longer than best,
// returning its length and distance (0, 0 when there is none).
func (z *deflater) longest(src []byte, i, cand, best int) (int, int) {
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
	mask := len(z.prev) - 1
	bestLen, bestDist := 0, 0
	// A candidate can beat best only if its 4 bytes ending at offset best
	// match: one compare rejects most of a chain.
	end := binary.LittleEndian.Uint32(src[i+best-3:])
	for ; cand >= 0 && cand >= lim && chain > 0; chain-- {
		if binary.LittleEndian.Uint32(src[cand+best-3:]) == end {
			if l := matchLen(src, cand, i, maxLen); l > best {
				best, bestLen, bestDist = l, l, i-cand
				if l >= nice {
					break
				}
				end = binary.LittleEndian.Uint32(src[i+best-3:])
			}
		}
		cand = int(z.prev[cand&mask]) - 1
	}
	return bestLen, bestDist
}

// matchLen is the length of the common prefix of src[a:] and src[b:], a <
// b, up to limit <= len(src)-b.
func matchLen(src []byte, a, b, limit int) int {
	l := 0
	for l+8 <= limit {
		if x := binary.LittleEndian.Uint64(src[a+l:]) ^ binary.LittleEndian.Uint64(src[b+l:]); x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
		l += 8
	}
	for l < limit && src[a+l] == src[b+l] {
		l++
	}
	return l
}

// tokenLen is the number of body bytes token t codes.
func tokenLen(t uint32) int {
	if t < matchFlag {
		return int(t)
	}
	return int(t>>15&0xff) + 3
}

// tally fills h with the symbols of toks, which code src from pos, and one
// end-of-block.
func tally(h *histogram, toks []uint32, src []byte, pos int) {
	clear(h.lit[:])
	clear(h.dist[:])
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

// breakBits is what a block break must save, in bits, to be taken. Every
// block costs its decoder a build of Huffman tables, ≈ 3 µs on the client,
// so a break that saves a few bytes makes the payload slower to decode.
// 128 bytes keeps the breaks between streams of different statistics that
// pay (star's byte planes, JOB's long text columns) and drops the rest.
const breakBits = 1024

// code writes z.toks as blocks: it walks the segments, extending the open
// block by the next one unless coding them apart saves more than breakBits,
// and writes the open block when it does not.
func (z *deflater) code(src []byte) {
	segs := z.segs
	last := len(segs) - 1
	start := 0 // the open block's first segment
	tally(&z.cur, z.toks[segs[0].tok:segs[1].tok], src, segs[0].pos)
	curHuff := z.huffmanCost(&z.cur)
	for s := 1; s < last; s++ {
		tally(&z.next, z.toks[segs[s].tok:segs[s+1].tok], src, segs[s].pos)
		z.both = z.cur
		z.both.add(&z.next)
		bothHuff := z.huffmanCost(&z.both)
		nextHuff := z.huffmanCost(&z.next)
		at := z.w.bits()
		apart := blockCost(curHuff, segs[s].pos-segs[start].pos, at)
		apart += blockCost(nextHuff, segs[s+1].pos-segs[s].pos, at+apart)
		if blockCost(bothHuff, segs[s+1].pos-segs[start].pos, at) <= apart+breakBits {
			z.cur, curHuff = z.both, bothHuff
			continue
		}
		z.writeBlock(src, segs[start], segs[s], &z.cur, curHuff, false)
		start = s
		z.cur, curHuff = z.next, nextHuff
	}
	z.writeBlock(src, segs[start], segs[last], &z.cur, curHuff, true)
}

// huffCost is a run of tokens' size in bits as a dynamic and as a fixed
// block, header included.
type huffCost struct{ dynamic, fixed int }

// blockCost is the cheapest size in bits of a block coding n bytes whose
// Huffman costs are c, starting at bit at of the stream.
func blockCost(c huffCost, n, at int) int {
	return min(c.dynamic, c.fixed, storedCost(n, at))
}

// storedCost is the size in bits of n bytes as stored blocks starting at bit
// at: a 3-bit header, padding to a byte and LEN/NLEN per 65 535 bytes.
func storedCost(n, at int) int {
	pieces := max((n+maxStoredLen-1)/maxStoredLen, 1)
	first := 3 + (8-(at+3)%8)%8 + 32
	return first + (pieces-1)*(8+32) + 8*n
}

// huffmanCost sizes h as a dynamic and as a fixed block.
func (z *deflater) huffmanCost(h *histogram) huffCost {
	extra := 0
	for s := 257; s < maxLitSyms; s++ {
		extra += int(h.lit[s]) * int(lenSymExtra[s-257])
	}
	for s, f := range h.dist {
		extra += int(f) * int(distSymExtra[s])
	}
	fixed := 3 + extra
	for s, f := range h.lit {
		fixed += int(f) * int(fixedLitLens[s])
	}
	for _, f := range h.dist {
		fixed += int(f) * 5
	}
	dyn := 3 + extra + z.dynamicHeader(h, nil)
	for s, f := range h.lit {
		dyn += int(f) * int(z.litLens[s])
	}
	for s, f := range h.dist {
		dyn += int(f) * int(z.distLens[s])
	}
	return huffCost{dynamic: dyn, fixed: fixed}
}

func fixedLitLen(s int) uint8 {
	switch {
	case s < 144:
		return 8
	case s < 256:
		return 9
	case s < 280:
		return 7
	}
	return 8
}

// dynamicHeader builds the dynamic codes of h into z.litLens and
// z.distLens and returns the size in bits of the block header that
// describes them (past the 3 block-type bits). With w non-nil, it writes
// the header.
func (z *deflater) dynamicHeader(h *histogram, w *bitWriter) int {
	huffLengths(z.litLens[:], h.lit[:], 15, &z.sorted, &z.weights)
	huffLengths(z.distLens[:], h.dist[:], 15, &z.sorted, &z.weights)
	nlit := maxLitSyms
	for nlit > 257 && z.litLens[nlit-1] == 0 {
		nlit--
	}
	ndist := maxDistSyms
	for ndist > 1 && z.distLens[ndist-1] == 0 {
		ndist--
	}
	// Run-length code the two length lists as one sequence.
	z.rle = z.rle[:0]
	var clenFreq [numClenSyms]uint32
	all := func(i int) uint8 {
		if i < nlit {
			return z.litLens[i]
		}
		return z.distLens[i-nlit]
	}
	emit := func(sym, extra int) {
		z.rle = append(z.rle, uint16(sym|extra<<5))
		clenFreq[sym]++
	}
	for i, total := 0, nlit+ndist; i < total; {
		v := all(i)
		run := 1
		for i+run < total && all(i+run) == v {
			run++
		}
		i += run
		if v == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else {
			emit(int(v), 0)
			run--
			for ; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(int(v), 0)
		}
	}
	var clens [numClenSyms]uint8
	huffLengths(clens[:], clenFreq[:], 7, &z.sorted, &z.weights)
	nclen := numClenSyms
	for nclen > 4 && clens[clenOrder[nclen-1]] == 0 {
		nclen--
	}
	size := 5 + 5 + 4 + 3*nclen
	for _, r := range z.rle {
		size += int(clens[r&31]) + int(clenExtra[r&31])
	}
	if w == nil {
		return size
	}
	w.write(uint64(nlit-257), 5)
	w.write(uint64(ndist-1), 5)
	w.write(uint64(nclen-4), 4)
	for _, s := range clenOrder[:nclen] {
		w.write(uint64(clens[s]), 3)
	}
	var codes [numClenSyms]uint16
	canonicalCodes(codes[:], clens[:])
	for _, r := range z.rle {
		s := r & 31
		w.write(uint64(codes[s]), uint(clens[s]))
		w.write(uint64(r>>5), uint(clenExtra[s]))
	}
	return size
}

var clenExtra = [numClenSyms]uint8{16: 2, 17: 3, 18: 7}

// writeBlock writes the tokens from segment a up to segment b as the
// cheapest kind of block.
func (z *deflater) writeBlock(src []byte, a, b segment, h *histogram, c huffCost, final bool) {
	w := &z.w
	fin := uint64(0)
	if final {
		fin = 1
	}
	stored := storedCost(b.pos-a.pos, w.bits())
	switch min(c.dynamic, c.fixed, stored) {
	case stored:
		raw := src[a.pos:b.pos]
		for {
			k := min(len(raw), maxStoredLen)
			f := uint64(0)
			if k == len(raw) {
				f = fin
			}
			w.write(f, 3)
			w.align()
			w.out = binary.LittleEndian.AppendUint16(w.out, uint16(k))
			w.out = binary.LittleEndian.AppendUint16(w.out, ^uint16(k))
			w.out = append(w.out, raw[:k]...)
			if raw = raw[k:]; len(raw) == 0 {
				return
			}
		}
	case c.fixed:
		w.write(fin|1<<1, 3)
		z.writeTokens(z.toks[a.tok:b.tok], src[a.pos:], &fixedLitCodes, &fixedLitLens, &fixedDistCodes, &fixedDistLens)
	default:
		w.write(fin|2<<1, 3)
		z.dynamicHeader(h, w)
		canonicalCodes(z.litCodes[:], z.litLens[:])
		canonicalCodes(z.distCodes[:], z.distLens[:])
		z.writeTokens(z.toks[a.tok:b.tok], src[a.pos:], &z.litCodes, &z.litLens, &z.distCodes, &z.distLens)
	}
}

// writeTokens codes toks, which code src from its start, and an
// end-of-block with the given codes.
func (z *deflater) writeTokens(toks []uint32, src []byte, lc *[maxLitSyms]uint16, ll *[maxLitSyms]uint8, dc *[maxDistSyms]uint16, dl *[maxDistSyms]uint8) {
	w := &z.w
	for _, t := range toks {
		if t < matchFlag {
			for _, b := range src[:t] {
				w.write(uint64(lc[b]), uint(ll[b]))
			}
			src = src[t:]
			continue
		}
		src = src[t>>15&0xff+3:]
		l := t >> 15 & 0xff
		lcode := lenSym[l]
		s := 257 + int(lcode)
		w.write(uint64(lc[s])|uint64(l-uint32(lenSymBase[lcode]))<<ll[s], uint(ll[s])+uint(lenSymExtra[lcode]))
		d := t & 0x7fff
		dcode := distSym(d)
		w.write(uint64(dc[dcode])|uint64(d-uint32(distSymBase[dcode]))<<dl[dcode], uint(dl[dcode])+uint(distSymExtra[dcode]))
	}
	w.write(uint64(lc[256]), uint(ll[256]))
}

// huffLengths sets lens to the code lengths, at most maxBits, of a Huffman
// code for freq: 0 for an unused symbol. A code gets at least two symbols
// (the lowest unused ones are added), so every decoder takes it as
// complete.
func huffLengths(lens []uint8, freq []uint32, maxBits int, sorted *[maxLitSyms]uint64, weights *[maxLitSyms]uint32) {
	clear(lens)
	syms := sorted[:0]
	for s, f := range freq {
		if f != 0 {
			syms = append(syms, uint64(f)<<16|uint64(s))
		}
	}
	for s := 0; len(syms) < 2; s++ {
		if freq[s] == 0 {
			syms = append(syms, uint64(s)) // weight 0 sorts first
		}
	}
	slices.Sort(syms)
	n := len(syms)
	w := weights[:n]
	for i, k := range syms {
		w[i] = uint32(k >> 16)
	}
	minRedundancy(w)
	// w[i] is now the length of the i-th least frequent symbol. Count the
	// codes of each length, folding any longer than maxBits into maxBits
	// and then moving codes down until the lengths fit (Kraft sum 1).
	var count [32]int
	for _, l := range w {
		count[min(l, 31)]++
	}
	for l := maxBits + 1; l < len(count); l++ {
		count[maxBits] += count[l]
		count[l] = 0
	}
	total := 0
	for l := 1; l <= maxBits; l++ {
		total += count[l] << (maxBits - l)
	}
	for ; total > 1<<maxBits; total-- {
		count[maxBits]--
		for l := maxBits - 1; l > 0; l-- {
			if count[l] > 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	// The least frequent symbols take the longest codes.
	i := 0
	for l := maxBits; l > 0; l-- {
		for k := 0; k < count[l]; k++ {
			lens[syms[i]&0xffff] = uint8(l)
			i++
		}
	}
}

// minRedundancy replaces the weights of a, ascending, with the code lengths
// of a minimum-redundancy code for them, computed in place (Moffat and
// Katajainen, "In-place calculation of minimum-redundancy codes", 1995).
// len(a) >= 2.
func minRedundancy(a []uint32) {
	n := len(a)
	// Build the tree: a[next] becomes the weight of internal node next, and
	// a consumed node's slot the index of its parent.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Internal node depths, from the root down.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// Leaf depths: at each depth, the nodes not used as internal ones are
	// leaves.
	avail, used, depth := 1, 0, uint32(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for avail > used {
			a[next] = depth
			next--
			avail--
		}
		avail, used, depth = 2*used, 0, depth+1
	}
}

// canonicalCodes sets codes to the canonical Huffman codes of lens (RFC 1951
// §3.2.2), bit-reversed for the LSB-first stream.
func canonicalCodes(codes []uint16, lens []uint8) {
	var count [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	var next [16]uint16
	code := uint16(0)
	for l := 1; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		if l != 0 {
			codes[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// bitWriter appends an LSB-first bit stream to out.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

// write appends the low nb bits of v, nb <= 32.
func (w *bitWriter) write(v uint64, nb uint) {
	w.acc |= v << w.n
	w.n += nb
	if w.n >= 32 {
		w.out = binary.LittleEndian.AppendUint32(w.out, uint32(w.acc))
		w.acc >>= 32
		w.n -= 32
	}
}

// bits is the stream's length in bits.
func (w *bitWriter) bits() int { return 8*len(w.out) + int(w.n) }

// align pads the stream with zero bits to a byte boundary and flushes it.
func (w *bitWriter) align() {
	w.n = (w.n + 7) &^ 7
	for ; w.n > 0; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// flush pads the stream to a byte and returns it.
func (w *bitWriter) flush() []byte {
	w.align()
	return w.out
}

// The length and distance symbol tables (RFC 1951 §3.2.5) and the fixed
// codes. They are variables' initializers rather than an init function, so a
// package-level variable may deflate.
var (
	// lenSym maps a length less 3 to its symbol less 257; a symbol's first
	// length (less 3) and extra-bit count.
	lenSym, lenSymBase, lenSymExtra = lengthSymbols()
	// distCodeLo maps a distance less 1 below 256 to its symbol, distCodeHi
	// a larger one shifted right by 7; a symbol's first distance (less 1)
	// and extra-bit count.
	distCodeLo, distCodeHi, distSymBase, distSymExtra = distanceSymbols()

	fixedLitLens, fixedLitCodes, fixedDistLens, fixedDistCodes = fixedCodes()
)

func distSym(d uint32) uint8 {
	if d < 256 {
		return distCodeLo[d]
	}
	return distCodeHi[d>>7]
}

func lengthSymbols() (sym [256]uint8, base [29]uint16, extra [29]uint8) {
	first := 0
	for c := range 28 {
		base[c] = uint16(first)
		if c >= 8 {
			extra[c] = uint8((c - 4) / 4)
		}
		for k := 0; k < 1<<extra[c]; k++ {
			sym[first+k] = uint8(c)
		}
		first += 1 << extra[c]
	}
	// Length 258 has a symbol of its own (285) rather than the last of
	// symbol 284's range.
	base[28] = 255
	sym[255] = 28
	return sym, base, extra
}

func distanceSymbols() (lo, hi [256]uint8, base [maxDistSyms]uint16, extra [maxDistSyms]uint8) {
	first := 0
	for c := range maxDistSyms {
		base[c] = uint16(first)
		if c >= 4 {
			extra[c] = uint8(c/2 - 1)
		}
		for k := 0; k < 1<<extra[c]; k++ {
			if d := first + k; d < 256 {
				lo[d] = uint8(c)
			} else {
				hi[d>>7] = uint8(c)
			}
		}
		first += 1 << extra[c]
	}
	return lo, hi, base, extra
}

// fixedCodes builds the fixed codes, canonical over all 288 literal/length
// and 32 distance symbols, the two of each no stream may use included.
func fixedCodes() (litLens [maxLitSyms]uint8, litCodes [maxLitSyms]uint16, distLens [maxDistSyms]uint8, distCodes [maxDistSyms]uint16) {
	var lens [288]uint8
	var codes [288]uint16
	for s := range lens {
		lens[s] = fixedLitLen(s)
	}
	canonicalCodes(codes[:], lens[:])
	copy(litLens[:], lens[:])
	copy(litCodes[:], codes[:])
	for s := range 32 {
		lens[s] = 5
	}
	canonicalCodes(codes[:32], lens[:32])
	copy(distLens[:], lens[:])
	copy(distCodes[:], codes[:])
	return litLens, litCodes, distLens, distCodes
}
