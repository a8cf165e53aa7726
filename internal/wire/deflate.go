package wire

import (
	"encoding/binary"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"unsafe"
)

// deflate appends to dst a deflate stream (RFC 1951) of src, which it holds
// whole, as a column block's body is. The encoder has the body in memory
// already, so this needs none of a streaming compressor's machinery (a
// sliding window the input is copied into, a hash table sized for any
// stream and cleared per stream): it parses the whole body into tokens,
// then codes them in blocks.
//
// The parse is LZ77 over hash chains. A 4-byte hash heads the chains, and
// its table is sized to the body, so a small body clears a small table;
// positions chain through a window-sized array of links back. Every table
// has a fixed capacity and is indexed through a mask, and the body is read
// through two bounds-free loads (load32, load64), so the search pays no
// bounds check per candidate or position. At each position the chain
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
// eight byte planes of a float block). The parse cuts its tokens into
// segments there: a segment starts at the first token at or after a break,
// and a literal run ends at a break. It counts each segment's symbols as it
// emits them. A block may end only where a segment does, and does when
// coding the two sides apart saves more than breakBits: each stream gets
// Huffman codes fit to its own statistics. Each block is the cheapest of a
// stored, a fixed-code and a dynamic-code block, counted exactly in bits,
// and is written with the code lengths its costing built.
//
// The output is a pure function of src and breaks. z carries only reused
// storage; a zero deflater is ready to use.
func deflate(z *deflater, dst, src []byte, breaks []int) []byte {
	z.parse(src, breaks)
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
// array, the token list, the segments and the per-block scratch.
type deflater struct {
	// The tables at their largest, allocated on first use and indexed
	// through masks. A body clears and uses the prefix of each hash table
	// its size gives (tableBits), and writes the chain array at its own
	// positions before the chain walk reads them, so that needs no
	// clearing.
	head  *[1 << maxHashBits]int32 // last position+1 of each 4-byte hash, 0 for none
	head3 *[1 << hash3Bits]int32   // last position+1 of each 3-byte hash
	prev  *[windowSize]uint16      // by position mod the window: how far back the previous position of its chain is (link)
	toks  []uint32
	segs  []segment // the runs of tokens between breaks, a sentinel at the body's end last
	out   []byte    // the stream, for tryFlate to copy from
	w     bitWriter

	// The open block, the next segment and the two as one block.
	blocks [3]blockCode
	// Huffman scratch.
	litCodes  [maxLitSyms]uint16
	distCodes [maxDistSyms]uint16
	rle       []uint16 // code-length symbols, extra bits above bit 5
	huff      huffScratch

	// The text gather's scratch (gatherColVec): wire code+1 by source
	// dictionary code, all zero between columns, and the source codes of a
	// column's wire entries.
	remap  []int32
	firsts []int32
}

// remapFor returns z's remap scratch for a source dictionary of n entries,
// every slot zero.
func (z *deflater) remapFor(n int) []int32 {
	if len(z.remap) < n {
		z.remap = make([]int32, n)
	}
	return z.remap[:n]
}

// segment is a run of tokens, toks[tok:] up to the next segment's, coding
// src[pos:] up to the next segment's pos, and their symbols.
type segment struct {
	tok, pos int
	h        histogram
}

// histogram counts a run of tokens' literal/length and distance symbols.
type histogram struct {
	lit  [maxLitSyms]uint32
	dist [maxDistSyms]uint32
}

// blockCode is a candidate block: its symbols, the dynamic code fit to
// them (fit) and its sizes, which writeBlock codes it with.
type blockCode struct {
	h        histogram
	litLens  [maxLitSyms]uint8
	distLens [maxDistSyms]uint8
	cost     huffCost
}

// deflaters is the free list of compression states, a column encode's one
// state for its gather and its deflate (encodeColV2). It holds GOMAXPROCS
// tokens, each a state or nil for one not made yet, and a column encode
// takes one for its whole run: those encodes run on the goroutine that
// encodes the set and on the parallel pool's workers, as many as there are
// connections streaming sets plus GOMAXPROCS, but a column's encode does
// nothing but compute, so at most GOMAXPROCS of them run at any instant and
// one more waits for a token instead of making a state. A warmed server
// therefore makes no state, however many connections and degrees it serves.
// A state holds its tables (336 KiB, of which a body touches the prefix its
// size gives), a token list and output sized to the largest body it
// compressed, and gather scratch sized to the largest dictionary it remapped,
// so the list keeps them across garbage collections (a sync.Pool frees what
// two of them find idle), except one whose token list, output and scratch
// passed maxKeptBytes, which goes back as nil: those grow with a body or a
// dictionary, while the tables do not.
var deflaters = newDeflaterList(runtime.GOMAXPROCS(0))

// maxKeptBytes caps a buffer kept for reuse: a compression state's, a
// connection's response buffer on the server, a Client's receive buffer and
// inflate scratch. One that grew past it is dropped instead of kept, so one
// huge result does not pin its memory for as long as its owner lives.
const maxKeptBytes = 4 << 20

func newDeflaterList(n int) chan *deflater {
	list := make(chan *deflater, n)
	for range n {
		list <- nil
	}
	return list
}

// getDeflater takes a token, waiting while every one is out, and returns its
// state, made now if the token was nil.
func getDeflater() *deflater {
	if z := <-deflaters; z != nil {
		return z
	}
	return new(deflater)
}

// putDeflater returns the token getDeflater took: z, or nil to drop it.
func putDeflater(z *deflater) {
	if z != nil && 4*cap(z.toks)+cap(z.out)+4*(cap(z.remap)+cap(z.firsts)) > maxKeptBytes {
		z = nil
	}
	deflaters <- z
}

// tableBits is the log2 size of a table for n positions, within [8, hi].
func tableBits(n, hi int) int {
	return min(max(bits.Len(uint(n)), 8), hi)
}

// load32 is the little-endian word of src[i:i+4], read without a bounds
// check. Every caller keeps 0 <= i && i+4 <= len(src):
//   - parse reads at a position i only while i+4 <= len(src), at a 3-byte
//     match's candidate c only when 0 <= c, and c < i as every position in
//     a table is, and chains positions j only while j < len(src)-3;
//   - longest reads at i+best-3 and cand+best-3 with 3 <= best < maxLen <=
//     len(src)-i and 0 <= cand < i, so both words end by i+best+1 <=
//     len(src).
func load32(src []byte, i int) uint32 {
	return binary.LittleEndian.Uint32((*[4]byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(src)), i))[:])
}

// load64 is the little-endian word of src[i:i+8], read without a bounds
// check. Its one caller, matchLen, keeps 0 <= i && i+8 <= len(src): it reads
// at a+l and b+l with 0 <= a < b and l+8 <= limit <= len(src)-b.
func load64(src []byte, i int) uint64 {
	return binary.LittleEndian.Uint64((*[8]byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(src)), i))[:])
}

// parse fills z.toks with the lazy LZ77 parse of src and z.segs with its
// segments between breaks.
func (z *deflater) parse(src []byte, breaks []int) {
	n := len(src)
	if z.head == nil {
		z.head, z.head3, z.prev = new([1 << maxHashBits]int32), new([1 << hash3Bits]int32), new([windowSize]uint16)
	}
	hb, h3b := tableBits(n, maxHashBits), tableBits(n, hash3Bits)
	head, head3, prev := z.head, z.head3, z.prev
	clear(head[:1<<hb])
	clear(head3[:1<<h3b])
	hs, h3s := 32-hb, 32-h3b
	e := emitter{toks: slices.Grow(z.toks[:0], n/8), segs: z.segs[:0], breaks: breaks}
	e.open(0)

	// pending: the byte at i-1 is not coded yet, and pLen/pDist is the
	// longest match found there (pLen < 3: none).
	pending := false
	pLen, pDist := 0, 0
	misses := 0
	i := 0
	for i < n {
		cLen, cDist := 0, 0
		if i+4 <= n {
			u := load32(src, i)
			h := u * hashMul >> hs & (1<<maxHashBits - 1)
			cand := int(head[h]) - 1
			if pLen < niceLen && cand >= max(i-windowSize, 0) {
				cLen, cDist = z.longest(src, i, cand, max(pLen, 3))
			}
			prev[i&(windowSize-1)] = link(i, head[h])
			head[h] = int32(i + 1)
			h3 := u << 8 * hashMul >> h3s & (1<<hash3Bits - 1)
			if c := int(head3[h3]) - 1; cLen == 0 && pLen < 3 && c >= 0 && i-c <= near3 && (load32(src, c)^u)<<8 == 0 {
				cLen, cDist = 3, i-c
			}
			head3[h3] = int32(i + 1)
		}
		if pending && pLen >= 3 && cLen <= pLen {
			// The match at i-1 is at least as long as the one at i: take
			// it, and chain the positions it covers.
			e.match(i-1, pLen, pDist)
			end := i - 1 + pLen
			for j := i + 1; j < min(end, n-3); j++ {
				h := load32(src, j) * hashMul >> hs & (1<<maxHashBits - 1)
				prev[j&(windowSize-1)] = link(j, head[h])
				head[h] = int32(j + 1)
			}
			i = end
			pending, pLen = false, 0
			misses = 0
			continue
		}
		if pending {
			e.lit(src, i-1)
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
			e.lits(src, i-1, 1+step)
			i += step
			pending = false
		}
	}
	if pending {
		e.lit(src, n-1)
	}
	z.toks = e.toks
	z.segs = append(e.segs, segment{tok: len(e.toks), pos: n})
}

// hashMul is the multiplier of the multiplicative hashes of 4 and 3 bytes.
const hashMul = 0x9E3779B1

// emitter appends the parse's tokens, in order, to toks and cuts them into
// segments: a break opens a segment at the first token that starts at or
// after it (unless the open segment has no token yet), and ends the literal
// run it falls inside. Each token's symbols are counted into its segment's
// histogram as it is appended.
type emitter struct {
	toks   []uint32
	segs   []segment
	h      *histogram // the open segment's
	first  int        // the open segment's first token
	breaks []int      // the breaks not reached yet
	brk    int        // breaks[0], or past any position when there is none
}

// open opens a segment at token len(e.toks) and byte pos, with the
// end-of-block its block ends with.
func (e *emitter) open(pos int) {
	e.first = len(e.toks)
	e.segs = append(e.segs, segment{tok: e.first, pos: pos})
	e.h = &e.segs[len(e.segs)-1].h
	e.h.lit[256] = 1
	e.reach(pos)
}

// reach drops the breaks at or before pos, where a token starts.
func (e *emitter) reach(pos int) {
	for len(e.breaks) > 0 && e.breaks[0] <= pos {
		e.breaks = e.breaks[1:]
	}
	e.brk = math.MaxInt
	if len(e.breaks) > 0 {
		e.brk = e.breaks[0]
	}
}

// cut is called before a token starting at pos when pos >= e.brk: it opens
// a segment there, unless the breaks it passes are at 0 or the open segment
// has no token yet.
func (e *emitter) cut(pos int) {
	if e.first < len(e.toks) {
		for _, b := range e.breaks {
			if b > pos {
				break
			}
			if b > 0 {
				e.open(pos)
				return
			}
		}
	}
	e.reach(pos)
}

// match appends a match of length l at distance d that starts at pos.
func (e *emitter) match(pos, l, d int) {
	if pos >= e.brk {
		e.cut(pos)
	}
	e.toks = append(e.toks, matchFlag|uint32(l-3)<<15|uint32(d-1))
	e.h.lit[257+int(lenSym[uint8(l-3)])]++
	e.h.dist[distSym(uint32(d-1))]++
}

// lit appends the literal byte src[pos], extending the open run.
func (e *emitter) lit(src []byte, pos int) {
	if pos >= e.brk {
		e.cut(pos)
	}
	e.h.lit[src[pos]]++
	if last := len(e.toks) - 1; last >= e.first && e.toks[last] < matchFlag {
		e.toks[last]++
	} else {
		e.toks = append(e.toks, 1)
	}
}

// lits appends the k literal bytes of src from pos, extending the open run.
func (e *emitter) lits(src []byte, pos, k int) {
	for end := pos + k; pos < end; {
		if pos >= e.brk {
			e.cut(pos)
		}
		m := min(end, e.brk) - pos
		for _, b := range src[pos : pos+m] {
			e.h.lit[b]++
		}
		if last := len(e.toks) - 1; last >= e.first && e.toks[last] < matchFlag {
			e.toks[last] += uint32(m)
		} else {
			e.toks = append(e.toks, uint32(m))
		}
		pos += m
	}
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
	lim := max(i-windowSize, 0) // the chain also ends at a candidate of -1
	prev := z.prev
	bestLen, bestDist := 0, 0
	// A candidate can beat best only if its 4 bytes ending at offset best
	// match: one compare rejects most of a chain.
	end := load32(src, i+best-3)
	for ; cand >= lim && chain > 0; chain-- {
		if load32(src, cand+best-3) == end {
			if l := matchLen(src, cand, i, maxLen); l > best {
				best, bestLen, bestDist = l, l, i-cand
				if l >= nice {
					break
				}
				end = load32(src, i+best-3)
			}
		}
		cand -= int(prev[cand&(windowSize-1)])
	}
	return bestLen, bestDist
}

// link is what the chain array holds for position i whose chain's
// previous position is last-1 (last is a head table's entry, 0 for none):
// how far back that position is, at most 65 535. The chain walk subtracts
// it from a candidate, and reaches that position exactly when it is within
// the window: a search at i' > i stops at a candidate before i'-windowSize,
// and a link of windowSize or more lands before it as surely as the
// position itself does (the link to no position, i+1, lands at -1).
func link(i int, last int32) uint16 {
	return uint16(min(i+1-int(last), 1<<16-1))
}

// matchLen is the length of the common prefix of src[a:] and src[b:], 0 <=
// a < b, up to limit <= len(src)-b.
func matchLen(src []byte, a, b, limit int) int {
	l := 0
	for l+8 <= limit {
		if x := load64(src, a+l) ^ load64(src, b+l); x != 0 {
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

// breakBits is what a block break must save, in bits, to be taken. Every
// block costs its decoder a build of Huffman tables, ≈ 3 µs on the client,
// so a break that saves a few bytes makes the payload slower to decode.
// 128 bytes keeps the breaks between streams of different statistics that
// pay (star's byte planes, JOB's long text columns) and drops the rest.
const breakBits = 1024

// code writes z.toks as blocks: it walks the segments, extending the open
// block by the next one unless coding them apart saves more than breakBits,
// and writes the open block when it does not. The candidates' histograms
// add up the segments' (each with its end-of-block, so a block of k
// segments counts k).
func (z *deflater) code(src []byte) {
	segs := z.segs
	last := len(segs) - 1
	cur, next, both := &z.blocks[0], &z.blocks[1], &z.blocks[2]
	start := 0 // the open block's first segment
	cur.h = segs[0].h
	z.fit(cur)
	for s := 1; s < last; s++ {
		next.h = segs[s].h
		z.fit(next)
		for i := range both.h.lit {
			both.h.lit[i] = cur.h.lit[i] + next.h.lit[i]
		}
		for i := range both.h.dist {
			both.h.dist[i] = cur.h.dist[i] + next.h.dist[i]
		}
		z.fit(both)
		at := z.w.bits()
		apart := blockCost(cur.cost, segs[s].pos-segs[start].pos, at)
		apart += blockCost(next.cost, segs[s+1].pos-segs[s].pos, at+apart)
		if blockCost(both.cost, segs[s+1].pos-segs[start].pos, at) <= apart+breakBits {
			cur, both = both, cur
			continue
		}
		z.writeBlock(src, start, s, cur, false)
		start = s
		cur, next = next, cur
	}
	z.writeBlock(src, start, last, cur, true)
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

// fit builds the dynamic codes of b's histogram into its code lengths and
// sizes it as a dynamic and as a fixed block.
func (z *deflater) fit(b *blockCode) {
	h := &b.h
	huffLengths(b.litLens[:], h.lit[:], 15, &z.huff)
	huffLengths(b.distLens[:], h.dist[:], 15, &z.huff)
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
	dyn := 3 + extra + z.dynamicHeader(b, nil)
	for s, f := range h.lit {
		dyn += int(f) * int(b.litLens[s])
	}
	for s, f := range h.dist {
		dyn += int(f) * int(b.distLens[s])
	}
	b.cost = huffCost{dynamic: dyn, fixed: fixed}
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

// dynamicHeader returns the size in bits of the header of a dynamic block
// with b's code lengths (past the 3 block-type bits). With w non-nil, it
// writes the header.
func (z *deflater) dynamicHeader(b *blockCode, w *bitWriter) int {
	nlit := maxLitSyms
	for nlit > 257 && b.litLens[nlit-1] == 0 {
		nlit--
	}
	ndist := maxDistSyms
	for ndist > 1 && b.distLens[ndist-1] == 0 {
		ndist--
	}
	// Run-length code the two length lists as one sequence.
	var seq [maxLitSyms + maxDistSyms]uint8
	copy(seq[nlit:], b.distLens[:ndist])
	copy(seq[:nlit], b.litLens[:nlit])
	all := seq[:nlit+ndist]
	z.rle = z.rle[:0]
	var clenFreq [numClenSyms]uint32
	emit := func(sym, extra int) {
		z.rle = append(z.rle, uint16(sym|extra<<5))
		clenFreq[sym]++
	}
	for i := 0; i < len(all); {
		v := all[i]
		run := 1
		for i+run < len(all) && all[i+run] == v {
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
	huffLengths(clens[:], clenFreq[:], 7, &z.huff)
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
// cheapest kind of block, a dynamic one with blk's code lengths.
func (z *deflater) writeBlock(src []byte, a, b int, blk *blockCode, final bool) {
	w := &z.w
	fin := uint64(0)
	if final {
		fin = 1
	}
	from, to := &z.segs[a], &z.segs[b]
	stored := storedCost(to.pos-from.pos, w.bits())
	switch min(blk.cost.dynamic, blk.cost.fixed, stored) {
	case stored:
		raw := src[from.pos:to.pos]
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
	case blk.cost.fixed:
		w.write(fin|1<<1, 3)
		z.writeTokens(z.toks[from.tok:to.tok], src[from.pos:to.pos], &fixedLitCodes, &fixedLitLens, &fixedDistCodes, &fixedDistLens, blk.cost.fixed)
	default:
		w.write(fin|2<<1, 3)
		z.dynamicHeader(blk, w)
		canonicalCodes(z.litCodes[:], blk.litLens[:])
		canonicalCodes(z.distCodes[:], blk.distLens[:])
		z.writeTokens(z.toks[from.tok:to.tok], src[from.pos:to.pos], &z.litCodes, &blk.litLens, &z.distCodes, &blk.distLens, blk.cost.dynamic)
	}
}

// writeTokens codes toks, which code all of src, and an end-of-block with
// the given codes, the rest of a block of size bits. It reserves the
// block's bytes and stores the bit buffer 8 bytes at a time without a
// branch: a store advances the stream by the whole bytes it holds and keeps
// the rest, fewer than 8 bits, so three literals (15 bits each at most) or
// one match (48) fit before the next.
func (z *deflater) writeTokens(toks []uint32, src []byte, lc *[maxLitSyms]uint16, ll *[maxLitSyms]uint8, dc *[maxDistSyms]uint16, dl *[maxDistSyms]uint8, size int) {
	w := &z.w
	for ; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	buf := slices.Grow(w.out, size/8+16)
	o, acc, n := len(buf), w.acc, w.n
	buf = buf[:cap(buf)]
	for _, t := range toks {
		if t < matchFlag {
			lits := src[:t]
			src = src[t:]
			for ; len(lits) >= 3; lits = lits[3:] {
				acc |= uint64(lc[lits[0]]) << n
				n += uint(ll[lits[0]])
				acc |= uint64(lc[lits[1]]) << n
				n += uint(ll[lits[1]])
				acc |= uint64(lc[lits[2]]) << n
				n += uint(ll[lits[2]])
				binary.LittleEndian.PutUint64(buf[o:], acc)
				o += int(n >> 3)
				acc >>= n &^ 7
				n &= 7
			}
			for _, b := range lits {
				acc |= uint64(lc[b]) << n
				n += uint(ll[b])
				binary.LittleEndian.PutUint64(buf[o:], acc)
				o += int(n >> 3)
				acc >>= n &^ 7
				n &= 7
			}
			continue
		}
		l := t >> 15 & 0xff
		src = src[l+3:]
		lcode := lenSym[l]
		s := 257 + int(lcode)
		acc |= (uint64(lc[s]) | uint64(l-uint32(lenSymBase[lcode]))<<ll[s]) << n
		n += uint(ll[s]) + uint(lenSymExtra[lcode])
		d := t & 0x7fff
		dcode := distSym(d)
		acc |= (uint64(dc[dcode]) | uint64(d-uint32(distSymBase[dcode]))<<dl[dcode]) << n
		n += uint(dl[dcode]) + uint(distSymExtra[dcode])
		binary.LittleEndian.PutUint64(buf[o:], acc)
		o += int(n >> 3)
		acc >>= n &^ 7
		n &= 7
	}
	w.out, w.acc, w.n = buf[:o], acc, n
	w.write(uint64(lc[256]), uint(ll[256]))
}

// huffLengths sets lens to the code lengths, at most maxBits, of a Huffman
// code for freq: 0 for an unused symbol. A code gets at least two symbols
// (the lowest unused ones are added), so every decoder takes it as
// complete.
func huffLengths(lens []uint8, freq []uint32, maxBits int, scratch *huffScratch) {
	clear(lens)
	syms := scratch.keys[:0]
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
	sortKeys(syms, scratch.tmp[:len(syms)])
	n := len(syms)
	w := scratch.weights[:n]
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

// huffScratch is the storage huffLengths works in.
type huffScratch struct {
	keys, tmp [maxLitSyms]uint64 // f<<16|s: a symbol and its frequency
	weights   [maxLitSyms]uint32
}

// sortKeys sorts keys f<<16|s ascending, given keys of equal f in ascending
// s, as huffLengths makes them: a stable radix sort of f a byte at a time,
// over the bytes some f has, through tmp (as long as keys). Frequencies rarely
// pass 16 bits, so this is two counting passes where a comparison sort
// mispredicts a branch for every other comparison.
func sortKeys(keys, tmp []uint64) {
	var or uint64
	for _, k := range keys {
		or |= k
	}
	for shift := uint(16); or>>shift != 0; shift += 8 {
		var count [256]uint16
		for _, k := range keys {
			count[byte(k>>shift)]++
		}
		sum := uint16(0)
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, k := range keys {
			d := byte(k >> shift)
			tmp[count[d]] = k
			count[d]++
		}
		copy(keys, tmp)
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

// distSym is the symbol of distance d+1, d < 32 768. It reads both tables
// and picks one without a branch: distances come in no order a branch
// predictor learns.
func distSym(d uint32) uint8 {
	c := distCodeHi[uint8(d>>7)]
	if lo := distCodeLo[uint8(d)]; d < 256 {
		c = lo
	}
	return c
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
