package colstore

import (
	"math"
	"math/bits"

	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// Key addresses the join-key columns of one input: some columns of a view's
// selected rows. Hashing is the allocation-free inlined FNV-1a of
// internal/types — the hash types.Row.HashKey gives the boxed row — so any
// two keys meet with identical hashes whatever their column representations.
type Key struct {
	view *View
	kc   []Column // the key columns, resolved at construction
}

// ViewKey addresses cols of v's selected rows.
func ViewKey(v *View, cols []int) Key {
	kc := make([]Column, len(cols))
	for i, c := range cols {
		kc[i] = v.Frame.cols[c]
	}
	return Key{view: v, kc: kc}
}

// Len returns the number of keyed rows.
func (k Key) Len() int { return k.view.Len() }

// batch is how many keys the consumers of hashes work on at a time: small
// enough for the hash and NULL buffers to live on the caller's stack, large
// enough to amortize the per-column type switch.
const batch = 512

// hashes is the batch entry point of the hash kernel: it fills hs[i] with the
// composite FNV-1a key hash of logical row lo+i — identical to
// types.Row.HashKey on the materialized row — and null[i] with whether that
// key contains NULL: one type-switched loop per key column over the whole
// batch.
func (k Key) hashes(lo int, hs []uint64, null []bool) {
	null = null[:len(hs)]
	var sel []int32
	if k.view.Sel != nil {
		sel = k.view.Sel[lo : lo+len(hs)]
	}
	at := func(i int) int {
		if sel != nil {
			return int(sel[i])
		}
		return lo + i
	}
	for i := range hs {
		hs[i] = types.FNVOffset64
		null[i] = false
	}
	for n, col := range k.kc {
		switch c := col.(type) {
		case *Int64Column:
			for i := range hs {
				f := at(i)
				if c.Nulls.Get(f) {
					hs[i], null[i] = types.FNVByte(hs[i], 0), true
					continue
				}
				hs[i] = types.FNVUint64LE(types.FNVByte(hs[i], 1), math.Float64bits(float64(c.Vals[f])))
			}
		case *TextColumn:
			for i := range hs {
				f := at(i)
				switch {
				case c.Nulls.Get(f):
					hs[i], null[i] = types.FNVByte(hs[i], 0), true
				case n == 0:
					hs[i] = c.DictHash[c.Codes[f]] // dictionary fast path
				default:
					hs[i] = c.HashFNV(f, hs[i])
				}
			}
		default:
			for i := range hs {
				f := at(i)
				hs[i] = col.HashFNV(f, hs[i])
				if col.Null(f) {
					null[i] = true
				}
			}
		}
	}
}

// hash1 is hashes for the single row j.
func (k Key) hash1(j int) (h uint64, null bool) {
	var hs [1]uint64
	var nl [1]bool
	k.hashes(j, hs[:], nl[:])
	return hs[0], nl[0]
}

// hashAll hashes every key of k at degree par (disjoint writes).
func hashAll(k Key, par int) (hs []uint64, null []bool) {
	n := k.Len()
	hs, null = make([]uint64, n), make([]bool, n)
	parallel.For(n, par, func(lo, hi int) {
		for ; lo < hi; lo += batch {
			e := min(lo+batch, hi)
			k.hashes(lo, hs[lo:e], null[lo:e])
		}
	})
	return hs, null
}

// eqCol is the equality rule of one key column pairing, fixed when two keys
// meet: both Int64 columns compare by float64 value (which is types.Equal on
// integers), two TEXT columns over one dictionary compare codes, and every
// other pairing boxes both sides and asks types.Equal.
type eqCol struct {
	ai, bi *Int64Column
	at, bt *TextColumn
}

// matcher compares keys of a (by build position) with keys of b (by probe
// position) under types.Equal, grouping semantics: NULL equals NULL. Callers
// that want join semantics skip NULL keys before they compare.
type matcher struct {
	a, b Key
	cols []eqCol
}

func newMatcher(a, b Key) matcher {
	m := matcher{a: a, b: b, cols: make([]eqCol, len(a.kc))}
	for c := range a.kc {
		e := &m.cols[c]
		switch ac := a.kc[c].(type) {
		case *Int64Column:
			if bc, ok := b.kc[c].(*Int64Column); ok {
				e.ai, e.bi = ac, bc
			}
		case *TextColumn:
			if bc, ok := b.kc[c].(*TextColumn); ok && len(ac.Dict) == len(bc.Dict) &&
				(len(ac.Dict) == 0 || &ac.Dict[0] == &bc.Dict[0]) {
				e.at, e.bt = ac, bc
			}
		}
	}
	return m
}

func (m *matcher) equal(i, j int) bool {
	fa, fb := m.a.view.Index(i), m.b.view.Index(j)
	for c := range m.cols {
		e := &m.cols[c]
		switch {
		case e.ai != nil:
			na, nb := e.ai.Nulls.Get(fa), e.bi.Nulls.Get(fb)
			if na != nb || (!na && float64(e.ai.Vals[fa]) != float64(e.bi.Vals[fb])) {
				return false
			}
		case e.at != nil:
			na, nb := e.at.Nulls.Get(fa), e.bt.Nulls.Get(fb)
			if na != nb || (!na && e.at.Codes[fa] != e.bt.Codes[fb]) {
				return false
			}
		default:
			if !types.Equal(m.a.kc[c].Value(fa), m.b.kc[c].Value(fb)) {
				return false
			}
		}
	}
	return true
}

// posTable is the one hash structure of the execution path: an
// open-addressing table of build row positions, addressed by precomputed
// 64-bit key hashes, with linear probing. It is sized once for the number of
// rows that can be inserted (load at most 1/2, so a probe always ends at an
// empty slot) and never rehashes — which is why a slot keeps only half the
// hash, as a tag that spares key compares: 8 bytes a slot, not 16, and table
// bytes are the largest allocation of a cold query. A slot stands for one
// distinct key; what its position means — the first row with that key, or
// the head of a chain of them — is its owner's business. (Over a dense
// integer key every owner addresses by value instead, no larger than this
// table would be, and hashes nothing: a KeySet is a bitmap, a HashTable a
// vector of chain heads, and GroupPositions proves a unique key distinct with
// a bitmap.)
type posTable struct {
	slots []slot
	shift uint // 64 - log2(len(slots))
}

type slot struct {
	tag uint32 // low half of the key hash: spares most key compares
	ref int32  // build position + 1; 0 marks an empty slot
}

// newPosTable returns an empty table with room for n insertions.
func newPosTable(n int) posTable {
	lg := tableLog(n)
	return posTable{slots: make([]slot, 1<<lg), shift: uint(64 - lg)}
}

// tableLog is log2 of the slot count of a table with room for n insertions:
// 2n rounded up to a power of two.
func tableLog(n int) int { return bits.Len(uint(2*max(n, 1) - 1)) }

// home is h's first slot: the top bits of a remix, because FNV's own high
// bits see little of the last key bytes. (The hash itself stays FNV.)
func (t *posTable) home(h uint64) uint64 { return (h * 0x9E3779B97F4A7C15) >> t.shift }

// lookup returns the slot of the key of m's probe row j, whose hash is h: the
// slot that holds it, or else the empty slot (ref 0) where it belongs — to
// insert the key, store h's tag and a position there.
func (t *posTable) lookup(h uint64, m *matcher, j int) *slot {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(h); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 || (s.tag == uint32(h) && m.equal(int(s.ref-1), j)) {
			return s
		}
	}
}

// KeySet is the semi-join build side: the set of the distinct non-NULL keys
// of one input, probed by membership. BuildKeySet picks one of two forms from
// the build side alone; both match exactly the probes the other would.
//
//   - Dense: a key that is one Int64Column whose non-NULL values lie strictly
//     inside ±2^53 (so the key compare, float64 equality, is integer
//     equality) and span no more 64-bit words than the hashed form's table
//     would have slots is a bitmap over [base, base+64·len(bits)): bit v−base
//     is set when v is a key. It hashes nothing, on either side, and is never
//     larger than the table it replaces.
//   - Hashed: every other key is a posTable of row positions, not projected
//     key rows, so neither build nor probe allocates per row.
type KeySet struct {
	src  Key      // the build key, which the hashed form compares against
	tab  posTable // the hashed form
	bits []uint64 // the dense form; nil in the hashed form
	base int64    // the dense form's smallest key
}

// maxExact bounds the dense form's keys: strictly inside ±2^53 no two
// integers share a float64.
const maxExact = 1 << 53

// BuildKeySet returns the set of src's keys; NULL keys are skipped,
// duplicates kept once.
func BuildKeySet(src Key) *KeySet {
	if s := buildDense(src); s != nil {
		return s
	}
	return buildHashed(src)
}

// denseRange is the one range scan of every dense form (KeySet, HashTable,
// GroupPositions): when src is one Int64Column whose non-NULL values lie
// strictly inside ±2^53 — so the key compare, float64 equality, is integer
// equality — it returns the smallest and the largest of those values and how
// many there are; ok is false when src is not such a key. A key with no
// non-NULL value has the range [0, 0].
func denseRange(src Key) (lo, hi int64, keys int, ok bool) {
	if len(src.kc) != 1 {
		return 0, 0, 0, false
	}
	c, isInt := src.kc[0].(*Int64Column)
	if !isInt {
		return 0, 0, 0, false
	}
	n, sel := src.Len(), src.view.Sel
	lo, hi, keys = math.MaxInt64, math.MinInt64, n
	switch {
	case c.Nulls.Count() != 0:
		keys = 0
		for j := 0; j < n; j++ {
			if f := src.view.Index(j); !c.Nulls.Get(f) {
				lo, hi, keys = min(lo, c.Vals[f]), max(hi, c.Vals[f]), keys+1
			}
		}
	case sel == nil:
		for _, v := range c.Vals[:n] {
			lo, hi = min(lo, v), max(hi, v)
		}
	default:
		for _, f := range sel {
			lo, hi = min(lo, c.Vals[f]), max(hi, c.Vals[f])
		}
	}
	if lo > hi {
		lo, hi = 0, 0
	}
	if lo <= -maxExact || hi >= maxExact {
		return 0, 0, 0, false
	}
	return lo, hi, keys, true
}

// fits is the byte bound of every dense form: a vector of 8-byte entries, one
// for each 2^shift integers of [lo, hi] (a bitmap's words: shift 6; a pair
// of 4-byte chain heads: shift 1), is no larger than the posTable it
// replaces, the table for n insertions, whose slots are 8 bytes too.
func fits(lo, hi int64, shift uint, n int) bool {
	return (hi-lo)>>shift < 1<<tableLog(n)
}

// buildDense returns the dense form of src's keys, or nil when src does not
// qualify for it (see KeySet). A build with no non-NULL key is one empty word.
func buildDense(src Key) *KeySet {
	lo, hi, _, ok := denseRange(src)
	if !ok || !fits(lo, hi, 6, src.Len()) {
		return nil
	}
	c, n, sel := src.kc[0].(*Int64Column), src.Len(), src.view.Sel
	s := &KeySet{bits: make([]uint64, (hi-lo)>>6+1), base: lo}
	set := func(v int64) {
		d := uint64(v - lo)
		s.bits[d>>6] |= 1 << (d & 63)
	}
	switch {
	case c.Nulls.Count() != 0:
		for j := 0; j < n; j++ {
			if f := src.view.Index(j); !c.Nulls.Get(f) {
				set(c.Vals[f])
			}
		}
	case sel == nil:
		for _, v := range c.Vals[:n] {
			set(v)
		}
	default:
		for _, f := range sel {
			set(c.Vals[f])
		}
	}
	return s
}

// buildHashed returns the hashed form of src's keys: the first row with each
// key stands for it.
func buildHashed(src Key) *KeySet {
	n := src.Len()
	s := &KeySet{src: src, tab: newPosTable(n)}
	m := newMatcher(src, src)
	var hs [batch]uint64
	var null [batch]bool
	for lo := 0; lo < n; lo += batch {
		b := min(batch, n-lo)
		src.hashes(lo, hs[:b], null[:b])
		for i := 0; i < b; i++ {
			if null[i] {
				continue
			}
			if sl := s.tab.lookup(hs[i], &m, lo+i); sl.ref == 0 {
				sl.tag, sl.ref = uint32(hs[i]), int32(lo+i)+1
			}
		}
	}
	return s
}

// Select marks the positions in [lo, hi) of p's rows whose key is in the
// set: bit j-lo of mask (LSB-first within a word) for position j, in a mask
// of (hi-lo+63)/64 zeroed words, and returns how many it marked. NULL keys
// never match. It writes no position: the caller sizes the selection vector
// to the count (parallel.Positions).
func (s *KeySet) Select(p Key, lo, hi int, mask []uint64) int {
	if s.bits != nil {
		return s.selectDense(p, lo, hi, mask)
	}
	m := newMatcher(s.src, p)
	var hs [batch]uint64
	var null [batch]bool
	k := 0
	for at := lo; at < hi; at += batch { // batch is a multiple of 64
		b := min(batch, hi-at)
		p.hashes(at, hs[:b], null[:b])
		w := mask[(at-lo)>>6:]
		for i := 0; i < b; i++ {
			if !null[i] && s.tab.lookup(hs[i], &m, at+i).ref != 0 {
				w[i>>6] |= 1 << (i & 63)
				k++
			}
		}
	}
	return k
}

// selectDense is Select over the dense form: a null-free Int64Column probe
// takes the branch-free kernel, an Int64Column with NULLs one NULL test, one
// subtract, one compare and one bit test per row, and any other probe column
// ContainsValue's rule per value.
func (s *KeySet) selectDense(p Key, lo, hi int, mask []uint64) int {
	if c, ok := p.kc[0].(*Int64Column); ok && c.Nulls.Count() == 0 {
		return s.selectInts(c.Vals, p.view.Sel, lo, hi, mask)
	}
	k := 0
	switch c := p.kc[0].(type) {
	case *Int64Column:
		sel := p.view.Sel
		for j := lo; j < hi; j++ {
			f := j
			if sel != nil {
				f = int(sel[j])
			}
			if !c.Nulls.Get(f) && s.hasInt(c.Vals[f]) {
				mask[(j-lo)>>6] |= 1 << ((j - lo) & 63)
				k++
			}
		}
	default:
		for j := lo; j < hi; j++ {
			if s.ContainsValue(c.Value(p.view.Index(j))) {
				mask[(j-lo)>>6] |= 1 << ((j - lo) & 63)
				k++
			}
		}
	}
	return k
}

// selectInts is selectDense's kernel over the values of a null-free
// Int64Column, read through sel when it is not nil. It branches on no probe
// value: every row's bit is computed and or-ed into its mask word, which is
// stored once, and the word index into the key bitmap is guarded by a mask,
// not a compare and jump. An index past the key bitmap (a value below base
// wraps to one) reads word 0 and masks its bit away. The dense form always
// has a word 0.
func (s *KeySet) selectInts(vals []int64, sel []int32, lo, hi int, mask []uint64) int {
	words, base := s.bits, s.base
	nw := uint64(len(words))
	k := 0
	for w, at := 0, lo; at < hi; w, at = w+1, at+64 {
		e := min(at+64, hi)
		var acc uint64
		if sel == nil {
			for i, v := range vals[at:e] {
				d := uint64(v - base)
				in := (d>>6 - nw) >> 63 // 1 when d>>6 < nw: both lie far below 2^63
				acc |= words[d>>6&-in] >> (d & 63) & in << i
			}
		} else {
			for i, f := range sel[at:e] {
				d := uint64(vals[f] - base)
				in := (d>>6 - nw) >> 63
				acc |= words[d>>6&-in] >> (d & 63) & in << i
			}
		}
		mask[w] = acc
		k += bits.OnesCount64(acc)
	}
	return k
}

// hasInt reports whether the dense form holds the integer v. One outside
// ±2^53 lands on no set bit, as its float64 is no key's.
func (s *KeySet) hasInt(v int64) bool {
	d := uint64(v - s.base) // the wrapped difference: ≥ the width when v < base
	return d < uint64(len(s.bits))<<6 && s.bits[d>>6]&(1<<(d&63)) != 0
}

// hasFloat reports whether the dense form holds a key whose float64 bits are
// f's — what the hashed form, which hashes those bits, matches (see exactInt).
func (s *KeySet) hasFloat(f float64) bool {
	i, ok := exactInt(f)
	return ok && s.hasInt(i)
}

// exactInt returns the integer whose float64 bits are f's, when there is one
// strictly inside ±2^53: the only DOUBLEs a dense form's integer keys can
// equal under the hashed form's rule, which hashes float64 bits — an
// integral f, but never −0.0, NaN, ±Inf or a fraction.
func exactInt(f float64) (int64, bool) {
	if !(f > -maxExact && f < maxExact) {
		return 0, false
	}
	i := int64(f)
	return i, math.Float64bits(float64(i)) == math.Float64bits(f)
}

// ContainsValue reports whether v is a key of the set, which must be over a
// single column: the probe of a scalar that belongs to no frame. The hashed
// form hashes and compares as a one-column key holding v would (types.Equal
// against the build column); the dense form tests an INTEGER's or DOUBLE's
// bit. NULL never matches. Allocation-free.
func (s *KeySet) ContainsValue(v types.Value) bool {
	if s.bits != nil {
		switch v.Kind() {
		case types.KindInt:
			return s.hasInt(v.Int())
		case types.KindFloat:
			return s.hasFloat(v.Float())
		}
		return false
	}
	if v.IsNull() {
		return false
	}
	h := v.HashFNV(types.FNVOffset64)
	col, mask := s.src.kc[0], uint64(len(s.tab.slots)-1)
	for i := s.tab.home(h); ; i = (i + 1) & mask {
		sl := s.tab.slots[i]
		if sl.ref == 0 {
			return false
		}
		if sl.tag == uint32(h) && types.Equal(col.Value(s.src.view.Index(int(sl.ref-1))), v) {
			return true
		}
	}
}

// HashTable is the join build side: every non-NULL key of one input, its
// rows chained in ascending position order — the invariant that keeps
// parallel probes bit-identical to serial — through one next vector.
// BuildHashTable picks one of two forms from the build side alone; both
// yield exactly the build positions the other would, in the same order.
//
//   - Dense: a key that qualifies for KeySet's dense form (one Int64Column
//     strictly inside ±2^53) and whose range [base, base+len(heads)) is no
//     more 4-byte heads than twice the hashed form's slots — so heads is
//     never more bytes than the table it replaces — is addressed by value:
//     heads[v−base] is the first position with key v. A null-free INTEGER
//     probe costs a subtract, a compare and a load; any other probe column
//     matches by KeySet's per-value rule.
//   - Hashed: every other key is hash-partitioned so it can be built in
//     parallel: a key lives in the table of partition hash mod P.
type HashTable struct {
	src   Key
	parts []posTable // the hashed form
	heads []int32    // the dense form: first position with key base+i, +1; nil in the hashed form
	base  int64
	next  []int32 // next[pos]: following build position with pos's key, +1; 0 ends the chain
}

// BuildHashTable indexes src's rows by key at degree par. NULL keys are
// skipped (they can never match under SQL join semantics).
func BuildHashTable(src Key, par int) *HashTable {
	if lo, hi, keys, ok := denseRange(src); ok && fits(lo, hi, 1, keys) {
		return buildDenseTable(src, lo, hi)
	}
	return buildHashTable(src, par)
}

// buildDenseTable is the dense form of src's keys, whose non-NULL values lie
// in [lo, hi]: one pass, last row first, pushing each row onto the front of
// its value's chain.
func buildDenseTable(src Key, lo, hi int64) *HashTable {
	n, c := src.Len(), src.kc[0].(*Int64Column)
	t := &HashTable{src: src, heads: make([]int32, hi-lo+1), base: lo, next: make([]int32, n)}
	for j := n - 1; j >= 0; j-- {
		if f := src.view.Index(j); !c.Nulls.Get(f) {
			d := c.Vals[f] - lo
			t.next[j], t.heads[d] = t.heads[d], int32(j)+1
		}
	}
	return t
}

// buildHashTable is the hashed form of src's keys. The keys are hashed once,
// in parallel chunks; then each worker owns one partition and inserts that
// partition's rows into a table of its own, last row first, pushing each onto
// the front of its key's chain — so chains come out ascending, and workers
// write disjoint tables and disjoint next entries.
func buildHashTable(src Key, par int) *HashTable {
	n := src.Len()
	P := max(parallel.Chunks(n, par), 1)
	hs, null := hashAll(src, par)
	t := &HashTable{src: src, parts: make([]posTable, P), next: make([]int32, n)}
	m := newMatcher(src, src)
	parallel.Each(P, par, func(p int) {
		mine := func(j int) bool { return !null[j] && hs[j]%uint64(P) == uint64(p) }
		cnt := 0
		for j := range hs {
			if mine(j) {
				cnt++
			}
		}
		tab := newPosTable(cnt)
		for j := n - 1; j >= 0; j-- {
			if mine(j) {
				sl := tab.lookup(hs[j], &m, j)
				sl.tag = uint32(hs[j])
				t.next[j], sl.ref = sl.ref, int32(j)+1
			}
		}
		t.parts[p] = tab
	})
	return t
}

// head returns the dense form's first build position with key v, or -1. A
// v outside the range wraps to a difference past it.
func (t *HashTable) head(v int64) int32 {
	if d := uint64(v - t.base); d < uint64(len(t.heads)) {
		return t.heads[d] - 1
	}
	return -1
}

// Next returns the build position that follows pos in its key's chain, or -1
// at the chain's end.
func (t *HashTable) Next(pos int32) int32 { return t.next[pos] - 1 }

// Prober probes a HashTable with the rows of one key: the equality rule of
// the two sides is resolved once and shared by every probe.
type Prober struct {
	t    *HashTable
	p    Key
	m    matcher // the hashed form's
	ints []int64 // the dense form's probe values, when a null-free Int64Column holds them
}

// Prober returns a prober for p's rows. Probers are cheap; parallel probes
// take one per chunk.
func (t *HashTable) Prober(p Key) Prober {
	if t.heads == nil {
		return Prober{t: t, p: p, m: newMatcher(t.src, p)}
	}
	pr := Prober{t: t, p: p}
	if c, ok := p.kc[0].(*Int64Column); ok && c.Nulls.Count() == 0 {
		pr.ints = c.Vals
	}
	return pr
}

// First returns the first build position whose key equals probe row j's key,
// or -1; Next walks the rest of them, ascending. NULL probes match nothing.
func (pr *Prober) First(j int) int32 {
	t := pr.t
	switch {
	case pr.ints != nil:
		return t.head(pr.ints[pr.p.view.Index(j)])
	case t.heads != nil:
		v := pr.p.kc[0].Value(pr.p.view.Index(j))
		switch v.Kind() {
		case types.KindInt:
			return t.head(v.Int())
		case types.KindFloat:
			if i, ok := exactInt(v.Float()); ok {
				return t.head(i)
			}
		}
		return -1
	}
	h, null := pr.p.hash1(j)
	if null {
		return -1
	}
	return t.parts[h%uint64(len(t.parts))].lookup(h, &pr.m, j).ref - 1
}

// Each invokes yield for every build position whose key equals probe row j's
// key, in ascending position order. NULL probes match nothing.
func (pr *Prober) Each(j int, yield func(pos int32)) {
	for pos := pr.First(j); pos >= 0; pos = pr.t.Next(pos) {
		yield(pos)
	}
}

// GroupPositions returns, ascending, the position of the first occurrence of
// every distinct key (grouping semantics: NULLs compare equal) and, when gid
// is not nil (it must have key.Len() entries), sets gid[j] to the index in
// that result of row j's key: groups numbered in first-occurrence order.
//
// A key one of whose columns proves every row distinct (see unique) is every
// position, each row its own group, and hashes nothing. Otherwise keys are
// hashed once, in parallel chunks; equal keys share a hash, hence a
// partition, so each worker resolves one partition in input order against a
// table of its own and marks the first occurrences — exactly the positions a
// serial first-occurrence-wins loop keeps, at any degree.
func GroupPositions(key Key, par int, gid []int32) []int32 {
	if !key.unique() {
		return groupHashed(key, par, gid)
	}
	order := make([]int32, key.Len())
	for j := range order {
		order[j] = int32(j)
	}
	copy(gid, order)
	return order
}

// groupHashed is GroupPositions by hashing every key.
func groupHashed(key Key, par int, gid []int32) []int32 {
	n := key.Len()
	P := max(parallel.Chunks(n, par), 1)
	hs, _ := hashAll(key, par)
	first := make([]bool, n)
	kept := make([]int, P)
	m := newMatcher(key, key)
	parallel.Each(P, par, func(p int) {
		cnt := 0
		for _, h := range hs {
			if h%uint64(P) == uint64(p) {
				cnt++
			}
		}
		tab := newPosTable(cnt)
		for j, h := range hs {
			if h%uint64(P) != uint64(p) {
				continue
			}
			sl := tab.lookup(h, &m, j)
			if sl.ref == 0 {
				sl.tag, sl.ref = uint32(h), int32(j)+1
				first[j] = true
				kept[p]++
			}
			if gid != nil {
				gid[j] = sl.ref - 1 // the first position with this key, numbered below
			}
		}
	})
	total := 0
	for _, k := range kept {
		total += k
	}
	order := make([]int32, 0, total)
	for j, f := range first {
		if f {
			order = append(order, int32(j))
		}
	}
	if gid != nil {
		groups := int32(0)
		for j, f := range first {
			if f {
				gid[j] = groups
				groups++
			} else {
				gid[j] = gid[gid[j]] // an earlier row's: already a group number
			}
		}
	}
	return order
}

// unique reports whether one of k's columns proves every row of k distinct:
// a null-free Int64Column that qualifies for KeySet's dense form (range
// scan and byte bound alike) and holds no value twice among k's rows. Each
// candidate costs the range scan and one test-and-set pass over a bitmap of
// its range, which stops at the first repeat.
func (k Key) unique() bool {
	for _, col := range k.kc {
		c, ok := col.(*Int64Column)
		if !ok || c.Nulls.Count() != 0 {
			continue
		}
		one := Key{view: k.view, kc: []Column{c}}
		lo, hi, _, ok := denseRange(one)
		if ok && fits(lo, hi, 6, k.Len()) && distinctInts(c.Vals, k.view.Sel, k.Len(), lo, hi) {
			return true
		}
	}
	return false
}

// distinctInts reports whether no value repeats among the first n of vals,
// read through sel when it is not nil, all of which lie in [lo, hi].
func distinctInts(vals []int64, sel []int32, n int, lo, hi int64) bool {
	seen := make([]uint64, (hi-lo)>>6+1)
	for j := 0; j < n; j++ {
		f := j
		if sel != nil {
			f = int(sel[j])
		}
		d := uint64(vals[f] - lo)
		w, b := d>>6, uint64(1)<<(d&63)
		if seen[w]&b != 0 {
			return false
		}
		seen[w] |= b
	}
	return true
}

// DistinctPositions is GroupPositions without the group numbers.
func DistinctPositions(key Key, par int) []int32 { return GroupPositions(key, par, nil) }
