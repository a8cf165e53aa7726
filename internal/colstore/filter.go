package colstore

import (
	"math/bits"
	"slices"

	"resultdb/internal/parallel"
)

// CmpOp enumerates the comparison operators kernels implement.
type CmpOp uint8

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// EvalCmp applies op to a types.Compare-style three-way result.
func EvalCmp(op CmpOp, c int) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// Kernel is one compiled predicate over a frame: it narrows a selection under
// SQL predicate semantics (rows whose predicate result is FALSE or NULL are
// dropped). Mask clears, in mask, the bit of every frame row of [lo,hi) that
// fails the predicate — bit j-lo, LSB-first within a word, for row j — and
// leaves every other bit as it was, so kernels chain into conjunctions by
// marking one mask in turn (RunKernels). Words already zero are skipped.
type Kernel interface {
	Mask(lo, hi int, mask []uint64)
}

// andWords is the loop every kernel's Mask shares: each word of mask still
// holding a bit is ANDed with pass(at, e) — the pass bits of the frame rows
// [at, e) the word covers, row at+i in bit i — less the rows nulls marks
// NULL. pass evaluates its whole word without a branch per row; a row's bit
// past e may be anything, as the mask's bits past hi are clear.
func andWords(lo, hi int, mask []uint64, nulls *Bitmap, pass func(at, e int) uint64) {
	for w, m := range mask {
		if m == 0 {
			continue
		}
		at := lo + w<<6
		mask[w] = m & pass(at, min(at+64, hi)) &^ nulls.word(at)
	}
}

// bit is 1 when b holds and 0 otherwise, without a branch.
func bit(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

// ---- constant ----

type constKernel struct{ pass bool }

// NewConstKernel returns a kernel passing everything or nothing (predicates
// that fold to a constant, e.g. comparison against a NULL literal).
func NewConstKernel(pass bool) Kernel { return &constKernel{pass: pass} }

func (k *constKernel) Mask(lo, hi int, mask []uint64) {
	if !k.pass {
		clear(mask)
	}
}

// ---- numeric comparison ----

// cmpBits is a comparison operator as the three outcomes of cmp3 it passes,
// one bit each.
type cmpBits struct{ lt, eq, gt uint64 }

func cmpBitsOf(op CmpOp) cmpBits {
	return cmpBits{bit(EvalCmp(op, -1)), bit(EvalCmp(op, 0)), bit(EvalCmp(op, 1))}
}

// pass is EvalCmp(op, cmp3(v, rhs)) as a bit. It follows types.Compare's (unusual)
// NaN behavior, as cmp3 does: NaN is neither less nor greater, so it compares
// equal.
func (c cmpBits) pass(v, rhs float64) uint64 {
	l, g := bit(v < rhs), bit(v > rhs)
	return l&c.lt | g&c.gt | (1^l^g)&c.eq
}

type intCmpKernel struct {
	vals  []int64
	nulls *Bitmap
	op    cmpBits
	rhs   float64
}

type floatCmpKernel struct {
	vals  []float64
	nulls *Bitmap
	op    cmpBits
	rhs   float64
}

// NewNumCmpKernel compiles `col op rhs` for a numeric column and numeric
// literal (numeric kinds compare by float64 value, mirroring types.Compare).
// ok is false when col is not a typed numeric column.
func NewNumCmpKernel(col Column, op CmpOp, rhs float64) (Kernel, bool) {
	switch c := col.(type) {
	case *Int64Column:
		return &intCmpKernel{vals: c.Vals, nulls: c.Nulls, op: cmpBitsOf(op), rhs: rhs}, true
	case *Float64Column:
		return &floatCmpKernel{vals: c.Vals, nulls: c.Nulls, op: cmpBitsOf(op), rhs: rhs}, true
	}
	return nil, false
}

// cmp3 is types.Compare restricted to non-NULL numerics: three-way by float
// value, with the same (unusual) NaN behavior — NaN is neither less nor
// greater, so Compare reports 0. Kernels must reproduce that bit-for-bit.
func cmp3(v, rhs float64) int {
	switch {
	case v < rhs:
		return -1
	case v > rhs:
		return 1
	default:
		return 0
	}
}

func (k *intCmpKernel) Mask(lo, hi int, mask []uint64) {
	vals, op, rhs := k.vals, k.op, k.rhs
	andWords(lo, hi, mask, k.nulls, func(at, e int) (p uint64) {
		for i, v := range vals[at:e] {
			p |= op.pass(float64(v), rhs) << (i & 63)
		}
		return p
	})
}

func (k *floatCmpKernel) Mask(lo, hi int, mask []uint64) {
	vals, op, rhs := k.vals, k.op, k.rhs
	andWords(lo, hi, mask, k.nulls, func(at, e int) (p uint64) {
		for i, v := range vals[at:e] {
			p |= op.pass(v, rhs) << (i & 63)
		}
		return p
	})
}

// ---- numeric BETWEEN ----

type intBetweenKernel struct {
	vals   []int64
	nulls  *Bitmap
	lo, hi float64
	not    bool
}

type floatBetweenKernel struct {
	vals   []float64
	nulls  *Bitmap
	lo, hi float64
	not    bool
}

// NewNumBetweenKernel compiles `col [NOT] BETWEEN lo AND hi` for a numeric
// column with numeric bounds. ok is false for non-numeric columns.
func NewNumBetweenKernel(col Column, lo, hi float64, not bool) (Kernel, bool) {
	switch c := col.(type) {
	case *Int64Column:
		return &intBetweenKernel{vals: c.Vals, nulls: c.Nulls, lo: lo, hi: hi, not: not}, true
	case *Float64Column:
		return &floatBetweenKernel{vals: c.Vals, nulls: c.Nulls, lo: lo, hi: hi, not: not}, true
	}
	return nil, false
}

// Mask passes the rows inside [lo, hi] under BETWEEN and those outside
// under NOT BETWEEN. A value is outside when it is below lo or above hi:
// cmp3's order, under which NaN lies inside any bounds.
func (k *intBetweenKernel) Mask(lo, hi int, mask []uint64) {
	vals, min, max, in := k.vals, k.lo, k.hi, bit(!k.not)
	andWords(lo, hi, mask, k.nulls, func(at, e int) (p uint64) {
		for i, v := range vals[at:e] {
			f := float64(v)
			p |= (bit(f < min) | bit(f > max) ^ in) << (i & 63)
		}
		return p
	})
}

func (k *floatBetweenKernel) Mask(lo, hi int, mask []uint64) {
	vals, min, max, in := k.vals, k.lo, k.hi, bit(!k.not)
	andWords(lo, hi, mask, k.nulls, func(at, e int) (p uint64) {
		for i, v := range vals[at:e] {
			p |= (bit(v < min) | bit(v > max) ^ in) << (i & 63)
		}
		return p
	})
}

// ---- numeric IN list ----

type numInKernel struct {
	ivals   []int64
	fvals   []float64
	nulls   *Bitmap
	items   []float64
	not     bool
	sawNull bool
}

// NewNumInKernel compiles `col [NOT] IN (items...)` for a numeric column:
// items are the numeric list literals, sawNull whether the list contained a
// NULL literal (which turns every non-match into UNKNOWN — dropping the row,
// and under NOT IN dropping every row). Non-numeric list items can never
// equal a numeric value (types.Compare orders distinct kinds) and must be
// omitted by the caller. ok is false for non-numeric columns.
func NewNumInKernel(col Column, items []float64, not, sawNull bool) (Kernel, bool) {
	k := &numInKernel{items: items, not: not, sawNull: sawNull}
	switch c := col.(type) {
	case *Int64Column:
		k.ivals, k.nulls = c.Vals, c.Nulls
	case *Float64Column:
		k.fvals, k.nulls = c.Vals, c.Nulls
	default:
		return nil, false
	}
	return k, true
}

// pass reports whether the non-NULL row i passes.
func (k *numInKernel) pass(i int) bool {
	var v float64
	if k.ivals != nil {
		v = float64(k.ivals[i])
	} else {
		v = k.fvals[i]
	}
	for _, it := range k.items {
		if cmp3(v, it) == 0 {
			return !k.not
		}
	}
	if k.sawNull {
		return false // UNKNOWN under 3VL
	}
	return k.not
}

func (k *numInKernel) Mask(lo, hi int, mask []uint64) {
	andWords(lo, hi, mask, k.nulls, func(at, e int) (p uint64) {
		for j := at; j < e; j++ {
			p |= bit(k.pass(j)) << (j - at)
		}
		return p
	})
}

// ---- bool comparison ----

type boolKernel struct {
	vals                []bool
	nulls               *Bitmap
	passTrue, passFalse bool
}

// NewBoolKernel compiles a predicate over a BOOLEAN column from its truth
// table: whether TRUE rows and FALSE rows pass (NULL rows never do).
func NewBoolKernel(col *BoolColumn, passTrue, passFalse bool) Kernel {
	return &boolKernel{vals: col.Vals, nulls: col.Nulls, passTrue: passTrue, passFalse: passFalse}
}

func (k *boolKernel) Mask(lo, hi int, mask []uint64) {
	vals, t, f := k.vals, bit(k.passTrue), bit(k.passFalse)
	andWords(lo, hi, mask, k.nulls, func(at, e int) (p uint64) {
		for i, v := range vals[at:e] {
			b := bit(v)
			p |= (b&t | (b^1)&f) << (i & 63)
		}
		return p
	})
}

// ---- dictionary text predicate ----

type dictKernel struct {
	codes []uint32
	nulls *Bitmap
	keep  []bool
}

// NewDictKernel compiles any text predicate (comparison, LIKE, IN, BETWEEN —
// against literals) into a per-dictionary-code keep mask: the predicate was
// evaluated once per distinct string (see TextColumn.Keep), the kernel is a
// lookup per row.
func NewDictKernel(col *TextColumn, keep []bool) Kernel {
	return &dictKernel{codes: col.Codes, nulls: col.Nulls, keep: keep}
}

// Mask reads every row's code, a NULL row's too: that code may index no
// dictionary entry (an all-NULL column has none), so it reads as a miss.
func (k *dictKernel) Mask(lo, hi int, mask []uint64) {
	codes, keep := k.codes, k.keep
	andWords(lo, hi, mask, k.nulls, func(at, e int) (p uint64) {
		for i, c := range codes[at:e] {
			p |= bit(int(c) < len(keep) && keep[c]) << (i & 63)
		}
		return p
	})
}

// ---- IS [NOT] NULL ----

type isNullKernel struct {
	nulls *Bitmap
	cells Column // read row by row: a column that keeps no bitmap, else nil
	not   bool
}

// NewIsNullKernel compiles `col IS [NOT] NULL` over any column. A typed
// column's NULLs are read from its bitmap, 64 rows a word; the exact-value
// column keeps none and is read a row at a time.
func NewIsNullKernel(col Column, not bool) Kernel {
	k := &isNullKernel{not: not}
	switch c := col.(type) {
	case *Int64Column:
		k.nulls = c.Nulls
	case *Float64Column:
		k.nulls = c.Nulls
	case *BoolColumn:
		k.nulls = c.Nulls
	case *TextColumn:
		k.nulls = c.Nulls
	default:
		k.cells = col
	}
	return k
}

// NewNonNullKernel returns a kernel keeping exactly the non-NULL rows of col
// (predicates whose result is constant TRUE for every non-NULL value — e.g.
// cross-kind comparisons, which order by kind tag): `col IS NOT NULL`.
func NewNonNullKernel(col Column) Kernel { return NewIsNullKernel(col, true) }

func (k *isNullKernel) Mask(lo, hi int, mask []uint64) {
	not := -bit(k.not) // every bit set for IS NOT NULL
	andWords(lo, hi, mask, nil, func(at, e int) uint64 {
		if k.cells == nil {
			return k.nulls.word(at) ^ not
		}
		var p uint64
		for j := at; j < e; j++ {
			p |= bit(k.cells.Null(j)) << (j - at)
		}
		return p ^ not
	})
}

// RunKernels evaluates a conjunction of kernels over the dense row domain
// [0, n) or, when sel is non-nil, over the ascending frame rows it lists
// (sel itself is never written). The domain is chunked across the worker
// pool at degree par (parallel.Positions): a chunk sets the bits of its
// candidate rows in its mask — every row of its range, or the entries of sel
// inside it — and each kernel in turn clears the bits of the rows it fails;
// the surviving bits are written once into a vector of exactly their number.
// Over sel the domain is the frame rows from sel's first entry to its last,
// so a scan of a short tail marks only the tail's words. The result is the
// ascending selection of frame rows passing every kernel (never nil, so an
// empty result is distinguishable from a nil "all rows" selection), and it
// is the caller's.
func RunKernels(n int, sel []int32, kernels []Kernel, par int) []int32 {
	base := 0
	if sel != nil {
		n = 0
		if len(sel) > 0 {
			base, n = int(sel[0]), int(sel[len(sel)-1])+1-int(sel[0])
		}
	}
	out := parallel.Positions(n, par, func(lo, hi int, mask []uint64) int {
		lo, hi = lo+base, hi+base
		if sel == nil {
			for w := range mask {
				mask[w] = ^uint64(0)
			}
			mask[len(mask)-1] >>= -(hi - lo) & 63 // clear the bits past hi
		} else {
			i, _ := slices.BinarySearch(sel, int32(lo))
			for _, j := range sel[i:] {
				if int(j) >= hi {
					break
				}
				mask[(int(j)-lo)>>6] |= 1 << ((int(j) - lo) & 63)
			}
		}
		for _, k := range kernels {
			k.Mask(lo, hi, mask)
		}
		kept := 0
		for _, x := range mask {
			kept += bits.OnesCount64(x)
		}
		return kept
	})
	if base > 0 {
		for i := range out {
			out[i] += int32(base)
		}
	}
	return out
}
