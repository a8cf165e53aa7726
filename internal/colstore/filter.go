package colstore

import (
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
// dropped). FilterDense appends the passing indices of the dense range
// [lo,hi) to dst; FilterSel does the same for an existing selection. Both
// keep indices ascending, so kernels chain into conjunctions.
type Kernel interface {
	FilterDense(lo, hi int, dst []int32) []int32
	FilterSel(sel, dst []int32) []int32
}

// ---- constant ----

type constKernel struct{ pass bool }

// NewConstKernel returns a kernel passing everything or nothing (predicates
// that fold to a constant, e.g. comparison against a NULL literal).
func NewConstKernel(pass bool) Kernel { return &constKernel{pass: pass} }

func (k *constKernel) FilterDense(lo, hi int, dst []int32) []int32 {
	if !k.pass {
		return dst
	}
	for i := lo; i < hi; i++ {
		dst = append(dst, int32(i))
	}
	return dst
}

func (k *constKernel) FilterSel(sel, dst []int32) []int32 {
	if !k.pass {
		return dst
	}
	return append(dst, sel...)
}

// ---- non-null constant ----

type nonNullKernel struct{ col Column }

// NewNonNullKernel returns a kernel keeping exactly the non-NULL rows of col
// (predicates whose result is constant TRUE for every non-NULL value — e.g.
// cross-kind comparisons, which order by kind tag).
func NewNonNullKernel(col Column) Kernel { return &nonNullKernel{col: col} }

func (k *nonNullKernel) FilterDense(lo, hi int, dst []int32) []int32 {
	for i := lo; i < hi; i++ {
		if !k.col.Null(i) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

func (k *nonNullKernel) FilterSel(sel, dst []int32) []int32 {
	for _, i := range sel {
		if !k.col.Null(int(i)) {
			dst = append(dst, i)
		}
	}
	return dst
}

// ---- numeric comparison ----

type intCmpKernel struct {
	vals  []int64
	nulls *Bitmap
	op    CmpOp
	rhs   float64
}

type floatCmpKernel struct {
	vals  []float64
	nulls *Bitmap
	op    CmpOp
	rhs   float64
}

// NewNumCmpKernel compiles `col op rhs` for a numeric column and numeric
// literal (numeric kinds compare by float64 value, mirroring types.Compare).
// ok is false when col is not a typed numeric column.
func NewNumCmpKernel(col Column, op CmpOp, rhs float64) (Kernel, bool) {
	switch c := col.(type) {
	case *Int64Column:
		return &intCmpKernel{vals: c.Vals, nulls: c.Nulls, op: op, rhs: rhs}, true
	case *Float64Column:
		return &floatCmpKernel{vals: c.Vals, nulls: c.Nulls, op: op, rhs: rhs}, true
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

func cmpPass(op CmpOp, v, rhs float64) bool {
	return EvalCmp(op, cmp3(v, rhs))
}

func (k *intCmpKernel) FilterDense(lo, hi int, dst []int32) []int32 {
	for i := lo; i < hi; i++ {
		if !k.nulls.Get(i) && cmpPass(k.op, float64(k.vals[i]), k.rhs) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

func (k *intCmpKernel) FilterSel(sel, dst []int32) []int32 {
	for _, i := range sel {
		if !k.nulls.Get(int(i)) && cmpPass(k.op, float64(k.vals[i]), k.rhs) {
			dst = append(dst, i)
		}
	}
	return dst
}

func (k *floatCmpKernel) FilterDense(lo, hi int, dst []int32) []int32 {
	for i := lo; i < hi; i++ {
		if !k.nulls.Get(i) && cmpPass(k.op, k.vals[i], k.rhs) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

func (k *floatCmpKernel) FilterSel(sel, dst []int32) []int32 {
	for _, i := range sel {
		if !k.nulls.Get(int(i)) && cmpPass(k.op, k.vals[i], k.rhs) {
			dst = append(dst, i)
		}
	}
	return dst
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

func (k *intBetweenKernel) FilterDense(lo, hi int, dst []int32) []int32 {
	for i := lo; i < hi; i++ {
		if k.nulls.Get(i) {
			continue
		}
		v := float64(k.vals[i])
		if (cmp3(v, k.lo) >= 0 && cmp3(v, k.hi) <= 0) != k.not {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

func (k *intBetweenKernel) FilterSel(sel, dst []int32) []int32 {
	for _, i := range sel {
		if k.nulls.Get(int(i)) {
			continue
		}
		v := float64(k.vals[i])
		if (cmp3(v, k.lo) >= 0 && cmp3(v, k.hi) <= 0) != k.not {
			dst = append(dst, i)
		}
	}
	return dst
}

func (k *floatBetweenKernel) FilterDense(lo, hi int, dst []int32) []int32 {
	for i := lo; i < hi; i++ {
		if k.nulls.Get(i) {
			continue
		}
		v := k.vals[i]
		if (cmp3(v, k.lo) >= 0 && cmp3(v, k.hi) <= 0) != k.not {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

func (k *floatBetweenKernel) FilterSel(sel, dst []int32) []int32 {
	for _, i := range sel {
		if k.nulls.Get(int(i)) {
			continue
		}
		v := k.vals[i]
		if (cmp3(v, k.lo) >= 0 && cmp3(v, k.hi) <= 0) != k.not {
			dst = append(dst, i)
		}
	}
	return dst
}

// ---- numeric IN list ----

type numInKernel struct {
	col     Column // *Int64Column or *Float64Column, accessed via fast paths below
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

func (k *numInKernel) pass(i int) bool {
	if k.nulls.Get(i) {
		return false
	}
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

func (k *numInKernel) FilterDense(lo, hi int, dst []int32) []int32 {
	for i := lo; i < hi; i++ {
		if k.pass(i) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

func (k *numInKernel) FilterSel(sel, dst []int32) []int32 {
	for _, i := range sel {
		if k.pass(int(i)) {
			dst = append(dst, i)
		}
	}
	return dst
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

func (k *boolKernel) FilterDense(lo, hi int, dst []int32) []int32 {
	for i := lo; i < hi; i++ {
		if k.nulls.Get(i) {
			continue
		}
		if (k.vals[i] && k.passTrue) || (!k.vals[i] && k.passFalse) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

func (k *boolKernel) FilterSel(sel, dst []int32) []int32 {
	for _, i := range sel {
		if k.nulls.Get(int(i)) {
			continue
		}
		if (k.vals[i] && k.passTrue) || (!k.vals[i] && k.passFalse) {
			dst = append(dst, i)
		}
	}
	return dst
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

func (k *dictKernel) FilterDense(lo, hi int, dst []int32) []int32 {
	for i := lo; i < hi; i++ {
		if !k.nulls.Get(i) && k.keep[k.codes[i]] {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

func (k *dictKernel) FilterSel(sel, dst []int32) []int32 {
	for _, i := range sel {
		if !k.nulls.Get(int(i)) && k.keep[k.codes[i]] {
			dst = append(dst, i)
		}
	}
	return dst
}

// ---- IS [NOT] NULL ----

type isNullKernel struct {
	col Column
	not bool
}

// NewIsNullKernel compiles `col IS [NOT] NULL` over any column.
func NewIsNullKernel(col Column, not bool) Kernel {
	return &isNullKernel{col: col, not: not}
}

func (k *isNullKernel) FilterDense(lo, hi int, dst []int32) []int32 {
	for i := lo; i < hi; i++ {
		if k.col.Null(i) != k.not {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

func (k *isNullKernel) FilterSel(sel, dst []int32) []int32 {
	for _, i := range sel {
		if k.col.Null(int(i)) != k.not {
			dst = append(dst, i)
		}
	}
	return dst
}

// RunKernels evaluates a conjunction of kernels over the dense row domain
// [0, n) or, when sel is non-nil, over the ascending rows it lists, chunked
// across the worker pool at degree par into one selection vector of n
// entries (parallel.Filter): the first kernel writes each chunk's survivors
// into the chunk's own window of it (sel itself is never written), later
// kernels compact that window in place, and the windows close up in chunk
// order. The result is the ascending selection of rows passing every kernel
// (never nil, so an empty result is distinguishable from a nil "all rows"
// selection), and it is the caller's. kernels must be non-empty.
func RunKernels(n int, sel []int32, kernels []Kernel, par int) []int32 {
	if sel != nil {
		n = len(sel)
	}
	return parallel.Filter(make([]int32, n), par, func(lo, hi int, dst []int32) []int32 {
		if sel == nil {
			dst = kernels[0].FilterDense(lo, hi, dst)
		} else {
			dst = kernels[0].FilterSel(sel[lo:hi], dst)
		}
		for _, k := range kernels[1:] {
			if len(dst) == 0 {
				break
			}
			// In-place compaction: the write cursor never passes the read
			// cursor, so filtering dst into dst[:0] is safe.
			dst = k.FilterSel(dst, dst[:0])
		}
		return dst
	})
}
