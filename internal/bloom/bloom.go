// Package bloom implements a split block Bloom filter used as an optional
// pre-filtering pass in the RESULTDB-SEMIJOIN algorithm.
//
// The paper's related work (Section 5, "predicate transfer", Yang et al.)
// replaces exact semi-joins with Bloom-filter passes for speed, but notes
// that ResultDB cannot adopt this directly: a Bloom filter admits false
// positives, and ResultDB returns the filtered relations themselves rather
// than feeding them into a final join that would weed out the strays. The
// compromise implemented here (core.Options.BloomPrefilter) keeps exactness:
// a cheap Bloom pass first shrinks the relations, then the exact semi-join
// passes run on the smaller inputs. False positives only cost a little
// wasted work in the exact pass; false negatives are impossible.
package bloom

import (
	"math"
	"sync/atomic"
)

// Filter is a standard partitioned Bloom filter over 64-bit hashes.
//
// Callers hash their keys themselves (internal/core hashes join keys through
// colstore.Key and skips NULL keys, which can never join). Two build modes
// exist: AddHash is single-goroutine, AddHashAtomic may be called
// concurrently from the morsel workers of the parallel prefilter build.
// Probing (ContainsHash) is read-only and always safe concurrently once the
// build is complete.
type Filter struct {
	bits   []uint64
	k      int
	nBits  uint64
	numAdd int64
}

// DefaultMaxBytes is the allocation budget New applies: no single filter
// grows past this many bytes of bit array regardless of n and fpRate. At the
// optimal ~9.6 bits/element for 1% fp, 16 MiB covers ~14M build keys; beyond
// that the filter degrades gracefully (higher fp rate) instead of exhausting
// memory on a pathological estimate.
const DefaultMaxBytes = 16 << 20

// New sizes a filter for n expected elements at the given false-positive
// rate, clamped to sane bounds and the DefaultMaxBytes budget.
func New(n int, fpRate float64) *Filter {
	return NewBudget(n, fpRate, DefaultMaxBytes)
}

// NewBudget is New with an explicit byte budget for the bit array. Degenerate
// inputs are clamped rather than rejected: n < 1 counts as 1, fpRate outside
// (0,1) (including NaN) falls back to 1%, a bit count that would overflow or
// exceed the budget is capped at the budget, and the hash count k always
// lands in [1,8] (the optimal k rounds to 0 for fpRate near 1 and grows
// unbounded for tiny fpRate; both ends are clamped).
func NewBudget(n int, fpRate float64, maxBytes int) *Filter {
	if n < 1 {
		n = 1
	}
	if math.IsNaN(fpRate) || fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	if maxBytes < 8 {
		maxBytes = 8
	}
	maxBits := uint64(maxBytes) * 8
	// Optimal bits per element: -ln(p) / ln(2)^2.
	bitsPerElem := -math.Log(fpRate) / (math.Ln2 * math.Ln2)
	// Budget/overflow clamp in the float domain: float64(n)*bitsPerElem can
	// exceed 2^63 (or reach +Inf for subnormal fpRate), where a direct
	// uint64 conversion is implementation-defined.
	fBits := float64(n) * bitsPerElem
	var nBits uint64
	if !(fBits < float64(maxBits)) {
		nBits = maxBits
	} else {
		nBits = uint64(math.Ceil(fBits))
	}
	if nBits < 64 {
		nBits = 64
	}
	if nBits > maxBits && maxBits >= 64 {
		nBits = maxBits
	}
	k := int(math.Round(bitsPerElem * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 8 {
		k = 8
	}
	words := (nBits + 63) / 64
	return &Filter{bits: make([]uint64, words), k: k, nBits: words * 64}
}

// splitHash derives k probe positions from one 64-bit hash using the
// Kirsch-Mitzenmacher double-hashing scheme.
func (f *Filter) probe(h uint64, i int) uint64 {
	h1 := h
	h2 := h>>33 | h<<31
	return (h1 + uint64(i)*h2) % f.nBits
}

// AddHash inserts a precomputed 64-bit hash.
func (f *Filter) AddHash(h uint64) {
	for i := 0; i < f.k; i++ {
		p := f.probe(h, i)
		f.bits[p/64] |= 1 << (p % 64)
	}
	f.numAdd++
}

// AddHashAtomic inserts a precomputed hash with atomic bit sets; safe to call
// concurrently with other AddHashAtomic calls (but not with AddHash or with
// probes). Used by the parallel prefilter build.
func (f *Filter) AddHashAtomic(h uint64) {
	for i := 0; i < f.k; i++ {
		p := f.probe(h, i)
		w := &f.bits[p/64]
		mask := uint64(1) << (p % 64)
		for {
			old := atomic.LoadUint64(w)
			if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
				break
			}
		}
	}
	atomic.AddInt64(&f.numAdd, 1)
}

// ContainsHash tests a precomputed hash. False positives possible, false
// negatives not.
func (f *Filter) ContainsHash(h uint64) bool {
	for i := 0; i < f.k; i++ {
		p := f.probe(h, i)
		if f.bits[p/64]&(1<<(p%64)) == 0 {
			return false
		}
	}
	return true
}

// Len returns the number of inserted keys.
func (f *Filter) Len() int { return int(f.numAdd) }

// Bits returns the filter size in bits (for size accounting in benches).
func (f *Filter) Bits() int { return int(f.nBits) }
