// Package parallel is the morsel-style execution layer of the engine: a
// small, stdlib-only worker pool plus chunked For/Map primitives that the
// join, residual-filter and Decompose operators use to spread row ranges
// across cores, and Positions, which writes the selection of every scan
// kernel chain and every semi-join.
//
// Design rules, in order of priority:
//
//  1. Determinism. Inputs are split into contiguous chunks and per-chunk
//     outputs are merged in chunk order, so a parallel operator produces a
//     byte-identical result to its serial form. Every correctness test in
//     the repository therefore doubles as a determinism check.
//  2. No goroutine tax on small inputs. Work below Threshold rows runs
//     serially in the calling goroutine; Chunks reports the split decision
//     so operators can pick serial data structures up front.
//  3. No deadlocks under nesting. Tasks are handed to pool workers with a
//     non-blocking send; whatever the pool cannot take immediately runs
//     inline in the caller. A worker that itself fans out (for example
//     Decompose → Distinct) can never wait on a task that no one runs.
//
// The pool is shared process-wide and sized from runtime.GOMAXPROCS. The
// effective degree of parallelism for a call is the explicit positive degree,
// or GOMAXPROCS when it is 0; degree 1 forces the serial path.
package parallel

import (
	"math/bits"
	"runtime"
	"sync"
)

// Threshold is the minimum number of rows per chunk: inputs shorter than
// 2*Threshold run serially, and a parallel split never creates chunks
// smaller than Threshold rows. Chosen so per-chunk goroutine handoff cost
// (~1µs) stays well under 1% of per-chunk work for typical row operations.
const Threshold = 512

// Degree resolves a requested degree of parallelism: a positive request wins,
// 0 means GOMAXPROCS. The result is always >= 1.
func Degree(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// Chunks reports how many chunks For/Map would use for n items at the given
// requested degree: 1 when the input is below the serial-fallback threshold
// or the degree resolves to 1, otherwise at most Degree(degree) chunks of at
// least Threshold items each.
func Chunks(n, degree int) int {
	d := Degree(degree)
	if d <= 1 || n < 2*Threshold {
		return 1
	}
	nc := n / Threshold
	if nc > d {
		nc = d
	}
	if nc < 1 {
		nc = 1
	}
	return nc
}

// pool is the shared worker pool. Workers block on an unbuffered channel, so
// a non-blocking send succeeds exactly when a worker is idle; everything else
// runs inline in the submitting goroutine.
var pool struct {
	once  sync.Once
	tasks chan func()
}

func startPool() {
	pool.tasks = make(chan func())
	n := runtime.GOMAXPROCS(0)
	for i := 0; i < n; i++ {
		go func() {
			for task := range pool.tasks {
				task()
			}
		}()
	}
}

// trySubmit hands task to an idle pool worker, reporting whether one took it.
func trySubmit(task func()) bool {
	pool.once.Do(startPool)
	select {
	case pool.tasks <- task:
		return true
	default:
		return false
	}
}

// bounds returns the half-open range of chunk c when n items are split into
// nc contiguous chunks.
func bounds(n, nc, c int) (lo, hi int) {
	return c * n / nc, (c + 1) * n / nc
}

// runChunks executes run(0..nc-1) across the pool, with chunk 0 always in
// the calling goroutine. Panics from any chunk propagate to the caller;
// when several chunks panic, the lowest-numbered one wins (deterministic).
func runChunks(nc int, run func(chunk int)) {
	if nc <= 1 {
		run(0)
		return
	}
	panics := make([]any, nc)
	exec := func(c int) {
		defer func() {
			if p := recover(); p != nil {
				panics[c] = p
			}
		}()
		run(c)
	}
	var wg sync.WaitGroup
	for c := 1; c < nc; c++ {
		c := c
		wg.Add(1)
		task := func() {
			defer wg.Done()
			exec(c)
		}
		if !trySubmit(task) {
			task() // pool saturated: run inline, never block
		}
	}
	exec(0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// For runs body over contiguous sub-ranges of [0, n) in parallel. body must
// only touch state owned by its range (e.g. disjoint slice elements). Serial
// below the threshold; see Chunks.
func For(n, degree int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	nc := Chunks(n, degree)
	if nc <= 1 {
		body(0, n)
		return
	}
	runChunks(nc, func(c int) {
		lo, hi := bounds(n, nc, c)
		body(lo, hi)
	})
}

// Each runs body(0..k-1) in parallel with no serial-fallback threshold: the
// items are assumed to be coarse independent tasks (one relation each, say),
// not rows. Degree 1 runs serially in order.
func Each(k, degree int, body func(i int)) {
	if k <= 0 {
		return
	}
	d := Degree(degree)
	nc := k
	if nc > d {
		nc = d
	}
	if d <= 1 || nc <= 1 {
		for i := 0; i < k; i++ {
			body(i)
		}
		return
	}
	runChunks(nc, func(c int) {
		lo, hi := bounds(k, nc, c)
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Map runs body over contiguous sub-ranges of [0, n), each chunk returning
// its own output slice; the chunks are concatenated in input order, so the
// result is identical to body(0, n). The per-chunk buffers are what makes
// variable-output operators (probes) deterministic without locks; an
// error-free filter, whose chunks keep a subset of their range, writes one
// exact vector with Positions instead.
func Map[T any](n, degree int, body func(lo, hi int) []T) []T {
	if n <= 0 {
		return nil
	}
	nc := Chunks(n, degree)
	if nc <= 1 {
		return body(0, n)
	}
	parts := make([][]T, nc)
	runChunks(nc, func(c int) {
		lo, hi := bounds(n, nc, c)
		parts[c] = body(lo, hi)
	})
	return mergeParts(parts)
}

// MapErr is Map for fallible bodies. On failure it returns the error of the
// lowest-numbered failing chunk — the chunk covering the earliest rows — so
// the reported error matches what serial execution would have hit first.
func MapErr[T any](n, degree int, body func(lo, hi int) ([]T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	nc := Chunks(n, degree)
	if nc <= 1 {
		return body(0, n)
	}
	parts := make([][]T, nc)
	errs := make([]error, nc)
	runChunks(nc, func(c int) {
		lo, hi := bounds(n, nc, c)
		parts[c], errs[c] = body(lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeParts(parts), nil
}

// Positions runs mark over contiguous sub-ranges of [0, n) in parallel, each
// chunk marking the items of its range it keeps — bit j-lo, LSB-first within
// a word, for item j — in a zeroed mask of its own of (hi-lo+63)/64 words,
// and returning how many it marked. The kept positions are then written,
// ascending, into one vector of exactly their number: the only allocation
// the output sizes, beside masks of n/8 bytes, so a filter that keeps few of
// many items allocates for those few. Every scan kernel chain
// (colstore.RunKernels) and every semi-join probe writes its selection here.
// The result is identical at any degree, and never nil.
func Positions(n, degree int, mark func(lo, hi int, mask []uint64) int) []int32 {
	if n <= 0 {
		return []int32{}
	}
	nc := Chunks(n, degree)
	words := make([]int, nc+1) // chunk c's mask is masks[words[c]:words[c+1]]
	for c := range nc {
		lo, hi := bounds(n, nc, c)
		words[c+1] = words[c] + (hi-lo+63)/64
	}
	masks := make([]uint64, words[nc])
	at := make([]int, nc+1) // chunk c's positions start at out[at[c]]
	runChunks(nc, func(c int) {
		lo, hi := bounds(n, nc, c)
		at[c+1] = mark(lo, hi, masks[words[c]:words[c+1]])
	})
	for c := range nc {
		at[c+1] += at[c]
	}
	out := make([]int32, at[nc])
	runChunks(nc, func(c int) {
		lo, _ := bounds(n, nc, c)
		k := at[c]
		for w, x := range masks[words[c]:words[c+1]] {
			for ; x != 0; x &= x - 1 {
				out[k] = int32(lo + 64*w + bits.TrailingZeros64(x))
				k++
			}
		}
	})
	return out
}

// mergeParts concatenates per-chunk outputs in chunk order. An all-empty
// result merges to nil, matching what an empty serial loop produces.
func mergeParts[T any](parts [][]T) []T {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
