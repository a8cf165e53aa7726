package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDegreeResolution(t *testing.T) {
	if got := Degree(3); got != 3 {
		t.Fatalf("explicit degree: got %d, want 3", got)
	}
	if got := Degree(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("auto degree: got %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestChunksThresholdFallback(t *testing.T) {
	cases := []struct {
		n, degree, want int
	}{
		{0, 8, 1},
		{Threshold, 8, 1},       // below 2*Threshold: serial
		{2*Threshold - 1, 8, 1}, // still below
		{2 * Threshold, 8, 2},   // first parallel point
		{100 * Threshold, 4, 4}, // capped by degree
		{100 * Threshold, 1, 1}, // degree 1 forces serial
		{3 * Threshold, 8, 3},   // capped by n/Threshold
		{10 * Threshold, 8, 8},  // capped by degree again
	}
	for _, c := range cases {
		if got := Chunks(c.n, c.degree); got != c.want {
			t.Errorf("Chunks(%d, %d) = %d, want %d", c.n, c.degree, got, c.want)
		}
	}
}

func TestForCoversAllIndicesOnce(t *testing.T) {
	const n = 10*Threshold + 37
	hits := make([]int32, n)
	For(n, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

// TestMapOrderDeterministic is the core determinism guarantee: a parallel Map
// merges per-chunk outputs in input order, bit-identical to the serial run.
func TestMapOrderDeterministic(t *testing.T) {
	const n = 16*Threshold + 11
	body := func(lo, hi int) []int {
		var out []int
		for i := lo; i < hi; i++ {
			if i%3 != 0 { // variable-size output per chunk
				out = append(out, i*i)
			}
		}
		return out
	}
	serial := body(0, n)
	for _, degree := range []int{1, 2, 4, 7, runtime.GOMAXPROCS(0)} {
		got := Map(n, degree, body)
		if len(got) != len(serial) {
			t.Fatalf("degree %d: len %d, want %d", degree, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("degree %d: index %d = %d, want %d", degree, i, got[i], serial[i])
			}
		}
	}
}

func TestMapEmptyOutputIsNil(t *testing.T) {
	got := Map(8*Threshold, 4, func(lo, hi int) []int { return nil })
	if got != nil {
		t.Fatalf("all-empty map: got %v, want nil", got)
	}
	if got := Map(0, 4, func(lo, hi int) []int { return []int{1} }); got != nil {
		t.Fatalf("n=0 map: got %v, want nil", got)
	}
}

func TestMapErrLowestChunkWins(t *testing.T) {
	const n = 8 * Threshold
	nc := Chunks(n, 4)
	if nc < 3 {
		t.Skipf("need >=3 chunks, got %d", nc)
	}
	// Every chunk after the first fails; the error of the earliest failing
	// chunk (covering the earliest rows) must be reported.
	_, err := MapErr(n, 4, func(lo, hi int) ([]int, error) {
		if lo == 0 {
			return []int{1}, nil
		}
		return nil, fmt.Errorf("chunk starting at %d", lo)
	})
	if err == nil {
		t.Fatal("expected error")
	}
	lo1, _ := bounds(n, nc, 1)
	if want := fmt.Sprintf("chunk starting at %d", lo1); err.Error() != want {
		t.Fatalf("got error %q, want %q", err, want)
	}

	// No error: identical to serial.
	got, err := MapErr(n, 4, func(lo, hi int) ([]int, error) {
		out := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("index %d = %d", i, v)
		}
	}
}

func TestMapErrSerialPath(t *testing.T) {
	want := errors.New("boom")
	_, err := MapErr(10, 1, func(lo, hi int) ([]int, error) { return nil, want })
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want %v", err, want)
	}
}

func TestPanicPropagation(t *testing.T) {
	const n = 8 * Threshold
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := p.(string); !ok || s != "chunk panic" {
			t.Fatalf("unexpected panic value %v", p)
		}
	}()
	For(n, 4, func(lo, hi int) {
		if lo > 0 {
			panic("chunk panic")
		}
	})
}

func TestPanicInSerialPath(t *testing.T) {
	defer func() {
		if p := recover(); p == nil {
			t.Fatal("serial panic did not propagate")
		}
	}()
	For(3, 1, func(lo, hi int) { panic("serial") })
}

// TestNestedForNoDeadlock exercises fan-out from inside pool workers (the
// Decompose → Distinct nesting): inner tasks must either find an idle worker
// or run inline, never block.
func TestNestedForNoDeadlock(t *testing.T) {
	const outer = 16
	var total int64
	Each(outer, runtime.GOMAXPROCS(0), func(i int) {
		For(4*Threshold, 4, func(lo, hi int) {
			atomic.AddInt64(&total, int64(hi-lo))
		})
	})
	if total != int64(outer)*4*Threshold {
		t.Fatalf("nested work lost: total %d", total)
	}
}

func TestEachRunsEveryItem(t *testing.T) {
	for _, degree := range []int{1, 3, 16} {
		const k = 9
		hits := make([]int32, k)
		Each(k, degree, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("degree %d: item %d run %d times", degree, i, h)
			}
		}
	}
}

// TestPositionsMatchesSerialMarks: Positions returns, at every degree, the
// ascending positions a serial pass marks, in a vector of exactly their
// number — chunks whose ranges start mid-word and empty chunks included.
func TestPositionsMatchesSerialMarks(t *testing.T) {
	const n = 16*Threshold + 37
	keep := func(i int) bool { return i%7 == 3 || i%1000 > 900 && i < 4000 }
	var want []int32
	for i := range n {
		if keep(i) {
			want = append(want, int32(i))
		}
	}
	mark := func(lo, hi int, mask []uint64) int {
		if len(mask) != (hi-lo+63)/64 {
			t.Errorf("chunk [%d,%d) got %d mask words", lo, hi, len(mask))
		}
		k := 0
		for i := lo; i < hi; i++ {
			if keep(i) {
				mask[(i-lo)>>6] |= 1 << ((i - lo) & 63)
				k++
			}
		}
		return k
	}
	for _, degree := range []int{1, 2, 3, 4, 7, runtime.GOMAXPROCS(0)} {
		got := Positions(n, degree, mark)
		if len(got) != len(want) || cap(got) != len(want) {
			t.Fatalf("degree %d: %d positions in a vector of %d, want %d", degree, len(got), cap(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("degree %d: position %d = %d, want %d", degree, i, got[i], want[i])
			}
		}
	}
	if got := Positions(0, 4, mark); got == nil || len(got) != 0 {
		t.Fatalf("an empty domain gives %v, want an empty non-nil vector", got)
	}
}
