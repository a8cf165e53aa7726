package bloom

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := New(1000, 0.01)
	var inserted []uint64
	for i := 0; i < 1000; i++ {
		h := rng.Uint64()
		f.AddHash(h)
		inserted = append(inserted, h)
	}
	for _, h := range inserted {
		if !f.ContainsHash(h) {
			t.Fatalf("false negative for %x", h)
		}
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 10000
	f := New(n, 0.01)
	member := map[uint64]bool{}
	for i := 0; i < n; i++ {
		h := rng.Uint64()
		f.AddHash(h)
		member[h] = true
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		h := rng.Uint64()
		if member[h] {
			continue
		}
		if f.ContainsHash(h) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.05 {
		t.Errorf("false positive rate %.3f far above target 0.01", rate)
	}
}

func TestSizingEdgeCases(t *testing.T) {
	for _, f := range []*Filter{New(0, 0.01), New(1, -1), New(5, 2)} {
		f.AddHash(42)
		if !f.ContainsHash(42) {
			t.Error("degenerate sizing lost an element")
		}
		if f.Bits() < 64 {
			t.Errorf("Bits = %d, want >= 64", f.Bits())
		}
	}
}

// TestQuickNoFalseNegative property-checks the no-false-negative guarantee.
func TestQuickNoFalseNegative(t *testing.T) {
	f := func(hs []uint64) bool {
		flt := New(len(hs), 0.02)
		for _, h := range hs {
			flt.AddHash(h)
		}
		for _, h := range hs {
			if !flt.ContainsHash(h) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAtomicBuildMatchesSerial checks that a concurrent atomic build sets
// exactly the same bits as the serial build (the OR of bit sets is
// order-independent) and never loses an insertion under contention.
func TestAtomicBuildMatchesSerial(t *testing.T) {
	const n = 5000
	serial := New(n, 0.01)
	par := New(n, 0.01)
	for i := 0; i < n; i++ {
		serial.AddHash(uint64(i) * 0x9e3779b97f4a7c15)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				par.AddHashAtomic(uint64(i) * 0x9e3779b97f4a7c15)
			}
		}()
	}
	wg.Wait()
	if par.Len() != serial.Len() {
		t.Fatalf("atomic build lost insertions: %d vs %d", par.Len(), serial.Len())
	}
	if len(par.bits) != len(serial.bits) {
		t.Fatalf("size mismatch")
	}
	for i := range par.bits {
		if par.bits[i] != serial.bits[i] {
			t.Fatalf("bit word %d differs: %x vs %x", i, par.bits[i], serial.bits[i])
		}
	}
	for i := 0; i < n; i++ {
		if !par.ContainsHash(uint64(i) * 0x9e3779b97f4a7c15) {
			t.Fatalf("false negative after atomic build: %d", i)
		}
	}
}
