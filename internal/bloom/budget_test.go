package bloom

import (
	"math"
	"testing"

	"resultdb/internal/types"
)

func TestNewBudgetClampsBytes(t *testing.T) {
	const budget = 1 << 10 // 1 KiB = 8192 bits
	f := NewBudget(10_000_000, 0.001, budget)
	if f.Bits() > budget*8 {
		t.Fatalf("filter uses %d bits, budget allows %d", f.Bits(), budget*8)
	}
	if f.k < 1 || f.k > 8 {
		t.Fatalf("k = %d out of [1,8]", f.k)
	}
	// Still no false negatives after clamping.
	for i := 0; i < 1000; i++ {
		f.AddHash(uint64(i) * 0x9e3779b97f4a7c15)
	}
	for i := 0; i < 1000; i++ {
		if !f.ContainsHash(uint64(i) * 0x9e3779b97f4a7c15) {
			t.Fatalf("false negative at %d after budget clamp", i)
		}
	}
}

func TestNewDefaultBudget(t *testing.T) {
	// A huge n with a tiny fp rate must cap at DefaultMaxBytes instead of
	// attempting a multi-gigabyte (or overflowed) allocation.
	f := New(math.MaxInt32, 1e-9)
	if f.Bits() > DefaultMaxBytes*8 {
		t.Fatalf("filter uses %d bits, default budget allows %d", f.Bits(), DefaultMaxBytes*8)
	}
}

func TestNewDegenerateInputs(t *testing.T) {
	cases := []struct {
		name string
		n    int
		fp   float64
	}{
		{"zero n", 0, 0.01},
		{"negative n", -5, 0.01},
		{"fp zero", 100, 0},
		{"fp one", 100, 1},
		{"fp above one", 100, 42},
		{"fp negative", 100, -0.5},
		{"fp NaN", 100, math.NaN()},
		{"fp near one rounds k to zero", 100, 0.99},
		{"fp subnormal", 100, 5e-324},
		{"huge n", math.MaxInt64, 0.01},
		{"huge n huge fp", math.MaxInt64, 0.9999},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := New(c.n, c.fp)
			if f.k < 1 || f.k > 8 {
				t.Fatalf("k = %d out of [1,8]", f.k)
			}
			if f.Bits() < 64 {
				t.Fatalf("bits = %d below minimum", f.Bits())
			}
			if f.Bits() > DefaultMaxBytes*8 {
				t.Fatalf("bits = %d above default budget", f.Bits())
			}
			if f.Bits()%64 != 0 {
				t.Fatalf("bits = %d not word-aligned", f.Bits())
			}
			// Basic no-false-negative sanity on every degenerate shape.
			key := types.Row{types.NewInt(7), types.NewText("x")}.Hash()
			f.AddHash(key)
			if !f.ContainsHash(key) {
				t.Fatal("false negative on inserted key")
			}
		})
	}
}

func TestNewBudgetTinyBudget(t *testing.T) {
	// Budgets below one word are raised to the 64-bit minimum.
	f := NewBudget(1000, 0.01, 0)
	if f.Bits() != 64 {
		t.Fatalf("bits = %d, want 64 for sub-word budget", f.Bits())
	}
}
