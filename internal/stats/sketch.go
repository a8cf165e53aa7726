package stats

import (
	"math"
	"math/bits"
	"slices"
)

// sketch estimates the number of distinct 64-bit hashes fed to it.
//
// It is exact up to sketchExactMax distinct hashes (an open-addressing hash
// set), then degrades to a HyperLogLog register array with 2^sketchP
// registers. Both phases are fully deterministic: the inputs are already
// seeded FNV-1a hashes (types.Value.HashFNV from types.FNVOffset64), and no
// randomization is applied here, so repeated builds over the same rows agree
// bit-for-bit. Both are also mergeable by construction — the set of hashes
// seen, or the register-wise maximum — so feeding a clone the rows a version
// added gives exactly what feeding all of its rows from scratch gives.
type sketch struct {
	// slots is the exact phase's set: linear probing over a power-of-two
	// table at most 3/4 full, 0 marking an empty slot — the hash 0 itself is
	// recorded in zero. n counts the distinct hashes held.
	slots []uint64
	zero  bool
	n     int
	// regs, once non-nil, are the HyperLogLog registers; the set is gone.
	regs []uint8
}

const (
	// sketchExactMax is the exact-phase capacity. JOB dimension tables and
	// most join-key columns at bench scales stay below it, giving the
	// planner exact NDVs where they matter most.
	sketchExactMax = 1 << 13
	// sketchP is the HyperLogLog precision (register count 2^p). p=12 gives
	// ~1.6% standard error at 4 KiB per overflowing column.
	sketchP = 12
)

// add feeds one 64-bit hash.
func (s *sketch) add(h uint64) {
	if s.regs != nil {
		s.addHLL(h)
		return
	}
	if s.insert(h) && s.n > sketchExactMax {
		// Overflow: fold the exact set into HLL registers and continue there.
		s.regs = make([]uint8, 1<<sketchP)
		if s.zero {
			s.addHLL(0)
		}
		for _, eh := range s.slots {
			if eh != 0 {
				s.addHLL(eh)
			}
		}
		s.slots, s.zero, s.n = nil, false, 0
	}
}

// insert adds h to the exact set and reports whether it was new.
func (s *sketch) insert(h uint64) bool {
	if h == 0 {
		if s.zero {
			return false
		}
		s.zero = true
		s.n++
		return true
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := mix64(h) & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case h:
			return false
		case 0:
			s.slots[i] = h
			s.n++
			return true
		}
	}
}

// grow doubles the exact set's table (64 slots to start) and re-inserts.
func (s *sketch) grow() {
	old := s.slots
	s.slots = make([]uint64, max(64, 2*len(old)))
	mask := uint64(len(s.slots) - 1)
	for _, h := range old {
		if h == 0 {
			continue
		}
		i := mix64(h) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = h
	}
}

// clone returns an independent copy: what a successor version extends, so the
// statistics of the version it was copied from never change.
func (s sketch) clone() sketch {
	s.slots, s.regs = slices.Clone(s.slots), slices.Clone(s.regs)
	return s
}

func (s *sketch) addHLL(h uint64) {
	// FNV-1a has weak avalanche into the top bits for short, similar inputs
	// (sequential integer keys land in a narrow band of registers, starving
	// the rest and collapsing the estimate). HLL needs uniform bits, so run
	// the hash through a bijective finalizer first; the exact phase keeps the
	// raw hash (distinctness is preserved either way).
	h = mix64(h)
	idx := h >> (64 - sketchP)
	rho := uint8(bits.LeadingZeros64(h<<sketchP|1)) + 1
	if rho > s.regs[idx] {
		s.regs[idx] = rho
	}
}

// mix64 is the splitmix64 finalizer: a fixed bijection on uint64 with full
// avalanche, turning the FNV stream hash into HLL-grade uniform bits (and
// into the exact set's probe position).
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// estimate returns the distinct-count estimate. Exact while in the exact
// phase; bias-corrected HyperLogLog with linear-counting small-range
// correction after overflow.
func (s *sketch) estimate() int {
	if s.regs == nil {
		return s.n
	}
	m := float64(len(s.regs))
	sum := 0.0
	zeros := 0
	for _, r := range s.regs {
		sum += 1.0 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		// Linear counting for the small range.
		est = m * math.Log(m/float64(zeros))
	}
	if est < 0 {
		return 0
	}
	return int(est + 0.5)
}
