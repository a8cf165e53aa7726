package types

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// legacyValueHash is the pre-optimization implementation: feed HashInto into
// a heap-allocated fnv.New64a. The inlined HashFNV must reproduce its output
// bit-for-bit, because hash-table partitioning and the columnar hasher in
// internal/colstore both assume one hash function.
func legacyValueHash(vs ...Value) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		v.HashInto(h)
	}
	return h.Sum64()
}

func randomHashValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Null()
	case 1:
		return NewInt(rng.Int63() - rng.Int63())
	case 2:
		return NewFloat(rng.NormFloat64() * 1e6)
	case 3:
		alpha := []rune("abc\x00ÿ日本語")
		n := rng.Intn(12)
		s := make([]rune, n)
		for i := range s {
			s[i] = alpha[rng.Intn(len(alpha))]
		}
		return NewText(string(s))
	case 4:
		return NewBool(rng.Intn(2) == 0)
	default:
		// Exercise the int/float equivalence branch.
		n := rng.Int63n(1 << 54)
		if rng.Intn(2) == 0 {
			return NewInt(n)
		}
		return NewFloat(float64(n))
	}
}

func TestHashFNVMatchesLegacyFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		v := randomHashValue(rng)
		if got, want := v.Hash(), legacyValueHash(v); got != want {
			t.Fatalf("Value.Hash mismatch for %v (%s): got %#x want %#x", v, v.Kind(), got, want)
		}
	}
	// Composite keys: Row.Hash and Row.HashKey chain identically.
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(5)
		row := make(Row, n)
		for j := range row {
			row[j] = randomHashValue(rng)
		}
		if got, want := row.Hash(), legacyValueHash(row...); got != want {
			t.Fatalf("Row.Hash mismatch for %v: got %#x want %#x", row, got, want)
		}
		cols := []int{rng.Intn(n)}
		if n > 1 {
			cols = append(cols, rng.Intn(n))
		}
		key := row.Project(cols)
		if got, want := row.HashKey(cols), legacyValueHash(key...); got != want {
			t.Fatalf("Row.HashKey mismatch for %v cols %v: got %#x want %#x", row, cols, got, want)
		}
	}
}

func TestHashFNVEqualValuesHashEqual(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(1), NewFloat(1.0)},
		{NewInt(0), NewFloat(0)},
		{NewInt(-7), NewFloat(-7)},
		{NewInt(1 << 53), NewFloat(float64(1 << 53))},
		// 2^53+1 is not representable as float64; it collapses onto 2^53.
		// Equal treats them as equal (float comparison), so Hash must too.
		{NewInt(1<<53 + 1), NewInt(1 << 53)},
		{Null(), Null()},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("expected %v == %v", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Fatalf("Equal values hash differently: %v vs %v", p[0], p[1])
		}
	}
	// Text terminator byte: ("a","b") must not collide with ("ab","").
	a := Row{NewText("a"), NewText("b")}
	b := Row{NewText("ab"), NewText("")}
	if a.Hash() == b.Hash() {
		t.Fatalf("terminator failed: %v and %v collide", a, b)
	}
}

func TestRowHashAllocationFree(t *testing.T) {
	row := Row{NewInt(42), NewText("the matrix"), NewFloat(3.14), NewBool(true), Null()}
	cols := []int{1, 3}
	var sink uint64
	if n := testing.AllocsPerRun(200, func() { sink += row.Hash() }); n != 0 {
		t.Fatalf("Row.Hash allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { sink += row.HashKey(cols) }); n != 0 {
		t.Fatalf("Row.HashKey allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { sink += row[0].Hash() }); n != 0 {
		t.Fatalf("Value.Hash allocates %v per run, want 0", n)
	}
	_ = sink
}

func TestFNVHelpers(t *testing.T) {
	// FNVUint64LE must equal hashing the 8 LE bytes one at a time.
	h1 := FNVOffset64
	v := uint64(0xdeadbeefcafe1234)
	var buf [8]byte
	putUint64(buf[:], v)
	for _, b := range buf {
		h1 = FNVByte(h1, b)
	}
	if h2 := FNVUint64LE(FNVOffset64, v); h1 != h2 {
		t.Fatalf("FNVUint64LE mismatch: %#x vs %#x", h1, h2)
	}
	// FNVString must equal the stdlib hashing the same bytes.
	ref := fnv.New64a()
	ref.Write([]byte("hello, 世界"))
	if got := FNVString(FNVOffset64, "hello, 世界"); got != ref.Sum64() {
		t.Fatalf("FNVString mismatch: %#x vs %#x", got, ref.Sum64())
	}
	if math.Float64bits(1.0) == 0 {
		t.Fatal("unreachable; keeps math import honest")
	}
}

// benchRows builds a deterministic mixed-type row sample.
func benchRows(n int) []Row {
	rng := rand.New(rand.NewSource(7))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			NewInt(rng.Int63n(100000)),
			NewText("person_" + string(rune('a'+rng.Intn(26)))),
			NewFloat(rng.Float64()),
			NewInt(rng.Int63n(50)),
		}
	}
	return rows
}

// BenchmarkRowHashKeyInlined measures the allocation-free inlined FNV-1a
// hash of a 2-column key (the semi-join probe hot path).
func BenchmarkRowHashKeyInlined(b *testing.B) {
	rows := benchRows(1024)
	cols := []int{0, 1}
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += rows[i&1023].HashKey(cols)
	}
	_ = sink
}

// BenchmarkRowHashKeyLegacy measures the previous implementation (heap
// fnv.New64a per call) for comparison.
func BenchmarkRowHashKeyLegacy(b *testing.B) {
	rows := benchRows(1024)
	cols := []int{0, 1}
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		r := rows[i&1023]
		h := fnv.New64a()
		for _, c := range cols {
			r[c].HashInto(h)
		}
		sink += h.Sum64()
	}
	_ = sink
}
