// Package types defines the value model shared by every layer of the
// database: typed scalar values, NULL semantics, comparison, hashing, and the
// result-set size accounting used by the paper's evaluation (Section 6.1).
package types

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

const (
	// KindNull is the SQL NULL marker. NULL compares unknown to everything
	// and is only equal to NULL under grouping semantics, never under
	// predicate semantics.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE-754 floating point number.
	KindFloat
	// KindText is a variable-length UTF-8 string.
	KindText
	// KindBool is a boolean.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL scalar. The zero Value is NULL.
//
// Value is a small tagged union kept as a value type (no pointers except the
// string header) so rows can be stored contiguously without per-cell
// allocation. It is 32 bytes: the TEXT payload, one word shared by the other
// three payloads (the int64, the float64 bits, or 0/1 for a bool), and the
// tag. A boxed cell is what row blocks, storage rows and decoded results are
// made of, so its size is paid per cell everywhere; 24 bytes would need the
// tag folded into the string header with unsafe, which this package avoids.
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// NewFloat returns a DOUBLE value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{kind: KindText, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the runtime type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics if v is not an INTEGER.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("types: Int() on " + v.kind.String())
	}
	return int64(v.n)
}

// Float returns the float payload, converting from INTEGER if necessary.
// It panics if v is neither numeric kind.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.n)
	case KindInt:
		return float64(int64(v.n))
	}
	panic("types: Float() on " + v.kind.String())
}

// Text returns the string payload. It panics if v is not TEXT.
func (v Value) Text() string {
	if v.kind != KindText {
		panic("types: Text() on " + v.kind.String())
	}
	return v.s
}

// Bool returns the boolean payload. It panics if v is not BOOLEAN.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("types: Bool() on " + v.kind.String())
	}
	return v.n != 0
}

// String renders v the way a SQL shell would print it.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindText:
		return v.s
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// numeric reports whether v is INT or FLOAT.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare orders two values. NULL sorts before everything; numeric kinds
// compare by numeric value (so 1 == 1.0); distinct non-numeric kinds compare
// by kind tag. The result is -1, 0, or +1.
//
// Compare defines the grouping/ordering total order; SQL three-valued
// predicate comparison with NULL is handled in the expression evaluator.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.numeric() && b.numeric() {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindText:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		default:
			return 0
		}
	case KindBool:
		switch {
		case a.n == b.n:
			return 0
		case a.n == 0:
			return -1
		default:
			return 1
		}
	default:
		return 0
	}
}

// Equal reports whether a and b are identical under grouping semantics
// (NULL equals NULL, 1 equals 1.0).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// FNV-1a parameters shared by the row hasher and the columnar hasher in
// internal/colstore. Hashing is defined as a byte-stream FNV-1a over the
// encoding produced by HashInto; HashFNV computes the identical stream
// without going through a heap-allocated hash.Hash64.
const (
	// FNVOffset64 is the 64-bit FNV-1a offset basis (initial hash state).
	FNVOffset64 uint64 = 14695981039346656037
	// FNVPrime64 is the 64-bit FNV prime.
	FNVPrime64 uint64 = 1099511628211
)

// FNVByte advances an FNV-1a state by one byte.
func FNVByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * FNVPrime64 }

// FNVUint64LE advances an FNV-1a state by the 8 little-endian bytes of v.
func FNVUint64LE(h, v uint64) uint64 {
	h = (h ^ (v & 0xff)) * FNVPrime64
	h = (h ^ ((v >> 8) & 0xff)) * FNVPrime64
	h = (h ^ ((v >> 16) & 0xff)) * FNVPrime64
	h = (h ^ ((v >> 24) & 0xff)) * FNVPrime64
	h = (h ^ ((v >> 32) & 0xff)) * FNVPrime64
	h = (h ^ ((v >> 40) & 0xff)) * FNVPrime64
	h = (h ^ ((v >> 48) & 0xff)) * FNVPrime64
	h = (h ^ (v >> 56)) * FNVPrime64
	return h
}

// FNVString advances an FNV-1a state by the bytes of s (no terminator).
func FNVString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * FNVPrime64
	}
	return h
}

// HashFNV advances the FNV-1a state h by v's hash encoding. The byte stream
// is exactly the one HashInto writes, so
//
//	v.HashFNV(FNVOffset64) == fnv.New64a() → v.HashInto(h) → h.Sum64()
//
// but with zero allocations. Chaining HashFNV over several values hashes the
// composite key, identically to Row.HashKey.
func (v Value) HashFNV(h uint64) uint64 {
	switch v.kind {
	case KindNull:
		return FNVByte(h, 0)
	case KindInt, KindFloat:
		h = FNVByte(h, 1)
		return FNVUint64LE(h, math.Float64bits(v.Float()))
	case KindText:
		h = FNVByte(h, 2)
		h = FNVString(h, v.s)
		return FNVByte(h, 0xff)
	case KindBool:
		return FNVByte(FNVByte(h, 3), byte(v.n))
	default:
		return h
	}
}

// Hash returns a hash consistent with Equal: Equal values hash identically.
// Allocation-free (inlined FNV-1a; see HashFNV).
func (v Value) Hash() uint64 {
	return v.HashFNV(FNVOffset64)
}

// hashWriter is the subset of hash.Hash64 we need; it lets HashInto feed a
// shared hasher when hashing composite keys.
type hashWriter interface {
	Write(p []byte) (int, error)
}

// HashInto feeds v into h in a form consistent with Equal.
func (v Value) HashInto(h hashWriter) {
	var buf [9]byte
	switch v.kind {
	case KindNull:
		buf[0] = 0
		h.Write(buf[:1])
	case KindInt, KindFloat:
		// Numeric kinds must hash identically when Equal; hash the float
		// bit pattern of the numeric value. Integers beyond 2^53 lose
		// precision in Float(), so hash exact integers by value when the
		// round-trip is lossless, else by float bits — both sides of any
		// Equal pair take the same branch because Equal compares floats.
		buf[0] = 1
		f := v.Float()
		bits := math.Float64bits(f)
		putUint64(buf[1:], bits)
		h.Write(buf[:9])
	case KindText:
		buf[0] = 2
		h.Write(buf[:1])
		h.Write([]byte(v.s))
		buf[0] = 0xff // terminator so "a","b" != "ab",""
		h.Write(buf[:1])
	case KindBool:
		buf[0] = 3
		buf[1] = byte(v.n)
		h.Write(buf[:2])
	}
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// WireSize returns the number of bytes v contributes to a result set under
// the paper's sizing rule (Section 6.1): numeric attributes count their
// datatype width, character attributes count the actual string length.
func (v Value) WireSize() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindInt:
		return 8
	case KindFloat:
		return 8
	case KindText:
		return len(v.s)
	case KindBool:
		return 1
	default:
		return 0
	}
}

// Coerce attempts to convert v to the requested kind, used when inserting
// literals into typed columns. NULL coerces to anything.
func Coerce(v Value, to Kind) (Value, error) {
	if v.kind == to || v.kind == KindNull {
		return v, nil
	}
	switch to {
	case KindFloat:
		if v.kind == KindInt {
			return NewFloat(v.Float()), nil
		}
	case KindInt:
		if v.kind == KindFloat {
			if f := v.Float(); f == math.Trunc(f) {
				return NewInt(int64(f)), nil
			}
		}
	case KindText:
		return NewText(v.String()), nil
	}
	return Value{}, fmt.Errorf("types: cannot coerce %s value %q to %s", v.kind, v.String(), to)
}
