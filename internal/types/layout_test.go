package types

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// TestValueSize pins the boxed cell at 32 bytes: every row block, storage row
// and decoded result pays this per cell.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// edgeValue is one row of the layout table: a value at an edge of its kind's
// payload encoding, with everything observable about it written out.
type edgeValue struct {
	name   string
	v      Value
	kind   Kind
	str    string
	wire   int
	toInt  string // Coerce(v, KindInt).String(), "error" when it must fail
	toFlt  string // Coerce(v, KindFloat)
	toText string // Coerce(v, KindText)
	toBool string // Coerce(v, KindBool)
}

// unpinned marks a Coerce arm whose result Go leaves to the platform (an
// out-of-range float to int64): it must succeed, with whatever value.
const unpinned = "\x00unpinned"

var (
	longText   = strings.Repeat("resultdb ", 500)
	binaryText = "\xff\xfe\x00bad\x80utf8"
)

func edgeValues() []edgeValue {
	return []edgeValue{
		{"null", Null(), KindNull, "NULL", 1, "NULL", "NULL", "NULL", "NULL"},
		{"zero Value", Value{}, KindNull, "NULL", 1, "NULL", "NULL", "NULL", "NULL"},
		{"int 0", NewInt(0), KindInt, "0", 8, "0", "0", "0", "error"},
		{"int -1", NewInt(-1), KindInt, "-1", 8, "-1", "-1", "-1", "error"},
		{"int min", NewInt(math.MinInt64), KindInt, "-9223372036854775808", 8, "-9223372036854775808", "-9.223372036854776e+18", "-9223372036854775808", "error"},
		{"int max", NewInt(math.MaxInt64), KindInt, "9223372036854775807", 8, "9223372036854775807", "9.223372036854776e+18", "9223372036854775807", "error"},
		{"int 2^53-1", NewInt(1<<53 - 1), KindInt, "9007199254740991", 8, "9007199254740991", "9.007199254740991e+15", "9007199254740991", "error"},
		{"int 2^53", NewInt(1 << 53), KindInt, "9007199254740992", 8, "9007199254740992", "9.007199254740992e+15", "9007199254740992", "error"},
		{"int 2^53+1", NewInt(1<<53 + 1), KindInt, "9007199254740993", 8, "9007199254740993", "9.007199254740992e+15", "9007199254740993", "error"},
		{"float +0", NewFloat(0), KindFloat, "0", 8, "0", "0", "0", "error"},
		{"float -0", NewFloat(math.Copysign(0, -1)), KindFloat, "-0", 8, "0", "-0", "-0", "error"},
		{"float 1.5", NewFloat(1.5), KindFloat, "1.5", 8, "error", "1.5", "1.5", "error"},
		{"float -3", NewFloat(-3), KindFloat, "-3", 8, "-3", "-3", "-3", "error"},
		{"float 2^53", NewFloat(1 << 53), KindFloat, "9.007199254740992e+15", 8, "9007199254740992", "9.007199254740992e+15", "9.007199254740992e+15", "error"},
		{"float NaN", NewFloat(math.NaN()), KindFloat, "NaN", 8, "error", "NaN", "NaN", "error"},
		{"float +Inf", NewFloat(math.Inf(1)), KindFloat, "+Inf", 8, unpinned, "+Inf", "+Inf", "error"},
		{"float -Inf", NewFloat(math.Inf(-1)), KindFloat, "-Inf", 8, unpinned, "-Inf", "-Inf", "error"},
		{"text empty", NewText(""), KindText, "", 0, "error", "error", "", "error"},
		{"text a", NewText("a"), KindText, "a", 1, "error", "error", "a", "error"},
		{"text digits", NewText("42"), KindText, "42", 2, "error", "error", "42", "error"},
		{"text long", NewText(longText), KindText, longText, 4500, "error", "error", longText, "error"},
		{"text non-UTF-8", NewText(binaryText), KindText, binaryText, 11, "error", "error", binaryText, "error"},
		{"bool false", NewBool(false), KindBool, "false", 1, "error", "error", "false", "false"},
		{"bool true", NewBool(true), KindBool, "true", 1, "error", "error", "true", "true"},
	}
}

// TestValueLayoutTable checks every accessor-visible property of the edge
// values against expectations written out above, so a change of the payload
// encoding that alters any of them fails on a named row.
func TestValueLayoutTable(t *testing.T) {
	for _, e := range edgeValues() {
		v := e.v
		if v.Kind() != e.kind || v.IsNull() != (e.kind == KindNull) {
			t.Errorf("%s: kind %s, IsNull %v", e.name, v.Kind(), v.IsNull())
		}
		if got := v.String(); got != e.str {
			t.Errorf("%s: String() = %q, want %q", e.name, got, e.str)
		}
		if got := v.WireSize(); got != e.wire {
			t.Errorf("%s: WireSize() = %d, want %d", e.name, got, e.wire)
		}
		h := fnv.New64a()
		v.HashInto(h)
		if got, want := v.HashFNV(FNVOffset64), h.Sum64(); got != want || v.Hash() != want {
			t.Errorf("%s: HashFNV = %#x, Hash = %#x, fnv.New64a + HashInto = %#x", e.name, got, v.Hash(), want)
		}
		for _, c := range []struct {
			to   Kind
			want string
		}{{KindInt, e.toInt}, {KindFloat, e.toFlt}, {KindText, e.toText}, {KindBool, e.toBool}} {
			got, err := Coerce(v, c.to)
			switch {
			case c.want == "error":
				if err == nil {
					t.Errorf("%s: Coerce to %s = %v, want an error", e.name, c.to, got)
				}
			case err != nil:
				t.Errorf("%s: Coerce to %s: %v", e.name, c.to, err)
			case c.want == unpinned:
			case got.String() != c.want || (!got.IsNull() && got.Kind() != c.to):
				t.Errorf("%s: Coerce to %s = %v (%s), want %s", e.name, c.to, got, got.Kind(), c.want)
			}
		}
	}
	// The payloads come back out exactly, whatever word they share.
	if NewInt(math.MinInt64).Int() != math.MinInt64 || NewInt(-1).Float() != -1 {
		t.Error("integer payload did not round-trip")
	}
	if f := NewFloat(math.Copysign(0, -1)).Float(); f != 0 || !math.Signbit(f) {
		t.Error("-0.0 lost its sign")
	}
	if !math.IsNaN(NewFloat(math.NaN()).Float()) || !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("NaN or a bool did not round-trip")
	}
}

// TestValueOrderAndHashLaws checks, over every pair of edge values and over
// seeded random pairs, that Compare is antisymmetric and that Equal values
// hash identically — including the cross-kind cases the shared payload word
// must not disturb: 1 ≡ 1.0, 2^53 ≡ 2^53+1 (as floats), and an integer never
// equal to the bool or text that shares its bits. NaN and −0.0 stand outside
// the laws exactly as they did under the old layout, and are pinned as such.
func TestValueOrderAndHashLaws(t *testing.T) {
	var vals []Value
	for _, e := range edgeValues() {
		if e.name != "float NaN" && e.name != "float -0" {
			vals = append(vals, e.v)
		}
	}
	vals = append(vals, NewInt(1), NewFloat(1))
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 400; i++ {
		vals = append(vals, randomHashValue(rng))
	}
	for _, a := range vals {
		for _, b := range vals {
			ab, ba := Compare(a, b), Compare(b, a)
			if ab != -ba {
				t.Fatalf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", a, b, ab, b, a, ba)
			}
			if Equal(a, b) != (ab == 0) {
				t.Fatalf("Equal(%v, %v) disagrees with Compare = %d", a, b, ab)
			}
			if ab == 0 && a.Hash() != b.Hash() {
				t.Fatalf("%v (%s) equals %v (%s) but hashes %#x != %#x", a, a.Kind(), b, b.Kind(), a.Hash(), b.Hash())
			}
		}
	}
	for _, c := range []struct {
		a, b  Value
		equal bool
	}{
		{NewInt(1), NewFloat(1), true},
		{NewFloat(0), NewFloat(math.Copysign(0, -1)), true},
		{NewInt(1 << 53), NewInt(1<<53 + 1), true},
		{NewInt(1), NewBool(true), false},
		{NewInt(0), NewBool(false), false},
		{NewInt(0), Null(), false},
		{NewText(""), Null(), false},
		{NewFloat(1), NewInt(int64(math.Float64bits(1))), false},
	} {
		if Equal(c.a, c.b) != c.equal {
			t.Errorf("Equal(%v %s, %v %s) = %v, want %v", c.a, c.a.Kind(), c.b, c.b.Kind(), !c.equal, c.equal)
		}
	}
	// NaN compares equal to every number (neither < nor > holds), and −0.0
	// equals +0.0 yet hashes by its own bit pattern.
	nan, negZero := NewFloat(math.NaN()), NewFloat(math.Copysign(0, -1))
	if Compare(nan, NewInt(7)) != 0 || Compare(NewFloat(-1), nan) != 0 || Compare(nan, NewText("x")) != -1 {
		t.Error("NaN ordering changed")
	}
	if negZero.Hash() == NewFloat(0).Hash() || negZero.Hash() == NewInt(0).Hash() {
		t.Error("-0.0 hashing changed")
	}
}
