package types

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRowCloneIndependence(t *testing.T) {
	r := Row{NewInt(1), NewText("a")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].Int() != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestRowEqual(t *testing.T) {
	a := Row{NewInt(1), NewText("x")}
	b := Row{NewInt(1), NewText("x")}
	if !a.Equal(b) {
		t.Error("identical rows not equal")
	}
	if a.Equal(Row{NewInt(1)}) {
		t.Error("different arity equal")
	}
	if a.Equal(Row{NewInt(2), NewText("x")}) {
		t.Error("different values equal")
	}
	// NULL equals NULL under grouping semantics.
	if !(Row{Null()}).Equal(Row{Null()}) {
		t.Error("NULL != NULL under grouping semantics")
	}
	// Int/float cross-kind equality carries into rows.
	if !(Row{NewInt(2)}).Equal(Row{NewFloat(2)}) {
		t.Error("2 != 2.0 in rows")
	}
}

func TestRowProjectAndHashKey(t *testing.T) {
	r := Row{NewInt(1), NewText("a"), NewBool(true)}
	p := r.Project([]int{2, 0})
	if len(p) != 2 || !p[0].Bool() || p[0].Kind() != KindBool || p[1].Int() != 1 {
		t.Errorf("Project = %v", p)
	}
	if r.HashKey([]int{0, 1}) != (Row{NewInt(1), NewText("a")}).Hash() {
		t.Error("HashKey must equal hash of the projection")
	}
}

func TestRowString(t *testing.T) {
	r := Row{NewInt(1), Null(), NewText("hi")}
	if got := r.String(); got != "1 | NULL | hi" {
		t.Errorf("String = %q", got)
	}
}

func TestCompareRows(t *testing.T) {
	cases := []struct {
		a, b Row
		want int
	}{
		{Row{NewInt(1)}, Row{NewInt(2)}, -1},
		{Row{NewInt(1), NewText("a")}, Row{NewInt(1), NewText("b")}, -1},
		{Row{NewInt(1)}, Row{NewInt(1), NewInt(0)}, -1}, // shorter first
		{Row{NewInt(1)}, Row{NewInt(1)}, 0},
	}
	for _, c := range cases {
		if got := CompareRows(c.a, c.b); got != c.want {
			t.Errorf("CompareRows(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := CompareRows(c.b, c.a); got != -c.want {
			t.Errorf("CompareRows not antisymmetric on (%v, %v)", c.a, c.b)
		}
	}
}

func TestRowSet(t *testing.T) {
	s := NewRowSet()
	if !s.Add(Row{NewInt(1), NewText("a")}) {
		t.Error("first Add should report new")
	}
	if s.Add(Row{NewInt(1), NewText("a")}) {
		t.Error("duplicate Add should report existing")
	}
	if !s.Add(Row{NewInt(1), NewText("b")}) {
		t.Error("distinct row rejected")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(Row{NewInt(1), NewText("a")}) {
		t.Error("Contains misses present row")
	}
	if s.Contains(Row{NewInt(2), NewText("a")}) {
		t.Error("Contains finds absent row")
	}
}

// TestRowSetRandomized cross-checks RowSet against a map-based oracle.
func TestRowSetRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewRowSet()
	oracle := map[string]bool{}
	for i := 0; i < 3000; i++ {
		r := Row{randomValue(rng), randomValue(rng)}
		key := r.String() + "§" + r[0].Kind().String() + r[1].Kind().String()
		// Numeric cross-kind equality makes the string oracle miss 1 vs 1.0;
		// normalize numerics to float rendering.
		key = normKey(r)
		added := s.Add(r)
		if added == oracle[key] {
			t.Fatalf("iteration %d: Add(%v) = %v, oracle new=%v", i, r, added, !oracle[key])
		}
		oracle[key] = true
	}
	if s.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", s.Len(), len(oracle))
	}
}

func normKey(r Row) string {
	out := ""
	for _, v := range r {
		switch v.Kind() {
		case KindInt, KindFloat:
			out += "num:" + NewFloat(v.Float()).String()
		default:
			out += v.Kind().String() + ":" + v.String()
		}
		out += "|"
	}
	return out
}

func TestRowWireSize(t *testing.T) {
	r := Row{NewInt(1), NewText("abc"), Null()}
	if got := r.WireSize(); got != 8+3+1 {
		t.Errorf("WireSize = %d, want 12", got)
	}
}

// TestQuickRowHashEquality: rows built from equal int slices are Equal and
// hash identically; permuted rows of distinct values are not Equal.
func TestQuickRowHashEquality(t *testing.T) {
	same := func(vals []int64) bool {
		a := make(Row, len(vals))
		b := make(Row, len(vals))
		for i, v := range vals {
			a[i] = NewInt(v)
			b[i] = NewInt(v)
		}
		return a.Equal(b) && a.Hash() == b.Hash()
	}
	if err := quick.Check(same, nil); err != nil {
		t.Error(err)
	}
	appendBreaks := func(vals []int64, extra int64) bool {
		a := make(Row, len(vals))
		for i, v := range vals {
			a[i] = NewInt(v)
		}
		b := append(a.Clone(), NewInt(extra))
		return !a.Equal(b)
	}
	if err := quick.Check(appendBreaks, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickProjectWireSize: projecting a row never increases its wire size
// when projecting a subset of columns.
func TestQuickProjectWireSize(t *testing.T) {
	f := func(ints []int64, take uint8) bool {
		r := make(Row, len(ints))
		for i, v := range ints {
			r[i] = NewInt(v)
		}
		n := int(take)
		if n > len(r) {
			n = len(r)
		}
		cols := make([]int, n)
		for i := range cols {
			cols[i] = i
		}
		return r.Project(cols).WireSize() <= r.WireSize()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
