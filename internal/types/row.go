package types

import (
	"strings"
)

// Row is one tuple: a slice of values, positionally matched to a schema.
type Row []Value

// Clone returns a deep-enough copy of r (values are immutable, so a shallow
// slice copy suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two rows have identical values under grouping
// semantics.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !Equal(r[i], o[i]) {
			return false
		}
	}
	return true
}

// Hash returns a hash of the whole row consistent with Equal.
// Allocation-free: chains the inlined FNV-1a hasher over all cells.
func (r Row) Hash() uint64 {
	h := FNVOffset64
	for i := range r {
		h = r[i].HashFNV(h)
	}
	return h
}

// HashKey returns a hash of the projection of r onto cols.
// Allocation-free: chains the inlined FNV-1a hasher over the key cells.
func (r Row) HashKey(cols []int) uint64 {
	h := FNVOffset64
	for _, c := range cols {
		h = r[c].HashFNV(h)
	}
	return h
}

// MakeRows allocates n rows of the given width backed by one contiguous
// value block (one allocation for all cells instead of one per row), for
// bulk materializers like colstore.View.Rows. Each returned row is
// full-length (capacity clipped), so appends never alias a neighbor.
func MakeRows(n, width int) []Row {
	rows := make([]Row, n)
	if n == 0 || width == 0 {
		for i := range rows {
			rows[i] = Row{}
		}
		return rows
	}
	block := make([]Value, n*width)
	for i := range rows {
		rows[i] = Row(block[i*width : (i+1)*width : (i+1)*width])
	}
	return rows
}

// Project returns a new row containing only the listed column positions.
func (r Row) Project(cols []int) Row {
	out := make(Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}

// WireSize sums the wire sizes of all cells (Section 6.1 sizing rule).
func (r Row) WireSize() int {
	n := 0
	for i := range r {
		n += r[i].WireSize()
	}
	return n
}

// String renders the row as a pipe-separated line for shells and tests.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i := range r {
		parts[i] = r[i].String()
	}
	return strings.Join(parts, " | ")
}

// CompareRows orders rows lexicographically; used for deterministic output
// ordering in tests and the shell.
func CompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// RowSet is a hash set of rows used for duplicate elimination (set semantics
// of the relational algebra in Definition 2.2).
type RowSet struct {
	buckets map[uint64][]Row
	n       int
}

// NewRowSet returns an empty set.
func NewRowSet() *RowSet {
	return &RowSet{buckets: make(map[uint64][]Row)}
}

// Add inserts r and reports whether it was absent before.
func (s *RowSet) Add(r Row) bool {
	h := r.Hash()
	for _, existing := range s.buckets[h] {
		if existing.Equal(r) {
			return false
		}
	}
	s.buckets[h] = append(s.buckets[h], r)
	s.n++
	return true
}

// Contains reports whether r is in the set.
func (s *RowSet) Contains(r Row) bool {
	h := r.Hash()
	for _, existing := range s.buckets[h] {
		if existing.Equal(r) {
			return true
		}
	}
	return false
}

// Len returns the number of distinct rows.
func (s *RowSet) Len() int { return s.n }
