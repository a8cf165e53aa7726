package colstore

import (
	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// Key addresses the join-key columns of one input, columnar when a View is
// available and row-major otherwise, so joins can mix sides (a
// scanned base table against a folded intermediate, say). Hashing is the
// allocation-free inlined FNV-1a of internal/types in both forms, so a
// columnar build probes a row-major set (and vice versa) with identical
// hashes — and identical Bloom filter bits.
type Key struct {
	view *View
	rows []types.Row
	cols []int
}

// ViewKey addresses cols of v's selected rows.
func ViewKey(v *View, cols []int) Key { return Key{view: v, cols: cols} }

// RowsKey addresses cols of a row slice (the fallback form).
func RowsKey(rows []types.Row, cols []int) Key { return Key{rows: rows, cols: cols} }

// Len returns the number of keyed rows.
func (k Key) Len() int {
	if k.view != nil {
		return k.view.Len()
	}
	return len(k.rows)
}

// HasNull reports whether logical row j's key contains NULL.
func (k Key) HasNull(j int) bool {
	if k.view != nil {
		return k.view.Frame.KeyHasNull(k.view.Index(j), k.cols)
	}
	r := k.rows[j]
	for _, c := range k.cols {
		if r[c].IsNull() {
			return true
		}
	}
	return false
}

// Hash returns the composite FNV-1a key hash of logical row j, identical to
// types.Row.HashKey on the materialized row.
func (k Key) Hash(j int) uint64 {
	if k.view != nil {
		return k.view.Frame.HashKey(k.view.Index(j), k.cols)
	}
	return k.rows[j].HashKey(k.cols)
}

// value returns key column c (position in the key, not the schema) of
// logical row j.
func (k Key) value(j, c int) types.Value {
	if k.view != nil {
		return k.view.Frame.Col(k.cols[c]).Value(k.view.Index(j))
	}
	return k.rows[j][k.cols[c]]
}

// KeysEqual reports whether row i of a and row j of b agree on their key
// columns under types.Equal (grouping semantics — both sides are known
// non-NULL when this runs after a hash match).
func KeysEqual(a Key, i int, b Key, j int) bool {
	for c := range a.cols {
		if !types.Equal(a.value(i, c), b.value(j, c)) {
			return false
		}
	}
	return true
}

// KeySet is the semi-join build side: a hash set of the distinct non-NULL
// keys of one input, probed by membership. It stores row positions, not
// projected key rows, so neither build nor probe allocates per row.
type KeySet struct {
	src     Key
	buckets map[uint64][]int32
	n       int
}

// NewKeySet returns an empty set over src's keys.
func NewKeySet(src Key) *KeySet {
	return &KeySet{src: src, buckets: make(map[uint64][]int32)}
}

// Add inserts logical row j's key; NULL keys are skipped, duplicates kept
// once (collision buckets hold one position per distinct key).
func (s *KeySet) Add(j int) {
	if s.src.HasNull(j) {
		return
	}
	h := s.src.Hash(j)
	for _, pos := range s.buckets[h] {
		if KeysEqual(s.src, int(pos), s.src, j) {
			return
		}
	}
	s.buckets[h] = append(s.buckets[h], int32(j))
	s.n++
}

// Contains reports whether probe row j's key is present. NULL keys never
// match.
func (s *KeySet) Contains(p Key, j int) bool {
	if p.HasNull(j) {
		return false
	}
	h := p.Hash(j)
	for _, pos := range s.buckets[h] {
		if KeysEqual(s.src, int(pos), p, j) {
			return true
		}
	}
	return false
}

// Len returns the number of distinct keys.
func (s *KeySet) Len() int { return s.n }

// HashTable is the join build side: key hash → ascending build row
// positions, hash-partitioned so it can be built in parallel. Bucket
// position lists are always in ascending row order — the invariant that
// keeps parallel probes bit-identical to serial.
type HashTable struct {
	src   Key
	parts []map[uint64][]int32
}

// BuildHashTable indexes src's rows by key hash at degree par. NULL keys are
// skipped (they can never match under SQL join semantics).
//
// The parallel build is two-phase morsel style: (1) each worker scans a
// contiguous row chunk, hashing keys and scattering (hash, pos) entries into
// chunk-local partition lists; (2) each worker owns one partition and folds
// the chunk-local lists into its hash map, visiting chunks in input order so
// bucket position lists stay ascending.
func BuildHashTable(src Key, par int) *HashTable {
	n := src.Len()
	nc := parallel.Chunks(n, par)
	if nc <= 1 {
		m := make(map[uint64][]int32, n)
		for j := 0; j < n; j++ {
			if src.HasNull(j) {
				continue
			}
			h := src.Hash(j)
			m[h] = append(m[h], int32(j))
		}
		return &HashTable{src: src, parts: []map[uint64][]int32{m}}
	}

	type entry struct {
		h   uint64
		pos int32
	}
	P := nc
	locals := make([][][]entry, nc)
	parallel.ForChunks(n, par, func(chunk, lo, hi int) {
		local := make([][]entry, P)
		est := (hi-lo)/P + 1
		for p := range local {
			local[p] = make([]entry, 0, est)
		}
		for j := lo; j < hi; j++ {
			if src.HasNull(j) {
				continue
			}
			h := src.Hash(j)
			local[h%uint64(P)] = append(local[h%uint64(P)], entry{h: h, pos: int32(j)})
		}
		locals[chunk] = local
	})

	parts := make([]map[uint64][]int32, P)
	parallel.Each(P, par, func(p int) {
		total := 0
		for c := 0; c < nc; c++ {
			total += len(locals[c][p])
		}
		m := make(map[uint64][]int32, total)
		for c := 0; c < nc; c++ { // chunk order => ascending positions
			for _, e := range locals[c][p] {
				m[e.h] = append(m[e.h], e.pos)
			}
		}
		parts[p] = m
	})
	return &HashTable{src: src, parts: parts}
}

// Each invokes yield for every build position whose key equals probe row j's
// key, in ascending position order. NULL probes match nothing.
func (t *HashTable) Each(p Key, j int, yield func(pos int32)) {
	if p.HasNull(j) {
		return
	}
	h := p.Hash(j)
	var bucket []int32
	if len(t.parts) == 1 {
		bucket = t.parts[0][h]
	} else {
		bucket = t.parts[h%uint64(len(t.parts))][h]
	}
	for _, pos := range bucket {
		if KeysEqual(t.src, int(pos), p, j) {
			yield(pos)
		}
	}
}
