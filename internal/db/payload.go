package db

import "sync/atomic"

// PayloadMemo is the encode-once slot of one part of a cached result — a
// ResultSet or the PostJoinPlan: the wire payload of that part, kept from the
// first response that encoded it for every later one. internal/wire keeps
// the v2 payload here, the one format the server ships; v1 encodes neither
// read nor fill it.
//
// Lifetime rule: a memo exists only on results that went through the cache's
// miss path (seal), and it keeps bytes only while the result's cache entry is
// resident — every kept payload is first charged to that entry (cache.Retain),
// so the cache's byte budget covers it and evicting or invalidating the entry
// drops the payloads with the result. Results that never reach the cache
// (cache off, hand-built) carry no memo; results the cache declined (over
// budget, fill raced a writer) carry one that never keeps anything. Either
// way they are encoded afresh on every use.
//
// A nil *PayloadMemo is valid and remembers nothing.
type PayloadMemo struct {
	// retain charges delta bytes to the owning cache entry and reports
	// whether the entry is resident with the charge applied.
	retain  func(delta int64) bool
	payload atomic.Pointer[[]byte]
}

// Load returns the kept payload, or nil. The bytes are shared by every
// reader and must not be modified; their capacity equals their length, so
// appending to them copies.
func (m *PayloadMemo) Load() []byte {
	if m == nil {
		return nil
	}
	if p := m.payload.Load(); p != nil {
		return *p
	}
	return nil
}

// Keep offers payload (copied, never aliased) to be kept. Concurrent first
// encoders may all call Keep with their identical bytes: one copy is
// published, the others are refunded and dropped.
func (m *PayloadMemo) Keep(payload []byte) {
	if m == nil || m.payload.Load() != nil {
		return
	}
	n := int64(len(payload))
	if !m.retain(n) {
		return
	}
	kept := make([]byte, len(payload))
	copy(kept, payload)
	if !m.payload.CompareAndSwap(nil, &kept) {
		m.retain(-n)
	}
}

// Memo returns the set's payload memo; nil unless the set belongs to a
// result that went through the result cache.
func (rs *ResultSet) Memo() *PayloadMemo { return rs.memo }

// Memo returns the plan's payload memo; nil unless the plan belongs to a
// result that went through the result cache.
func (p *PostJoinPlan) Memo() *PayloadMemo { return p.memo }

// seal arms the payload memos of a result about to be offered to the result
// cache under key. From here on the result is immutable (the cache's
// standing contract for shared results), which is what makes its encoding
// worth keeping. Must run before r is visible to any other goroutine.
func (d *Database) seal(key string, r *Result) {
	retain := func(delta int64) bool { return d.resultCache.Retain(key, r, delta) }
	for _, set := range r.Sets {
		set.memo = &PayloadMemo{retain: retain}
	}
	if r.PostJoinPlan != nil {
		r.PostJoinPlan.memo = &PayloadMemo{retain: retain}
	}
}
